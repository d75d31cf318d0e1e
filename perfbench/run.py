"""The polyharm benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload {classify,ansatz,oracle} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports ``polyharm`` from
``src/`` of that checkout and from nowhere else.  One process, one client,
closed loop: each operation starts when the previous one has finished.
Inputs are generated from ``--seed`` in rounds (see ``workloads``) outside
the timed region; each operation is timed on its own and the run stops at
the first round boundary after ``--seconds`` of timed work.  Outputs
are checked after each round, outside the timed region; an operation that
raises or fails its check counts as failed and the run goes on.

Reported times are scaled to a reference machine speed measured by a
calibration kernel between operations (see ``calibration``); the raw wall
times are printed on a ``#`` line beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
operation twice, untraced and traced (alternating which goes first), and
prints the per-layer metrics of the traced runs and the tracing overhead.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibration import REFERENCE_S, calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
CALIBRATE_EVERY = 0.01  # seconds of timed work between two calibrations
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
MAX_REPORTED_ERRORS = 5

# The child times its own import and geometry construction, so the
# interpreter's start-up is not part of setup_s, then calibrates; it
# imports the calibration module only after the timed part.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import polyharm
geometries = [polyharm.by_id(g) for g in sys.argv[1:]]
elapsed = time.perf_counter() - t0
import calibration
print(elapsed, calibration.calibrate())
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("classify", "ansatz", "oracle"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- environment header --------------------------------------------------------


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    """sha256 over src/**/*.py, which names the code even without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, numpy_version: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "cpu_settings": "frequency scaling and affinity left untouched: noise is measured, not pinned",
    }


# -- measurement -----------------------------------------------------------------


def measure_setup(geometry_ids) -> list[tuple[float, float]]:
    """(raw seconds, kernel seconds) of importing polyharm and building the
    workload's geometries, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    runs = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, *geometry_ids],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        elapsed, kernel = map(float, out.stdout.split())
        runs.append((elapsed, kernel))
    return runs


class Run:
    """Closed-loop execution of one workload: latencies, counts and failures."""

    def __init__(self, workload, geometries, seed: int, tracer=None):
        self.workload = workload
        self.geometries = geometries
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.latencies: list[float] = []  # raw seconds of the measured (traced) calls
        self.untraced: list[float] = []  # raw seconds of the paired untraced calls
        self.calibrations: list[float] = []  # kernel seconds, taken between ops
        self.segments: list[int] = []  # per latency: index of the calibration before it
        self.elapsed = 0.0  # timed work so far at reference speed, traced and untraced
        self._since_calibration = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_REPORTED_ERRORS:
            self.errors.append(message)

    def _timed(self, query, traced: bool):
        run_op, geometries = self.workload.run_op, self.geometries
        if traced:
            self.tracer.install()
            try:
                start = time.perf_counter()
                output = self.tracer.root(run_op, geometries, query)
                return output, time.perf_counter() - start
            finally:
                self.tracer.uninstall()
        start = time.perf_counter()
        output = run_op(geometries, query)
        return output, time.perf_counter() - start

    def one(self, query):
        """Time one op (with --trace 1, an untraced and a traced call of it)."""
        self.attempted += 1
        plain = 0.0
        try:
            if self.tracer is None:
                output, elapsed = self._timed(query, False)
            else:
                untraced_first = self.attempted % 2 == 1
                if untraced_first:
                    _, plain = self._timed(query, False)
                output, elapsed = self._timed(query, True)
                if not untraced_first:
                    _, plain = self._timed(query, False)
                self.untraced.append(plain)
        except Exception:  # an operation that raises is a failed operation
            self._fail(f"{query!r} raised:\n{traceback.format_exc()}")
            return None
        self.latencies.append(elapsed)
        self.segments.append(len(self.calibrations) - 1)
        self.elapsed += (elapsed + plain) * REFERENCE_S / self.calibrations[-1]
        self._since_calibration += elapsed + plain
        if self._since_calibration >= CALIBRATE_EVERY:
            self._calibrate()
        return output

    def _calibrate(self) -> None:
        self.calibrations.append(calibrate())
        self._since_calibration = 0.0

    def run_round(self, queries) -> None:
        """Time every query of one round, then check their outputs."""
        self._calibrate()  # generation and checks took untimed seconds
        done = []
        for query in queries:
            output = self.one(query)
            if output is not None:
                done.append((query, output))
        for query, output in done:
            try:
                problems = self.workload.check_op(self.geometries, query, output)
            except Exception:  # a check that raises is a failed check
                problems = [f"check raised:\n{traceback.format_exc()}"]
            if problems:
                self._fail(f"{query!r}: {'; '.join(problems)}")

    def run(self, seconds: float) -> None:
        """Whole rounds until ``seconds`` of timed work at reference speed.

        Stopping only between rounds keeps the mix of every run the same,
        which an op-level stop would not: one ansatz round holds systems of
        0.03 s to 2 s in seeded order.  Counting the budget at reference
        speed keeps the number of rounds the same when the machine is slow.
        """
        rounds = 0
        while self.elapsed < seconds:
            self.run_round(self.workload.make_round(self.rng, rounds))
            rounds += 1
        if self._since_calibration:
            self._calibrate()

    def scaled(self) -> list[float]:
        """Latencies at reference speed, each scaled by the mean of the
        calibrations taken just before and just after it."""
        c = self.calibrations
        return [
            t * REFERENCE_S * 2.0 / (c[k] + c[min(k + 1, len(c) - 1)])
            for t, k in zip(self.latencies, self.segments)
        ]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(run: Run, setup_runs: list[tuple[float, float]]) -> dict:
    scaled, raw = run.scaled(), run.latencies
    tail_value, tail_pct = tail(scaled)
    setup = [elapsed * REFERENCE_S / kernel for elapsed, kernel in setup_runs]
    print(
        f"# ops {len(raw)}; tail = p{tail_pct:.2f} of {len(raw)} samples; "
        f"fail_rate {run.failed / run.attempted:.6f} ({run.failed}/{run.attempted})"
    )
    print(
        f"# raw wall time: {sum(raw):.3f} s of ops, ops_per_s {len(raw) / sum(raw):.4f}, "
        f"op_p50_ms {1e3 * statistics.median(raw):.4f}, op_tail_ms {1e3 * tail(raw)[0]:.4f}, "
        f"setup_s {statistics.median(e for e, _ in setup_runs):.4f}; kernel median "
        f"{1e6 * statistics.median(run.calibrations):.1f} us over {len(run.calibrations)} "
        f"calibrations (reference {1e6 * REFERENCE_S:.0f} us)"
    )
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": {"value": len(scaled) / sum(scaled), "unit": "1/s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(scaled), "unit": "ms"},
        "op_tail_ms": {"value": 1e3 * tail_value, "unit": "ms"},
        "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }


def per_layer(run: Run) -> dict:
    tr = run.tracer
    ops = len(run.latencies)
    speed = REFERENCE_S / statistics.median(run.calibrations)
    per_op_s = lambda name: tr.self_ns[name] / 1e9 / ops * speed
    per_op = lambda value: value / ops
    entries = tr.counts["linalg.entries"]
    metrics = {
        "geometries.tension_s": (per_op_s("geometries.tension"), "s/op"),
        "geometries.tension_calls": (per_op(tr.calls["geometries.tension"]), "count/op"),
        "geometries.tension_terms_out": (per_op(tr.counts["geometries.tension_terms_out"]), "count/op"),
        "algebra.add_s": (per_op_s("algebra.add"), "s/op"),
        "algebra.mul_s": (per_op_s("algebra.mul"), "s/op"),
        "algebra.differentiate_s": (per_op_s("algebra.differentiate"), "s/op"),
        "algebra.print_s": (per_op_s("algebra.print"), "s/op"),
        "algebra.evaluate_s": (per_op_s("algebra.evaluate"), "s/op"),
        "algebra.evaluate_calls": (per_op(tr.calls["algebra.evaluate"]), "count/op"),
        "parser.parse_s": (per_op_s("parser.parse"), "s/op"),
        "parser.calls": (per_op(tr.calls["parser.parse"]), "count/op"),
        "linalg.nullspace_s": (per_op_s("linalg.nullspace"), "s/op"),
        "linalg.nullspace_calls": (per_op(tr.calls["linalg.nullspace"]), "count/op"),
        "linalg.entries": (per_op(entries), "count/op"),
        "linalg.nonzero_frac": (tr.counts["linalg.nonzero"] / entries if entries else 0.0, "ratio"),
        "families.build_s": (per_op_s("families.build"), "s/op"),
        "families.kernel_assembly_s": (per_op_s("families.kernel_assembly"), "s/op"),
        "families.kernel_dim": (per_op(tr.counts["families.kernel_dim"]), "count/op"),
        "rationals.mul_calls": (per_op(tr.counts["rationals.mul_calls"]), "count/op"),
        "rationals.add_calls": (per_op(tr.counts["rationals.add_calls"]), "count/op"),
        "rationals.div_calls": (per_op(tr.counts["rationals.div_calls"]), "count/op"),
        "oracle.fd_tension_s": (per_op_s("oracle.fd_tension"), "s/op"),
        "oracle.metric_s": (per_op_s("oracle.metric"), "s/op"),
        "oracle.metric_calls": (per_op(tr.calls["oracle.metric"]), "count/op"),
        "oracle.points": (per_op(tr.calls["oracle.fd_tension"]), "count/op"),
        "trace.unattributed_s": (per_op_s("op"), "s/op"),
        "trace.overhead_pct": (100.0 * (sum(run.latencies) / sum(run.untraced) - 1.0), "%"),
    }
    op_s = sum(run.latencies) / ops * speed
    print(f"# traced ops {ops}; mean traced op {op_s * 1e3:.3f} ms at reference speed; self-time shares:")
    for name, (value, unit) in metrics.items():
        share = f"  {100 * value / op_s:6.2f} %" if unit == "s/op" else ""
        print(f"#   {name:30s} {value:14.6g} {unit}{share}")
    if tr.missing:
        print(f"# entry points not found (metrics stay 0): {', '.join(tr.missing)}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "polyharm" / "__init__.py").is_file():
        print(f"error: no polyharm sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    import polyharm
    import workloads
    from tracer import Tracer

    if Path(polyharm.__file__).resolve().parent != (SRC / "polyharm").resolve():
        print(f"error: imported polyharm from {polyharm.__file__}", file=sys.stderr)
        return 2

    print("# env " + json.dumps(environment(args, numpy.__version__)))
    workload = workloads.WORKLOADS[args.workload]
    geometry_ids = workloads.WORKLOAD_GEOMETRIES[args.workload]
    setup_runs = [] if args.trace else measure_setup(geometry_ids)
    run = Run(workload, workloads.build_geometries(args.workload), args.seed,
              Tracer() if args.trace else None)
    run.run(args.seconds)
    for message in run.errors:
        print(f"# failure: {message}", file=sys.stderr)
    if not run.latencies:
        print("error: no operation completed", file=sys.stderr)
        return 1
    metrics = per_layer(run) if args.trace else end_to_end(run, setup_runs)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
