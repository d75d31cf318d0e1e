#!/usr/bin/env python3
"""Print one sha256 per command of the output-contract battery.

The battery is the set of outputs a refactor must leave byte-identical:
`tension` and `classify` (text and JSON) on every chart, `tension -r 3` on
the operator table's edge cases (products, the paper convention, sol's
exponential branch), `classify` on the parser's error paths and budgets,
`generate` on the large ansatz systems, the `sol.axis` families and every
named family (defaults, explicit flags and the error paths), `generate -r 3
--ansatz` on the bases of `ANSATZ_LEVELS`, `verify-paper
--format json` (also at `--r-max 1 --skip-oracle`, which pins the statuses at
a lowered bound), `oracle --format json` on h2xr at `--levels 1`, `--levels 3`
and `--samples 300`, and `scripts/family_gallery.py`, plus the edge
cases of `ANSATZ_EDGES` and `PAPER_ORACLE_CHARTS`.  Each command runs
in-process; its line reads `<sha256 of stdout and stderr>  <exit code>
<command>`.  One more line hashes a point-function `fd_tension` value, and
one more hashes every (chart, function, bound) that `verify-paper
--skip-oracle` and `lemma-check -n 3 --trials 30` pass to `classify`, which
pins the random draws even where a check's status would not change.  Two
trees are compared by diffing the output of this script run against each:

    PYTHONPATH=src python scripts/contract_digest.py > after.txt

With ``--masked`` it prints only the lines of the commands whose output holds
a floating-point number, each hashed with every such number replaced by one
token, so that oracle residual digits may move while the rest stays pinned.
``tests/test_contract_digest.py`` checks both outputs against the files in
``tests/data/`` that these commands write:

    PYTHONPATH=src python scripts/contract_digest.py > tests/data/contract_digest.txt
    PYTHONPATH=src python scripts/contract_digest.py --masked \
        > tests/data/contract_digest_masked.txt
"""

import contextlib
import hashlib
import io
import re
import runpy
import sys
from itertools import product
from pathlib import Path

import polyharm.verify
from polyharm.cli import main as cli_main
from polyharm.geometries import by_id, classify
from polyharm.oracle import OracleConfig, fd_tension
from polyharm.parser import parse

# One expression per chart: fractional and complex coefficients, exponential
# and log atoms, so the printer and every operator rule are exercised.
CHARTS = {
    "sol": "x^3*y*E(2) + (1+2i)/3*x*y*t^2 - 5/7*E(-1)",
    "nil": "y^2*t + (2-3i)/5*x^3*t - x*y",
    "sl2": "x*t^2 - 3/4*y^3 + 2i*x*y*t",
    "h2": "(1+1i)/2*z^3*zb^2 + 3*log1m",
    "s2p": "z*zb^2 - 2/3*log1p",
    "line": "t^5 - 1/3*t^2 + 7i",
    "h2xr": "t*log1m + (1-2i)/3*z*zb*t^2",
    "s2pxr": "log1p*t^2 + z^2*zb*t",
    "product:nilxh2": "x*z*zb + 1/2*t^2*z",
}

def monomials(geometry_id: str, degree: int) -> str:
    names = by_id(geometry_id).atoms.variables
    terms = []
    for powers in product(range(degree + 1), repeat=len(names)):
        if sum(powers) <= degree:
            factors = [v if p == 1 else f"{v}^{p}" for v, p in zip(names, powers) if p]
            terms.append("*".join(factors) or "1")
    return ", ".join(terms)


# `generate <id>` per family: once at the CLI defaults and once with explicit
# flags (`-n` where the family needs it; the h2r/s2r families also under the
# paper convention), then the error paths.  One line passes flags its family
# ignores, to pin that they are ignored.
GENERATE_DEFAULTS = [
    ["sol.tower"], ["sol.axis", "-n", "5"], ["sol.mixed", "-n", "2"], ["sol.h2h3"],
    ["nil.f1"], ["nil.f2"], ["sl2.f1"], ["sl2.f2"],
    ["h2r.separable"], ["s2r.separable"], ["h2r.logxp"], ["s2r.logxp"],
    ["product.generic", "--g1", "h2", "--f1", "z^2", "--g2", "line", "--f2", "t^3"],
]
GENERATE_EXPLICIT = [
    ["sol.tower", "-r", "3", "--params", "1,2/3,0,-1,1i,0,0,2"],
    ["sol.axis", "-n", "7", "--axis", "y"],
    ["sol.mixed", "-n", "3", "--params", "2,-1,1/2,3,1i,-2"],
    ["sol.h2h3", "--params", "1,-2,0,3/4", "--hol", "5", "-n", "4"],
    ["nil.f1", "--params", "1,-1", "--hol", "0,1,2i", "--antihol", "3,0,-1/2"],
    ["nil.f2", "--params", "1,2,3,4,5,6,7,8,9,10,11,12"],
    ["sl2.f1", "--params", "0,2", "--hol", "1,(1+1i)/2", "--antihol", "0,0,3"],
    ["sl2.f2", "--params", "1,0,2,0,-1,3"],
    ["sl2.f2", "--params", "2,0,0,1"],
    ["h2r.separable", "--hol", "0,1", "--antihol", "2,1i", "--params", "1,0,-1,2"],
    ["s2r.separable", "--hol", "0,1", "--antihol", "2,1i", "--params", "1,0,-1,2"],
    ["h2r.separable", "--convention", "paper", "--antihol", "0,3", "--params", "0,1,0,1"],
    ["s2r.separable", "--convention", "paper", "--antihol", "0,3", "--params", "0,1,0,1"],
    ["h2r.logxp", "--params", "2,-3"],
    ["s2r.logxp", "--params", "2,-3"],
    ["h2r.logxp", "--convention", "paper", "--params", "0,1i"],
    ["s2r.logxp", "--convention", "paper", "--params", "0,1i"],
    ["product.generic", "--g1", "h2", "--f1", "z^2 + 1/2*zb", "--g2", "line",
     "--f2", "t^5 - t", "--r-max", "4", "--convention", "paper"],
]
GENERATE_ERRORS = [
    ["sol.axis"], ["sol.mixed"], ["sol.mixed", "--params", "1,1,1,1,1,1,1"],
    ["sol.tower", "--params", "1,2,3,4,5,6,7,8,9"], ["nil.f1", "--params", "1,2,3"],
    ["nil.f2", "--params", "0,0,0"], ["nil.f1", "--params", "0", "--hol", "0"],
    ["product.generic", "--g1", "h2", "--f1", "z", "--g2", "line"],
    ["sol.unknown"], ["sol.h2h3", "--params", "1,2/"], ["sol.tower", "-r", "0"],
    # two bad flags: the one read first is reported
    ["nil.f1", "--params", "1/", "--hol", "12/"],
    ["h2r.separable", "--hol", "1/", "--params", "1,2,3,4,5"],
]

# `classify` on inputs the parser refuses or bounds: the closure error of a
# product is reported at the factor that breaks it (so a later zero factor
# does not hide it, and an earlier one does), the power budgets, and the
# syntax errors with their positions.
PARSE_EDGES = [
    ("h2xr", "log1m*z*log1m"), ("h2xr", "0*log1m*log1m"), ("h2xr", "log1m*log1m*0"),
    ("h2xr", "z*log1m"), ("h2xr", "log1m^2*0"), ("h2xr", "log1m*t*log1m"),
    ("h2xr", "(log1m)^2"), ("h2xr", "log1m*log1m*)"), ("h2", "(z+log1m)*log1m"),
    ("nil", "x^100000000"), ("nil", "2^100000000"), ("nil", "(x+y+t)^200"),
    ("nil", "x*q"), ("nil", "E(1)*x"), ("nil", "x#2"), ("nil", "2x"),
    ("nil", "(" * 101 + "x" + ")" * 101), ("nil", "1/0*x"), ("nil", "x*1i/0"),
    ("nil", "x^"), ("sol", "E(-1)^3*x^0*2^3*(1-1i)^2"), ("h2", "0^0*(z-z)^0"),
    ("sol", "E( - 3 )*x"), ("sol", "E x"), ("sol", "E(1)^2*x"), ("nil", "3 i*x"),
    ("nil", "( 1/2 + 3/4 i )/5*x"), ("nil", "1/2i*x"), ("nil", "x ^ 2*y"),
    ("nil", "(1+2i)^2*x"), ("nil", "2^3*x"), ("nil", "(1+2i)x"), ("nil", "x*(1+2i)^"),
]

# `tension -r 3` where the operator table's branches meet: the products with a
# 3-dimensional factor and the flat product, the paper convention on the
# conformal charts, and sol's exponential branch (t and E(w) together).
TENSION_EDGES = [
    ("product:solxs2p", "metric", "x^2*t*E(1)*z*zb - 2/3*t^2*log1p + y*E(-2)*zb^3"),
    ("product:linexline", "metric", "s^4*t^2 - 3*s*t^3 + 1/2*s"),
    ("product:nilxh2", "metric", "x^2*y*t*z*zb + t^2*log1m - (1+2i)*y^3*zb"),
    ("h2", "paper", "z^3*zb^2 - 1/4*log1m + 2i*z"),
    ("s2p", "paper", "(2-1i)*z^2*zb^3 + 3*log1p"),
    ("s2pxr", "paper", "t^3*log1p + z*zb^2*t - 5/3*z^4"),
    ("sol", "metric", "t^3*E(2) - 2*E(-3) + x^2*t*E(1)"),
    ("sol", "metric", "x^3*y^2*t^2*E(-1) + (2-1i)*y*t^4*E(3) - 7*t*E(-2)"),
]


# `oracle` sweeps on a log-bearing chart, in JSON so every digit of the
# residual is pinned: one and three Richardson levels, and 300 points, which
# spans more than one chunk of the stencil pass.
ORACLE_FLAGS = [["--levels", "1"], ["--levels", "3"], ["--samples", "300"]]

# `generate --ansatz` on sol with complex kernel members, a complex matrix row
# and a negative row, which pin how rows and kernels are scaled to primitive
# integers; and the paper-convention `oracle` on two conformal product charts,
# which pins when the factor-4 ratio is reported.
# The last basis puts a complex pivot and a non-unit denominator into the
# elimination: its rows hold (8-4i), 2, 2/3, (4+8i) and (2+4i).
ANSATZ_EDGES = [
    "(1+1i)*x, 2i*y - 1/3*x*y, -4*t",
    "-x^2, 3/2*E(-2), (1+1i)*x*E(-1)",
    "x^2, (1+2i)*y^2*E(2), 1/3*t^2, (2-1i)*E(-2)",
]
PAPER_ORACLE_CHARTS = ["h2xr", "product:h2xline"]

# `generate -r 3 --ansatz`, where the tau^3 matrix is built from the images of
# the images: sol with exponential weights, and log-bearing bases on h2xr and
# on a product with a 3-dimensional factor.
ANSATZ_LEVELS = [
    ("sol", "t^4,t^3,x*E(-1),y*E(1),t^2*E(2),1"),
    ("h2xr", "log1m,t*log1m,z*zb,t^3,z^2*zb^2*t"),
    ("product:nilxh2", "t*log1m,x,x*t^2,y^2*log1m,z*zb*t"),
]


# A floating-point number: the oracle residual digits, which a refactor may move.
RESIDUAL = re.compile(r"[0-9]+\.[0-9]+(?:e[-+]?[0-9]+)?")


def print_point_function_tension() -> int:
    """repr of one fd_tension through the point-function path (one call per
    stencil point) on h2xr at three Richardson levels."""
    g = by_id("h2xr")
    f = parse(CHARTS["h2xr"], g.atoms)
    print(repr(fd_tension(g, f.evaluate, (0.3, -0.2, 0.5), OracleConfig(levels=3))))
    return 0


def print_classified_draws() -> int:
    """One line per `classify` call of the verify checks, by wrapping
    `polyharm.verify.classify` for the two commands; their own output is
    dropped."""
    seen = []

    def record(geometry, f, r_max):
        seen.append(f"{geometry.name}  {f}  {r_max}")
        return classify(geometry, f, r_max)

    polyharm.verify.classify = record
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = max(cli_main(argv) for argv in (
                ["verify-paper", "--skip-oracle"], ["lemma-check", "-n", "3", "--trials", "30"]))
    finally:
        polyharm.verify.classify = classify
    print("\n".join(seen))
    return code


def battery() -> list[list[str]]:
    commands = []
    for fmt in ("text", "json"):
        for gid, expr in CHARTS.items():
            commands.append(["tension", "-g", gid, "-r", "2", "--format", fmt, expr])
            commands.append(["classify", "-g", gid, "--format", fmt, expr])
        commands.append(["classify", "-g", "h2xr", "--convention", "paper", "--format", fmt,
                         CHARTS["h2xr"]])
        for gid, degree in (("nil", 8), ("sl2", 8), ("h2xr", 6)):
            commands.append(["generate", "-g", gid, "-r", "2", "--format", fmt,
                             "--ansatz", monomials(gid, degree)])
        for n in (32, 48):
            commands.append(["generate", "sol.axis", "-n", str(n), "--format", fmt])
    commands.append(["verify-paper", "--format", "json"])
    commands.append(["verify-paper", "--r-max", "1", "--skip-oracle", "--format", "json"])
    for gid, text in PARSE_EDGES:
        commands.append(["classify", "-g", gid, text])
    for fmt in ("text", "json"):
        for flags in GENERATE_DEFAULTS + GENERATE_EXPLICIT + GENERATE_ERRORS:
            commands.append(["generate", flags[0], "--format", fmt] + flags[1:])
    for fmt in ("text", "json"):
        for gid, convention, expr in TENSION_EDGES:
            commands.append(["tension", "-g", gid, "-r", "3", "--convention", convention,
                             "--format", fmt, expr])
    for flags in ORACLE_FLAGS:
        commands.append(["oracle", "-g", "h2xr", "--format", "json"] + flags + [CHARTS["h2xr"]])
    for fmt in ("text", "json"):
        for basis in ANSATZ_EDGES:
            commands.append(["generate", "-g", "sol", "--format", fmt, "--ansatz", basis])
    for gid in PAPER_ORACLE_CHARTS:
        commands.append(["oracle", "-g", gid, "--convention", "paper", "--format", "json", "z*zb"])
    for fmt in ("text", "json"):
        for gid, basis in ANSATZ_LEVELS:
            commands.append(["generate", "-g", gid, "-r", "3", "--format", fmt, "--ansatz", basis])
    return commands


def capture(run) -> tuple[str, int]:
    """The stdout and stderr of run(), interleaved, and its exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = run()
    return out.getvalue(), code


def masked(output: str) -> str:
    """output with every floating-point number replaced by one token."""
    return RESIDUAL.sub("<float>", output)


def line(text: str, output: str, code: int) -> str:
    return f"{hashlib.sha256(output.encode()).hexdigest()}  {code}  {text}"


def label(argv: list[str]) -> str:
    text = " ".join(a if " " not in a and a else repr(a) for a in argv)
    return text if len(text) <= 100 else text[:97] + "..."


def run_gallery() -> int:
    gallery = Path(__file__).resolve().with_name("family_gallery.py")
    saved = sys.argv
    sys.argv = [str(gallery)]
    try:
        return runpy.run_path(str(gallery))["main"]()
    finally:
        sys.argv = saved


def runs():
    """(label, run) for each line of the output, in order."""
    for argv in battery():
        yield label(argv), lambda argv=argv: cli_main(argv)
    yield "scripts/family_gallery.py", run_gallery
    yield "fd_tension -g h2xr (point function, levels 3)", print_point_function_tension
    yield ("classify draws of verify-paper --skip-oracle, lemma-check -n 3 --trials 30",
           print_classified_draws)


def main(argv: list[str]) -> int:
    mask = argv == ["--masked"]
    if argv and not mask:
        print("usage: contract_digest.py [--masked]", file=sys.stderr)
        return 2
    for text, run in runs():
        output, code = capture(run)
        if not mask:
            print(line(text, output, code))
        elif RESIDUAL.search(output):
            print(line(text, masked(output), code))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
