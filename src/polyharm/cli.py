"""Command line surface.

Subcommands: tension, classify, generate, oracle, lemma-check, verify-paper.
Exit codes are a stable contract: 0 success, 1 check failure, 2 expression
parse error, 3 algebra closure error, 4 usage or domain error.  The default
operator convention comes from POLYHARM_CONVENTION (metric when unset).

Each subcommand maps its arguments to its JSON report and its text lines.
``main`` alone prints one of the two and picks the exit code: 1 exactly when
the report's status is ``failed`` or ``tolerance-exceeded`` (``exceeds-bound``
and ``expected-mismatch`` exit 0), 0 otherwise; an error raised before the
report is its class's exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .errors import (
    ClosureError,
    DomainError,
    EXIT_CHECK_FAILED,
    EXIT_CLOSURE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    ParseError,
    UsageError,
)
from .families import (
    FAMILIES,
    AnsatzSystem,
    FamilyDescriptor,
    _kernel_orders,
    primitive_normalized,
    product_r_harmonic,
)
from .geometries import CONVENTIONS, R_MAX, by_id, classify, iterated_tension, product
from .linalg import primitive_rows
from .parser import parse, parse_scalar
from .verify import SuiteContext, lemma_report, run_suite


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit with 4, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _default_convention() -> str:
    value = os.environ.get("POLYHARM_CONVENTION", "metric")
    if value not in CONVENTIONS:
        raise UsageError(f"unknown POLYHARM_CONVENTION {value!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="polyharm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, geometry=True):
        if geometry:
            p.add_argument("--geometry", "-g", default="sol", help="geometry id")
        p.add_argument(
            "--convention",
            choices=CONVENTIONS,
            default=_default_convention(),
            help="operator convention for the conformal charts",
        )
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("tension", help="print the chain f, tau f, ..., tau^r f")
    common(p)
    p.add_argument("expression")
    p.add_argument("-r", type=int, default=1, help="number of tension applications")

    p = sub.add_parser("classify", help="determine the properness order")
    common(p)
    p.add_argument("expression")
    p.add_argument("--r-max", type=int, default=R_MAX)

    p = sub.add_parser("generate", help="build a named family or an ansatz kernel")
    common(p)
    p.add_argument("family", nargs="?", help=f"one of: {', '.join(sorted(FAMILIES))}, product.generic")
    p.add_argument("--params", default="", help="comma-separated exact scalars")
    p.add_argument("--hol", default="", help="holomorphic coefficient list")
    p.add_argument("--antihol", default="", help="antiholomorphic coefficient list")
    degree_ids = [fid for fid in sorted(FAMILIES) if "n" in FAMILIES[fid].schema.reads]
    p.add_argument("-n", type=int, default=None, help=f"degree for {' / '.join(degree_ids)}")
    p.add_argument("-r", type=int, default=1, help="tower order / ansatz kernel power")
    p.add_argument("--axis", choices=("x", "y"), default="x")
    p.add_argument("--ansatz", default=None, help="comma-separated candidate terms")
    p.add_argument("--r-max", type=int, default=R_MAX)
    p.add_argument("--g1", default=None, help="first factor id for product.generic")
    p.add_argument("--f1", default=None, help="first factor expression")
    p.add_argument("--g2", default=None, help="second factor id for product.generic")
    p.add_argument("--f2", default=None, help="second factor expression")

    p = sub.add_parser("oracle", help="finite-difference cross-validation sweep")
    common(p)
    p.add_argument("expression")
    # no defaults here: an option left out keeps OracleConfig's default
    p.add_argument("--step", type=float)
    p.add_argument("--levels", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--tol", type=float, dest="rel_tol", metavar="TOL")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("lemma-check", help="randomized product-formula property test")
    p.add_argument("-n", type=int, default=4, help="highest tension power (<= 4)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser(
        "verify-paper", help="run the full suite of reference identities"
    )
    p.add_argument(
        "--convention",
        choices=CONVENTIONS + ("both",),
        default="both",
    )
    p.add_argument("--r-max", type=int, default=R_MAX)
    p.add_argument("--seed", type=int, default=SuiteContext.seed)
    p.add_argument("--skip-oracle", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _report(args, geometry=None, **fields) -> dict:
    """The JSON report of args.command on geometry (None: no chart)."""
    # a given field replaces its default in place: every report keeps one key order
    unset = dict.fromkeys(("geometry", "convention", "input", "chain", "order", "residuals"))
    if geometry is not None:
        unset.update(geometry=geometry.name, convention=args.convention)
    return {"command": args.command, **unset, "status": "ok", **fields}


def _parsed(args):
    """The chart of --geometry/--convention and the expression parsed on it."""
    geometry = by_id(args.geometry, args.convention)
    return geometry, parse(args.expression, geometry.atoms)


def _cmd_tension(args) -> tuple[dict, list[str]]:
    geometry, f = _parsed(args)
    chain = [str(e) for e in iterated_tension(geometry, f, args.r)]
    report = _report(args, geometry, input=args.expression, chain=chain)
    return report, [f"tau^{k}: {text}" for k, text in enumerate(chain)]


def _classified(args, geometry, f, **fields):
    """classify's report of f at --r-max, with its result."""
    result = classify(geometry, f, args.r_max)
    report = _report(
        args,
        geometry,
        chain=[str(e) for e in result.chain],
        order=result.order,
        status="ok" if result.order is not None else "exceeds-bound",
        **fields,
    )
    return report, result


def _cmd_classify(args) -> tuple[dict, list[str]]:
    geometry, f = _parsed(args)
    report, result = _classified(args, geometry, f, input=args.expression)
    chain = report["chain"]
    lines = [f"input: {chain[0]}", f"result: {result.describe()}"]
    return report, lines + [f"tau^{k}: {text}" for k, text in enumerate(chain)]


def _split_scalars(text: str, width: int | None = None) -> list:
    values = [parse_scalar(s.strip()) for s in text.split(",")] if text else []
    if width is not None:
        if len(values) > width:
            raise UsageError(f"expected at most {width} parameters")
        values += [parse_scalar("0")] * (width - len(values))
    return values


def _family_params(descriptor: FamilyDescriptor, args) -> dict:
    """The flags of ``generate <id>`` as build parameters, read in schema order."""
    schema = descriptor.schema
    params = {}
    for flag in schema.reads:
        value = getattr(args, flag)
        if flag == "params":
            values = _split_scalars(value or schema.defaults.get(flag, ""), schema.width)
            params.update(schema.named(values))
        elif flag in ("hol", "antihol"):
            params[flag] = _split_scalars(value or schema.defaults.get(flag, ""))
        elif value is None:
            raise UsageError(f"{descriptor.family_id} needs -{flag}")
        else:
            params[flag] = value
    return params


def _build_family(args):
    if args.family == "product.generic":
        if not all((args.g1, args.f1, args.g2, args.f2)):
            raise UsageError("product.generic needs --g1 --f1 --g2 --f2")
        g = product(by_id(args.g1, args.convention), by_id(args.g2, args.convention))
        f1 = parse(args.f1, g.atoms)
        f2 = parse(args.f2, g.atoms)
        return g, product_r_harmonic(g, f1, f2, args.r_max)
    descriptor = FAMILIES.get(args.family)
    if descriptor is None:
        raise UsageError(f"unknown family id {args.family!r}")
    return descriptor.build(args.convention, **_family_params(descriptor, args))


def _cmd_generate(args) -> tuple[dict, list[str]]:
    if args.ansatz is not None:
        geometry = by_id(args.geometry, args.convention)
        pieces = args.ansatz.split(",") if args.ansatz else []
        basis = [parse(piece.strip(), geometry.atoms) for piece in pieces]
        system = AnsatzSystem.build(geometry, basis, order=args.r)
        kernel, orders = _kernel_orders(system)
        if kernel and args.r_max < 1:
            raise UsageError("the properness bound must be at least 1")
        matrix_rows = [
            [str(v) for v in row] for row in primitive_rows(system.matrix)
        ]
        kernel_info = [
            {"expr": str(primitive_normalized(f)), "order": order if order <= args.r_max else None}
            for f, order in zip(kernel, orders)
        ]
        report = _report(
            args,
            geometry,
            input=args.ansatz,
            matrix=matrix_rows,
            kernel=kernel_info,
            order=kernel_info[0]["order"] if kernel_info else None,
        )
        lines = ["basis: " + ", ".join(str(b) for b in system.basis)]
        lines.append("matrix (rows scaled to primitive integers):")
        lines += ["  [" + ", ".join(row) + "]" for row in matrix_rows]
        if kernel:
            for i, info in enumerate(kernel_info):
                lines.append(f"kernel[{i}]: {info['expr']}  (order {info['order']})")
        else:
            lines.append("kernel: trivial")
        return report, lines

    if not args.family:
        raise UsageError("generate needs a family id or --ansatz")
    geometry, f = _build_family(args)
    report, result = _classified(args, geometry, f, input=args.family, expr=str(f))
    lines = [
        f"family: {args.family}",
        f"expr: {f}",
        f"result: {result.describe()}",
    ]
    return report, lines


def _cmd_oracle(args) -> tuple[dict, list[str]]:
    from .oracle import OracleConfig, cross_validate  # loads numpy
    geometry, f = _parsed(args)
    given = {k: getattr(args, k) for k in ("step", "levels", "rel_tol", "samples", "seed")}
    config = OracleConfig(**{k: v for k, v in given.items() if v is not None})
    sweep = cross_validate(geometry, f, config)
    status = "ok" if sweep.within_tolerance else "tolerance-exceeded"
    sentinel = None
    if args.convention == "paper" and geometry.log_tension is not None:
        if sweep.ratios:
            sentinel = sum(sweep.ratios) / len(sweep.ratios)
        if not sweep.within_tolerance and sweep.paper_sentinel_holds:
            status = "expected-mismatch"
    report = _report(
        args,
        geometry,
        input=args.expression,
        residuals={"max_rel": sweep.max_rel, "points": sweep.points},
        status=status,
        sentinel_ratio=sentinel,
    )
    lines = [
        f"geometry: {geometry.name} ({args.convention} convention)",
        f"expression: {f}",
        f"points: {sweep.points}",
        f"max abs residual: {sweep.max_abs:.3e}",
        f"max rel residual: {sweep.max_rel:.3e}  (tolerance {sweep.rel_tol:.1e})",
        f"status: {status}",
    ]
    if sentinel is not None:
        lines.append(f"mean symbolic/oracle ratio: {sentinel:.6f}")
    return report, lines


def _results(args, results) -> tuple[dict, list[str]]:
    """The report and text lines of a list of verify CheckResults."""
    checks = [
        {"id": r.check_id, "status": r.status, "detail": r.detail} for r in results
    ]
    ok = all(r.ok for r in results)
    report = _report(args, checks=checks, status="ok" if ok else "failed")
    width = max(len(r.check_id) for r in results)
    lines = [f"{r.status:<18} {r.check_id:<{width}}  {r.detail}".rstrip() for r in results]
    passed = sum(1 for r in results if r.ok)
    lines.append(f"summary: {passed}/{len(results)} checks ok")
    return report, lines


def _cmd_lemma_check(args) -> tuple[dict, list[str]]:
    return _results(args, lemma_report(args.n, args.trials, args.seed))


def _cmd_verify_paper(args) -> tuple[dict, list[str]]:
    conventions = CONVENTIONS if args.convention == "both" else (args.convention,)
    ctx = SuiteContext(
        conventions=conventions,
        r_max=args.r_max,
        seed=args.seed,
        oracle=not args.skip_oracle,
    )
    return _results(args, run_suite(ctx))


_DISPATCH = {
    "tension": _cmd_tension,
    "classify": _cmd_classify,
    "generate": _cmd_generate,
    "oracle": _cmd_oracle,
    "lemma-check": _cmd_lemma_check,
    "verify-paper": _cmd_verify_paper,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        report, lines = _DISPATCH[args.command](args)
        if args.format == "json":
            # strict JSON: a non-finite float becomes the string float() reads back
            strict = json.loads(json.dumps(report), parse_constant=lambda c: str(float(c)))
            lines = [json.dumps(strict, indent=2, allow_nan=False)]
        for line in lines:
            print(line)
        sys.stdout.flush()
        return EXIT_CHECK_FAILED if report["status"] in ("failed", "tolerance-exceeded") else EXIT_OK
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull so the
        # interpreter's final flush of the unsent rest stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ClosureError as exc:
        print(f"closure error: {exc}", file=sys.stderr)
        return EXIT_CLOSURE
    except (DomainError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
