#!/usr/bin/env python3
"""Sweep the finite-difference oracle across all geometries.

For each geometry a small battery of expressions is cross-validated against
the symbolic tension field under the metric-derived convention; the exit code
is 0 when the worst battery residual is within rel_tol and 1 otherwise.

The whole classification chain of one polyharmonic family member is then
validated one finite-difference layer at a time.  That section is
informational and not in the exit code: on large chain entries the stencil
roundoff (of order eps |f| / h^2) can exceed rel_tol for a correct operator,
and the unit-floor relative residual cannot tell the two apart.

    python scripts/oracle_sweep.py --samples 100 --seed 0
"""

import argparse

from polyharm.families import nil_biharmonic12, sol_h2h3
from polyharm.geometries import by_id, classify
from polyharm.oracle import OracleConfig, cross_validate, validate_chain
from polyharm.parser import parse

BATTERY = {
    "sol": ("x^3*y*E(2)", "2*x^2 - E(-2)", "x*y*t^2", "y^2*E(-1)", "t^4 + x*y"),
    "nil": ("x^2*y*t", "y^2*t", "x^3*t", "x*y^3", "t^2 + x^2"),
    "sl2": ("x*t^2", "y*t^3", "x^2*y^2", "y^3*t", "x*y*t"),
    "h2xr": ("z^2*zb*t", "z*zb", "t^3*z", "-log1m", "z^2*zb^2 + t^2"),
    "s2pxr": ("z*zb*t^2", "z^2*zb", "t^3 + z", "log1p", "t*log1p"),
}


def main(argv: list[str] | None = None) -> int:
    cli = argparse.ArgumentParser(description=__doc__)
    cli.add_argument("--samples", type=int, default=100)
    cli.add_argument("--seed", type=int, default=0)
    cli.add_argument("--step", type=float, default=1e-3)
    args = cli.parse_args(argv)
    config = OracleConfig(samples=args.samples, seed=args.seed, step=args.step)

    worst = 0.0
    for gid, expressions in BATTERY.items():
        geometry = by_id(gid, "metric")
        for text in expressions:
            report = cross_validate(geometry, parse(text, geometry.atoms), config)
            worst = max(worst, report.max_rel)
            flag = "ok" if report.within_tolerance else "FAIL"
            print(f"{gid:6s} {text:22s} max_rel={report.max_rel:.3e}  {flag}")

    print("\nchain validation (one finite-difference layer per step; informational,")
    print("not in the exit code):")
    for name, geometry, member in (
        ("sol h2*h3", by_id("sol"), sol_h2h3(1, 2, 3, 1)),
        ("nil f2", by_id("nil"), nil_biharmonic12(list(range(1, 13)))),
    ):
        report = classify(geometry, member)
        residuals = validate_chain(geometry, report.chain, config)
        line = ", ".join(f"tau^{k + 1}: {r.max_rel:.1e}" for k, r in enumerate(residuals))
        print(f"{name:10s} order={report.order}  {line}")

    print(f"\nworst battery residual: {worst:.3e}")
    return 0 if worst <= config.rel_tol else 1


if __name__ == "__main__":
    raise SystemExit(main())
