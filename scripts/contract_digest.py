#!/usr/bin/env python3
"""Print one sha256 per command of the output-contract battery.

The battery is the set of outputs a refactor must leave byte-identical:
`tension` and `classify` (text and JSON) on every chart, `generate` on the
large ansatz systems and the `sol.axis` families, `verify-paper --format
json` and `scripts/family_gallery.py`.  Each command runs in-process; its
line reads `<sha256 of stdout and stderr>  <exit code>  <command>`.  No
command prints the conformality operator, so one more line per chart hashes
`str(g.conformality(f, h))` over fixed pairs, log pairs included.  Two
trees are compared by diffing the output of this script run against each:

    PYTHONPATH=src python scripts/contract_digest.py > after.txt
"""

import contextlib
import hashlib
import io
import runpy
import sys
from itertools import product
from pathlib import Path

from polyharm.cli import main as cli_main
from polyharm.errors import ClosureError
from polyharm.geometries import by_id
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

# Conformality pairs per chart, on top of (f, f) for the CHARTS expression f:
# mixed-variable and log-bearing inputs, including the log pairs of the
# oracle tests.
KAPPA_PAIRS = {
    "sol": [("x*y*E(-1) + t^2", "y^2*E(2) - 3*x*t")],
    "nil": [("x*t + y^2", "(1-1i)*x^2*y*t + t^3")],
    "sl2": [("x*t - y^2", "x^2*y + 2i*t^2")],
    "h2": [("log1m", "log1m"), ("log1m", "z^2*zb"), ("z*zb^2 + log1m", "z^3 - 2*log1m")],
    "s2p": [("log1p", "log1p"), ("z^2 + 1/3*log1p", "zb*z^2 - log1p")],
    "line": [("t^3", "t^2 - 1")],
    "h2xr": [("t*log1m", "log1m"), ("t^2*log1m", "z^2*zb + t"), ("log1m", "z^2*zb")],
    "s2pxr": [("t*log1p + z^2", "log1p + zb*z^2")],
    "product:nilxh2": [("x*t*z + log1m", "y*zb^2 + t^2")],
}


def print_conformality(geometry_id: str) -> int:
    g = by_id(geometry_id)
    for f, h in [(CHARTS[geometry_id], CHARTS[geometry_id])] + KAPPA_PAIRS[geometry_id]:
        try:
            print(g.conformality(parse(f, g.atoms), parse(h, g.atoms)))
        except ClosureError as exc:  # kappa(t L, t L) carries L^2
            print(f"closure error: {exc}")
    return 0


def monomials(geometry_id: str, degree: int) -> str:
    names = by_id(geometry_id).atoms.variables
    terms = []
    for powers in product(range(degree + 1), repeat=len(names)):
        if sum(powers) <= degree:
            factors = [v if p == 1 else f"{v}^{p}" for v, p in zip(names, powers) if p]
            terms.append("*".join(factors) or "1")
    return ", ".join(terms)


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
    return commands


def digest(run) -> tuple[str, int]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = run()
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), code


def label(argv: list[str]) -> str:
    text = " ".join(a if " " not in a and a else repr(a) for a in argv)
    return text if len(text) <= 100 else text[:97] + "..."


def main() -> int:
    for argv in battery():
        sha, code = digest(lambda: cli_main(argv))
        print(f"{sha}  {code}  {label(argv)}")
    gallery = Path(__file__).resolve().with_name("family_gallery.py")
    saved = sys.argv
    sys.argv = [str(gallery)]
    try:
        sha, code = digest(runpy.run_path(str(gallery))["main"])
    finally:
        sys.argv = saved
    print(f"{sha}  {code}  scripts/family_gallery.py")
    for gid in CHARTS:
        sha, code = digest(lambda: print_conformality(gid))
        print(f"{sha}  {code}  conformality -g {gid}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
