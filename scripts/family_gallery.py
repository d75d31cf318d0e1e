#!/usr/bin/env python3
"""Print the explicit polyharmonic families with their verified orders.

    python scripts/family_gallery.py --max-degree 10
"""

import argparse

from polyharm.families import (
    log_biharmonic,
    nil_biharmonic12,
    separable_product,
    sl2_biharmonic6,
    sol_axis_family,
    sol_h2h3,
    sol_tower,
)
from polyharm.geometries import by_id, classify


def show(label, geometry, f, r_max=8):
    report = classify(geometry, f, r_max)
    print(f"{label:26s} {report.describe():28s} {f}")


def main() -> int:
    cli = argparse.ArgumentParser(description=__doc__)
    cli.add_argument("--max-degree", type=int, default=9)
    cli.add_argument("--max-tower", type=int, default=5)
    args = cli.parse_args()

    g = by_id("sol")
    print("# sol: single-axis harmonic families")
    for n in range(2, args.max_degree + 1):
        show(f"axis x, degree {n}", g, sol_axis_family(n, "x", g))
    print("\n# sol: towers t^(2r-2) f1 + t^(2r-1) f2")
    for r in range(1, args.max_tower + 1):
        show(f"tower r={r}", g, sol_tower(r, [1, 1, 0, 0], [0, 0, 1, 0]))
    print("\n# sol: product family h2*h3")
    show("h2*h3 (1,1,1,1)", g, sol_h2h3(1, 1, 1, 1))

    print("\n# nil and sl2 polynomial families")
    show("nil f2, all b=1", by_id("nil"), nil_biharmonic12([1] * 12))
    show("sl2 f2, all b=1", by_id("sl2"), sl2_biharmonic6([1] * 6))

    print("\n# conformal charts and products")
    disc = by_id("h2")
    show("disc -log(1-z zb)", disc, log_biharmonic(disc))
    sphere = by_id("s2p")
    show("sphere log(1+z zb)", sphere, log_biharmonic(sphere))
    dl = by_id("h2xr")
    show("disc x line, z t^3", dl, separable_product(dl, [0, 1], [], [0, 0, 0, 1]))
    show("disc x line, -L(1+t)", dl, log_biharmonic(dl, [1, 1]))
    sl = by_id("s2pxr")
    show("sphere x line, L t", sl, log_biharmonic(sl, [0, 1]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
