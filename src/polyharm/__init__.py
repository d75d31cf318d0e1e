"""Exact polyharmonic function toolkit for the 3-dimensional model geometries.

Symbolic tension (Laplace-Beltrami) and conformality operators over exact
Gaussian-rational term algebras on sol, nil, sl2, the hyperbolic disc, the
punctured sphere, the line and their products; generators for the explicit
harmonic and polyharmonic families; and a metric-derived finite-difference
oracle that cross-validates every symbolic operator rule.  The names below
are the public Python API; the README's "Python API" section lists them.
The oracle names load numpy, so they are imported on first access.
"""

from .algebra import AtomSet, Expr, Term
from .errors import ClosureError, DomainError, ParseError, UsageError
from .families import (
    AnsatzSystem,
    FAMILIES,
    FamilyDescriptor,
    generate_kernel,
    log_biharmonic,
    nil_biharmonic12,
    nil_harmonic,
    product_r_harmonic,
    separable_product,
    sl2_biharmonic6,
    sl2_harmonic,
    sol_axis_family,
    sol_h2h3,
    sol_mixed_harmonic,
    sol_tower,
    sol_tower_literal,
)
from .geometries import (
    Geometry,
    ProductGeometry,
    VerificationReport,
    by_id,
    classify,
    iterated_tension,
    nil,
    product_tension_binomial,
    sol,
)
from .linalg import ExactMatrix, nullspace, rank
from .parser import parse, parse_scalar
from .rationals import GaussianRational

__version__ = "0.1.0"
_ORACLE_NAMES = ("OracleConfig", "ResidualReport", "cross_validate", "fd_tension", "validate_chain")


def __getattr__(name: str):
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle
    globals().update({n: getattr(oracle, n) for n in _ORACLE_NAMES})  # later reads skip this
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_ORACLE_NAMES})
