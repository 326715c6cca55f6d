"""Symbolic-numeric toolkit for algebraic addition theorems.

Given the defining polynomials of a mapping's addition theorem, the package
derives first-order algebraic differential relations by exact elimination,
constructs the addition-theorem variety through a primitive element, resolves
the rational addition formula and its group law for the classical families,
and validates every derived identity numerically against concrete function
backends (exponential, Weierstrass elliptic, and the degenerate two-variable
catalog).
"""

__version__ = "0.1.0"

import os

# One OpenBLAS thread: the largest linear algebra here is a least-squares
# solve with a few columns, and an idle pool busy-waits after every call.
# Set before numpy is imported; a value the caller set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .rings import AlgebraError, DomainError, MPoly, PoleError, StructuralError, VarRing


def __getattr__(name):
    # the convenient API surface, loaded lazily to keep `import aat` light
    surface = {
        "parse_poly": ("aat.parsing", "parse_poly"),
        "RatFn": ("aat.ratfn", "RatFn"),
        "gcd": ("aat.euclid", "gcd"),
        "resultant": ("aat.euclid", "resultant"),
        "squarefree_check": ("aat.euclid", "squarefree_check"),
        "load_problem": ("aat.problem", "load_problem"),
        "make_backend": ("aat.backends", "make_backend"),
        "Lattice": ("aat.weierstrass", "Lattice"),
        "AATSystem": ("aat.elimination", "AATSystem"),
        "derive_first_order": ("aat.elimination", "derive_first_order"),
        "find_primitive_element": ("aat.variety", "find_primitive_element"),
        "resolve_addition": ("aat.addition", "resolve_addition"),
        "derive_negation": ("aat.addition", "derive_negation"),
        "detect_period": ("aat.periods", "detect_period"),
        "residual_check": ("aat.sampling", "residual_check"),
        "run_problem": ("aat.pipeline", "run_problem"),
        "run_catalog": ("aat.pipeline", "run_catalog"),
    }
    if name in surface:
        import importlib

        module, attr = surface[name]
        return getattr(importlib.import_module(module), attr)
    raise AttributeError(f"module 'aat' has no attribute {name!r}")


__all__ = [
    "AlgebraError",
    "DomainError",
    "MPoly",
    "PoleError",
    "StructuralError",
    "VarRing",
    "__version__",
]
