"""Exact generation of the addition polynomials of the Weierstrass-based
families; the backends call these builders for `G = auto`.

The Weierstrass addition polynomial is never written down by hand: it is
produced by eliminating the two derivative slots from the classical addition
relation combined with the curve equation at u and at v, then picking the
factor that actually vanishes on backend samples.  The same chain produces
the second component polynomial of the zeta-drift family.
"""

from __future__ import annotations

from fractions import Fraction

from . import naming
from .euclid import factor_candidates, resultant
from .rings import MPoly, StructuralError, VarRing
from .sampling import vanishes


def _curve_rhs(ring: VarRing, var: str, g2: Fraction, g3: Fraction) -> MPoly:
    t = ring.var(var)
    return 4 * t**3 - ring.const(g2) * t - ring.const(g3)


def _eliminate_tangents(c: MPoly, g2: Fraction, g3: Fraction, lvar: str, backend, *, seed, name) -> MPoly:
    """The factor of c, with tx = p'(u) and ty = p'(v) eliminated against the
    curve equations tx^2 = 4*x1^3 - g2*x1 - g3 and ty^2 = 4*y1^3 - g2*y1 - g3,
    that involves lvar and vanishes on backend samples."""
    ring = c.ring
    a = ring.var("tx") ** 2 - _curve_rhs(ring, "x1", g2, g3)
    b = ring.var("ty") ** 2 - _curve_rhs(ring, "y1", g2, g3)
    r2 = resultant(resultant(c, a, "tx"), b, "ty").normalized()
    for cand in factor_candidates(r2):
        if cand.degree_in(lvar) > 0 and vanishes(cand, backend, seed=seed, tol=1e-7):
            return cand.normalized()
    raise StructuralError(f"no vanishing factor found for the {name} addition polynomial")


# (g2, g3) -> G(L1; x1, y1).  The polynomial is fixed by the invariants alone
# (the backend and seed only vet which factor vanishes), and MPoly is never
# mutated, so one build serves every later request in the process.
_WP_CACHE: dict = {}


def weierstrass_addition_poly(g2: Fraction, g3: Fraction, backend, *, seed: int = 0) -> MPoly:
    """Addition polynomial G(L1; x1, y1) for the p-function with given invariants.

    Derived by eliminating tx = p'(u), ty = p'(v) from
        4*(x1-y1)^2*(L1 + x1 + y1) = (tx - ty)^2,
        tx^2 = 4*x1^3 - g2*x1 - g3,   ty^2 = 4*y1^3 - g2*y1 - g3.
    Built once per (g2, g3) in a process.
    """
    key = (Fraction(g2), Fraction(g3))
    if key in _WP_CACHE:
        return _WP_CACHE[key]
    scratch = VarRing(("L1", "x1", "y1", "tx", "ty"))
    L1, x1, y1 = scratch.var("L1"), scratch.var("x1"), scratch.var("y1")
    tx, ty = scratch.var("tx"), scratch.var("ty")
    c = 4 * (x1 - y1) ** 2 * (L1 + x1 + y1) - (tx - ty) ** 2
    g = _eliminate_tangents(c, g2, g3, "L1", backend, seed=naming.stage_seed(seed, "gen-wp"), name="p")
    _WP_CACHE[key] = g
    return g


def zeta_drift_addition_poly(g2: Fraction, g3: Fraction, backend, *, seed: int = 0) -> MPoly:
    """Addition polynomial G(L2; x1, x2, y1, y2) for f2 = u2 - zeta(u1).

    f2 adds up to the quotient term of the zeta addition formula:
        2*(x1-y1)*(L2 - x2 - y2) + tx - ty = 0
    and the derivative slots are eliminated against the curve equations.
    """
    scratch = VarRing(("L2", "x1", "x2", "y1", "y2", "tx", "ty"))
    L2 = scratch.var("L2")
    x1, x2 = scratch.var("x1"), scratch.var("x2")
    y1, y2 = scratch.var("y1"), scratch.var("y2")
    tx, ty = scratch.var("tx"), scratch.var("ty")
    c = 2 * (x1 - y1) * (L2 - x2 - y2) + tx - ty
    return _eliminate_tangents(
        c, g2, g3, "L2", backend, seed=naming.stage_seed(seed, "gen-zeta"), name="zeta-drift"
    )
