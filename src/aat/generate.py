"""Exact generation of the addition polynomials of the Weierstrass-based
families; the backends call these builders for `G = auto`.

The Weierstrass addition polynomial is never written down by hand: it is
produced by eliminating the two derivative slots tx = p'(u), ty = p'(v)
from the classical addition relation combined with the curve equations
tx^2 = fx and ty^2 = fy, then picking the factor that actually vanishes on
backend samples.  The same chain produces the second component polynomial
of the zeta-drift family.

Each elimination is a norm, not a generic resultant.  Modulo t^2 - f a
polynomial is c0 + t*c1 with c0, c1 free of t, and
    Res_t(c0 + t*c1, t^2 - f) = c0^2 - f*c1^2,
the norm from Q(..)[t]/(t^2 - f) (Trager, SYMSAC 1976; Cohen, A Course in
Computational Algebraic Number Theory, 3.6.1).  Eliminating tx and then ty
costs a few multiplications.  For p the relation holds ty only through
(tx - ty)^2, so c0 is even in ty and c1 odd, and the first norm is even in
ty: its reduction modulo ty^2 - fy is some d0 free of ty, and the second
norm would be d0^2, a square the factor search would only have to undo.
d0 is used as it is.  For zeta-drift an
odd part in ty is left and the second norm is taken.  Either result still
carries a content in the value slot (powers of x1 - y1, where the addition
is undefined); its primitive part in that slot is what the factor search
sees.
"""

from __future__ import annotations

from fractions import Fraction

from .euclid import factor_candidates, primitive_in
from .rings import MPoly, StructuralError, VarRing
from .sampling import vanishes


def _curve_rhs(ring: VarRing, var: str, g2: Fraction, g3: Fraction) -> MPoly:
    t = ring.var(var)
    return 4 * t**3 - ring.const(g2) * t - ring.const(g3)


def split_mod_square(c: MPoly, t: str, f: MPoly) -> tuple:
    """(c0, c1) with c = c0 + t*c1 modulo t^2 - f, both free of t."""
    parts = [c.ring.zero(), c.ring.zero()]
    for d, coeff in sorted(c.coeffs_in(t).items()):
        parts[d % 2] = parts[d % 2] + coeff * f ** (d // 2)
    return parts[0], parts[1]


def _eliminate_tangents(c: MPoly, g2: Fraction, g3: Fraction, lvar: str, backend, *, seed, name) -> MPoly:
    """The factor of c, with tx and ty eliminated by norms (see the module
    docstring) against tx^2 = fx = 4*x1^3 - g2*x1 - g3 and ty^2 = fy (the
    same in y1), that involves lvar and vanishes on backend samples."""
    ring = c.ring
    fx, fy = _curve_rhs(ring, "x1", g2, g3), _curve_rhs(ring, "y1", g2, g3)
    c0, c1 = split_mod_square(c, "tx", fx)
    d0, d1 = split_mod_square(c0 * c0 - fx * c1 * c1, "ty", fy)
    r = d0 if d1.is_zero() else d0 * d0 - fy * d1 * d1
    for cand in factor_candidates(primitive_in(r.normalized(), lvar)):
        if cand.degree_in(lvar) > 0 and vanishes(cand, backend, seed=seed, tol=1e-7):
            return cand.normalized()
    raise StructuralError(f"no vanishing factor found for the {name} addition polynomial")


def weierstrass_addition_poly(g2: Fraction, g3: Fraction, backend, *, seed: int = 0) -> MPoly:
    """Addition polynomial G(L1; x1, y1) for the p-function with given invariants.

    Derived by eliminating tx = p'(u), ty = p'(v) from
        4*(x1-y1)^2*(L1 + x1 + y1) = (tx - ty)^2,
        tx^2 = 4*x1^3 - g2*x1 - g3,   ty^2 = 4*y1^3 - g2*y1 - g3.
    """
    scratch = VarRing(("L1", "x1", "y1", "tx", "ty"))
    L1, x1, y1 = scratch.var("L1"), scratch.var("x1"), scratch.var("y1")
    tx, ty = scratch.var("tx"), scratch.var("ty")
    c = 4 * (x1 - y1) ** 2 * (L1 + x1 + y1) - (tx - ty) ** 2
    return _eliminate_tangents(c, g2, g3, "L1", backend, seed=seed, name="p")


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
    return _eliminate_tangents(c, g2, g3, "L2", backend, seed=seed, name="zeta-drift")
