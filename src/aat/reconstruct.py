"""Rational recovery from floating-point values via continued fractions."""

from __future__ import annotations

from fractions import Fraction


def rational_reconstruct(x: float, max_den: int = 10**6, tol: float = 1e-9):
    """Nearest small-denominator rational, or None.

    Walks the continued-fraction convergents of x and returns the first one
    within tol*(1+|x|) whose denominator stays under max_den.  Used to lift
    numerically computed coefficients back into exact arithmetic; callers must
    re-verify exactly.
    """
    if x != x or x in (float("inf"), float("-inf")):
        return None
    target = Fraction(x).limit_denominator(max_den)
    if abs(float(target) - x) <= tol * (1 + abs(x)):
        return target
    return None

