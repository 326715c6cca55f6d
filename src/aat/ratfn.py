"""Rational functions: quotients of MPoly."""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from . import euclid
from .rings import DomainError, MPoly, PoleError, VarRing, _check_same_ring

POLE_FLOOR = 1e-300  # numeric denominators below this magnitude signal a pole


class RatFn:
    """Quotient of two polynomials, kept normalized.

    Invariants: the denominator is not identically zero, gcd(num, den) = 1,
    and the denominator's canonical leading coefficient is 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly | None = None):
        if den is None:
            den = num.ring.one()
        _check_same_ring(num, den)
        if den.is_zero():
            raise DomainError("rational function with zero denominator")
        if num.is_zero():
            den = num.ring.one()
        else:
            g = euclid.gcd(num, den)
            if not g.is_constant():
                num = euclid.exact_div(num, g)
                den = euclid.exact_div(den, g)
            _, lead = den.leading()
            if lead != 1:
                num = num.scale(Fraction(1, lead))
                den = den.scale(Fraction(1, lead))
        self.num = num
        self.den = den

    @property
    def ring(self) -> VarRing:
        return self.num.ring

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den.is_constant()

    def as_poly(self) -> MPoly:
        if not self.is_poly():
            raise DomainError(f"not a polynomial: {self}")
        return self.num.scale(Fraction(1, self.den.constant_value()))

    def _coerce(self, other) -> "RatFn":
        if isinstance(other, RatFn):
            return other
        if isinstance(other, MPoly):
            return RatFn(other)
        if isinstance(other, (int, Fraction)):
            return RatFn(self.ring.const(other))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        return RatFn(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        other = self._coerce(other)
        return RatFn(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        other = self._coerce(other)
        return RatFn(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.num.is_zero():
            raise DomainError("division by the zero rational function")
        return RatFn(self.num * other.den, self.den * other.num)

    def __neg__(self):
        return RatFn(-self.num, self.den)

    __radd__ = __add__
    __rmul__ = __mul__

    def diff(self, name: str) -> "RatFn":
        """Formal partial derivative (quotient rule)."""
        return RatFn(
            self.num.diff(name) * self.den - self.num * self.den.diff(name),
            self.den * self.den,
        )

    def eval_numeric(self, values: Mapping[str, complex]) -> complex:
        den = self.den.eval_numeric(values)
        if abs(den) < POLE_FLOOR:
            raise PoleError(f"denominator vanished numerically: {self.den}")
        return self.num.eval_numeric(values) / den

    def __str__(self) -> str:
        if self.is_poly():
            return str(self.as_poly())
        num = str(self.num)
        den = str(self.den)
        num_s = num if _is_atomic(num) else f"({num})"
        den_s = den if _is_atomic(den) else f"({den})"
        return f"{num_s}/{den_s}"

    def __repr__(self) -> str:
        return f"RatFn({self})"


def _is_atomic(text: str) -> bool:
    return not any(op in text for op in (" + ", " - ")) and not text.startswith("-")
