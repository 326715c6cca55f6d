"""Numeric mapping backends: the concrete function families used as oracles.

A backend evaluates a mapping u -> (f_1(u), ..., f_n(u)) together with its
n x n first-derivative matrix, knows its pole set, and advertises special
points where the mapping and its derivative take exact rational values (used
by the exact specialization mode of the elimination engine).

Families: exp(c), the identity/rational map, the Weierstrass family, and the
five two-variable degenerate families (rational components, mixed
exponentials, p with zeta drift, p with a sigma-quotient factor).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .rings import PoleError, StructuralError
from .weierstrass import Lattice

_FAMILIES = (
    "exp",
    "rational",
    "weierstrass",
    "singular2-case1",
    "singular2-case2",
    "singular2-case3",
    "singular2-case4",
    "singular2-case5",
)


@dataclass(frozen=True)
class ExactPoint:
    """A base point v where the mapping and its derivative are exactly rational.

    `v` is the numeric parameter value, `values` the exact mapping values and
    `jac` the exact derivative matrix at v.
    """

    label: str
    v: tuple
    values: tuple
    jac: tuple


class MappingBackend:
    """Numeric evaluator for one concrete family."""

    def __init__(self, family: str, n: int, params: dict):
        self.family = family
        self.n = n
        self.params = dict(params)

    # subclasses implement value / jacobian / is_pole ------------------------

    def value(self, u: Sequence[complex]) -> tuple:
        raise NotImplementedError

    def jacobian(self, u: Sequence[complex]) -> tuple:
        raise NotImplementedError

    def is_pole(self, u: Sequence[complex]) -> bool:
        return False

    def exact_points(self) -> list:
        return []

    def values_at_zero(self):
        """Per-component exact value of f_k(0), or None where 0 is a pole."""
        return [None] * self.n

    def default_box(self) -> float:
        return 1.2

    def period_box(self) -> float:
        return 4.0


class ExpBackend(MappingBackend):
    """f(u) = exp(c*u)."""

    def __init__(self, c=Fraction(1)):
        super().__init__("exp", 1, {"c": c})
        self.c = Fraction(c)

    def value(self, u):
        return (cmath.exp(complex(self.c) * u[0]),)

    def jacobian(self, u):
        return ((complex(self.c) * cmath.exp(complex(self.c) * u[0]),),)

    def exact_points(self):
        one = Fraction(1)
        return [ExactPoint("v=0", (0j,), (one,), ((self.c,),))]

    def values_at_zero(self):
        return [Fraction(1)]

    def period_box(self) -> float:
        return 7.0  # covers 2*pi/|c| for the default rates


class RationalBackend(MappingBackend):
    """The identity map f(u) = u, the archetypal rational (non-periodic) family."""

    def __init__(self):
        super().__init__("rational", 1, {})

    def value(self, u):
        return (u[0],)

    def jacobian(self, u):
        return ((1 + 0j,),)

    def exact_points(self):
        return [ExactPoint("v=0", (0j,), (Fraction(0),), ((Fraction(1),),))]

    def values_at_zero(self):
        return [Fraction(0)]


class WeierstrassBackend(MappingBackend):
    """f(u) = p(u) on the lattice with invariants (g2, g3)."""

    def __init__(self, g2, g3):
        super().__init__("weierstrass", 1, {"g2": Fraction(g2), "g3": Fraction(g3)})
        self.lattice = Lattice(g2, g3)

    def value(self, u):
        return (self.lattice.wp(u[0]),)

    def jacobian(self, u):
        return ((self.lattice.wp_prime(u[0]),),)

    def is_pole(self, u):
        return self.lattice.lattice_distance(u[0]) < 1e-6

    def exact_points(self):
        lat = self.lattice
        out = []
        halves = (lat.omega1, lat.omega2, lat.omega1 + lat.omega2)
        for i, (h, e) in enumerate(zip(halves, lat.exact_e), start=1):
            if e is not None:
                out.append(ExactPoint(f"half-period {i}", (h,), (e,), ((Fraction(0),),)))
        return out

    def values_at_zero(self):
        return [None]  # pole at the origin

    def period_box(self) -> float:
        return 1.25 * max(abs(2 * self.lattice.omega1), abs(2 * self.lattice.omega2))


class Singular2Backend(MappingBackend):
    """The five two-variable degenerate families (n = 2)."""

    def __init__(self, case: int, params: dict):
        super().__init__(f"singular2-case{case}", 2, params)
        self.case = case
        if case in (4, 5):
            self.lattice = Lattice(params["g2"], params["g3"])
        else:
            self.lattice = None
        self.epsilon = int(params.get("epsilon", 1)) if case == 4 else None
        self.a = params.get("a")

    def value(self, u):
        u1, u2 = u
        if self.case == 1:
            return (u1, u2)
        if self.case == 2:
            return (u1, cmath.exp(u2))
        if self.case == 3:
            return (cmath.exp(u1), cmath.exp(u2))
        if self.case == 4:
            p = self.lattice.wp(u1)
            drift = self.lattice.zeta(u1) if self.epsilon else 0j
            return (p, u2 - self.epsilon * drift)
        # case 5: (p(u1), exp(u2) * sigma(u1 - a)/sigma(u1))
        a = complex(self.a)
        s_num = self.lattice.sigma(u1 - a)
        s_den = self.lattice.sigma(u1)
        if abs(s_den) < 1e-280:
            raise PoleError("sigma vanished at u1")
        return (self.lattice.wp(u1), cmath.exp(u2) * s_num / s_den)

    def jacobian(self, u):
        u1, u2 = u
        zero = 0j
        one = 1 + 0j
        if self.case == 1:
            return ((one, zero), (zero, one))
        if self.case == 2:
            return ((one, zero), (zero, cmath.exp(u2)))
        if self.case == 3:
            return ((cmath.exp(u1), zero), (zero, cmath.exp(u2)))
        if self.case == 4:
            pd = self.lattice.wp_prime(u1)
            # d/du1 of (u2 - eps*zeta(u1)) = eps*wp(u1)
            d21 = self.epsilon * self.lattice.wp(u1) if self.epsilon else zero
            return ((pd, zero), (d21, one))
        a = complex(self.a)
        f2 = self.value(u)[1]
        dlog = self.lattice.zeta(u1 - a) - self.lattice.zeta(u1)
        return ((self.lattice.wp_prime(u1), zero), (f2 * dlog, f2))

    def is_pole(self, u):
        if self.lattice is None:
            return False
        if self.lattice.lattice_distance(u[0]) < 1e-6:
            return True
        if self.case == 5:
            a = complex(self.a)
            if self.lattice.lattice_distance(u[0] - a) < 1e-6:
                return True  # zero of f2; its log-derivative blows up nearby
        return False

    def exact_points(self):
        if self.case == 1:
            z, o = Fraction(0), Fraction(1)
            return [ExactPoint("v=0", (0j, 0j), (z, z), ((o, z), (z, o)))]
        if self.case == 2:
            z, o = Fraction(0), Fraction(1)
            return [ExactPoint("v=0", (0j, 0j), (z, o), ((o, z), (z, o)))]
        if self.case == 3:
            z, o = Fraction(0), Fraction(1)
            return [ExactPoint("v=0", (0j, 0j), (o, o), ((o, z), (z, o)))]
        if self.case == 4:
            lat = self.lattice
            out = []
            halves = ((lat.omega1, lat.eta1), (lat.omega2, lat.eta2))
            for i, ((h, eta), e) in enumerate(zip(halves, lat.exact_e[:2]), start=1):
                if e is None:
                    continue
                # v = (omega_i, eps*eta_i) makes f2(v) = 0 exactly
                z, o = Fraction(0), Fraction(1)
                v = (h, self.epsilon * eta + 0j)
                out.append(
                    ExactPoint(
                        f"half-period {i}",
                        v,
                        (e, z),
                        ((z, z), (self.epsilon * e, o)),
                    )
                )
            return out
        return []  # case 5: no rational special points; numeric reconstruction only

    def values_at_zero(self):
        if self.case == 1:
            return [Fraction(0), Fraction(0)]
        if self.case == 2:
            return [Fraction(0), Fraction(1)]
        if self.case == 3:
            return [Fraction(1), Fraction(1)]
        if self.case == 4:
            return [None, None if self.epsilon else Fraction(0)]
        return [None, None]

    def period_box(self) -> float:
        if self.lattice is not None:
            return 1.25 * max(abs(2 * self.lattice.omega1), abs(2 * self.lattice.omega2))
        return 7.0


def make_backend(family: str, params: dict | None = None) -> MappingBackend:
    """Build a backend from a family identifier and rational parameter values."""
    params = dict(params or {})
    if family == "exp":
        return ExpBackend(params.get("c", Fraction(1)))
    if family == "rational":
        return RationalBackend()
    if family == "weierstrass":
        if "g2" not in params or "g3" not in params:
            raise StructuralError("weierstrass family needs params g2 and g3")
        return WeierstrassBackend(params["g2"], params["g3"])
    if family.startswith("singular2-case"):
        try:
            case = int(family.removeprefix("singular2-case"))
        except ValueError:
            case = -1
        if case not in (1, 2, 3, 4, 5):
            raise StructuralError(f"unknown family {family!r}")
        if case in (4, 5):
            if "g2" not in params or "g3" not in params:
                raise StructuralError(f"{family} needs params g2 and g3")
            if case == 4:
                params.setdefault("epsilon", Fraction(1))
                eps = params["epsilon"]
                if eps not in (0, 1, Fraction(0), Fraction(1)):
                    raise StructuralError("epsilon must be 0 or 1")
            if case == 5:
                params.setdefault("a", Fraction(1, 2))
        return Singular2Backend(case, params)
    raise StructuralError(f"unknown family {family!r}; known: {', '.join(_FAMILIES)}")
