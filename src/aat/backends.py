"""Numeric mapping backends: the concrete function families used as oracles.

A backend evaluates a mapping u -> (f_1(u), ..., f_n(u)) together with its
n x n first-derivative matrix, knows its pole set and the period lattice the
period stage must recover, and advertises special points where the mapping
and its derivative take exact rational values (where the elimination engine
specializes first).

There is one evaluator, `value_jacobian(points)`: each family writes its
formula once, in `_map`, over numpy arrays (`np.exp` and
`Lattice.eval_many`), and every caller hands it all the points it needs at
once.  A row on the pole set or with a non-finite entry comes back marked
`bad`.

Families (`FAMILIES` maps each name to its dimension n): exp(c), the
identity/rational map, the Weierstrass family, and the five two-variable
degenerate families (rational components, mixed exponentials, p with zeta
drift, p with a sigma-quotient factor).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .rings import StructuralError
from .weierstrass import Lattice

# points closer than this to a lattice point count as poles
_POLE_RADIUS = 1e-6

FAMILIES = {
    "exp": 1,
    "rational": 1,
    "weierstrass": 1,
    "singular2-case1": 2,
    "singular2-case2": 2,
    "singular2-case3": 2,
    "singular2-case4": 2,
    "singular2-case5": 2,
}


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

    lattice = None

    def __init__(self, family: str, params: dict):
        self.family = family
        self.n = FAMILIES[family]
        self.params = dict(params)

    # subclasses implement _map and, with a lattice, _lattice_args -----------

    def _map(self, u, bad):
        """(values, jacobian rows) at the points whose coordinates are the
        equal-length arrays u; Weierstrass arguments on the pole set mark
        their rows in `bad`."""
        raise NotImplementedError

    def _lattice_args(self, u) -> tuple:
        """Arguments of the Weierstrass functions that must stay off the lattice."""
        return ()

    def _weierstrass(self, w, bad):
        """(p, p', zeta, sigma) at the array w, reduced once; the pole test
        reads the same reduction the evaluation runs on."""
        reduced = self.lattice.reduce_many(w)
        bad |= np.abs(reduced[0]) < _POLE_RADIUS
        return self.lattice.eval_many(w, reduced)

    def pole_distance(self, points):
        """Per row of `points`, the distance of the nearest Weierstrass
        argument from the lattice (inf without one)."""
        pts = np.asarray(points, dtype=complex).reshape(-1, self.n)
        dist = np.full(len(pts), np.inf)
        for w in self._lattice_args(tuple(pts.T)):
            dist = np.minimum(dist, np.abs(self.lattice.reduce_many(w)[0]))
        return dist

    def value_jacobian(self, points):
        """(values[N, n], jac[N, n, n], bad[N]) at the rows of `points`.

        `bad` marks the rows whose `pole_distance` is below _POLE_RADIUS and
        those with a non-finite entry (an evaluation that overflows).
        """
        pts = np.asarray(points, dtype=complex).reshape(-1, self.n)
        shape = (len(pts),)
        bad = np.zeros(shape, dtype=bool)
        with np.errstate(all="ignore"):
            vals, jac = self._map(tuple(pts.T), bad)
        values = np.stack([np.broadcast_to(v, shape) for v in vals], axis=-1)
        jac = np.stack([np.stack([np.broadcast_to(e, shape) for e in row], axis=-1) for row in jac], axis=-2)
        bad |= ~(np.isfinite(values).all(axis=1) & np.isfinite(jac).all(axis=(1, 2)))
        return values, jac, bad

    def exact_points(self) -> list:
        return []

    def expected_periods(self):
        """The vectors the detected periods must generate up to integer
        combinations: [] for a mapping without periods, None when the family
        states no period lattice to check."""
        return None

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
        super().__init__("exp", {"c": c})
        self.c = Fraction(c)

    def _map(self, u, bad):
        c = complex(self.c)
        e = np.exp(c * u[0])
        return (e,), ((c * e,),)

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
        super().__init__("rational", {})

    def _map(self, u, bad):
        return (u[0],), ((1 + 0j,),)

    def exact_points(self):
        return [ExactPoint("v=0", (0j,), (Fraction(0),), ((Fraction(1),),))]

    def expected_periods(self):
        return []

    def values_at_zero(self):
        return [Fraction(0)]


class WeierstrassBackend(MappingBackend):
    """f(u) = p(u) on the lattice with invariants (g2, g3)."""

    def __init__(self, g2, g3):
        super().__init__("weierstrass", {"g2": Fraction(g2), "g3": Fraction(g3)})
        self.lattice = Lattice(g2, g3)

    def _map(self, u, bad):
        p, q, _, _ = self._weierstrass(u[0], bad)
        return (p,), ((q,),)

    def _lattice_args(self, u):
        return (u[0],)

    def exact_points(self):
        lat = self.lattice
        out = []
        halves = (lat.omega1, lat.omega2, lat.omega1 + lat.omega2)
        for i, (h, e) in enumerate(zip(halves, lat.exact_e), start=1):
            if e is not None:
                out.append(ExactPoint(f"half-period {i}", (h,), (e,), ((Fraction(0),),)))
        return out

    def expected_periods(self):
        lat = self.lattice
        return [(2 * lat.omega1,), (2 * lat.omega2,)]

    def values_at_zero(self):
        return [None]  # pole at the origin

    def period_box(self) -> float:
        return 1.25 * max(abs(2 * self.lattice.omega1), abs(2 * self.lattice.omega2))


class Singular2Backend(MappingBackend):
    """The five two-variable degenerate families (n = 2)."""

    def __init__(self, case: int, params: dict):
        super().__init__(f"singular2-case{case}", params)
        self.case = case
        if case in (4, 5):
            self.lattice = Lattice(params["g2"], params["g3"])
        else:
            self.lattice = None
        self.epsilon = int(params.get("epsilon", 1)) if case == 4 else None
        self.a = params.get("a")

    def _map(self, u, bad):
        u1, u2 = u
        zero = 0j
        one = 1 + 0j
        if self.case == 1:
            return (u1, u2), ((one, zero), (zero, one))
        if self.case == 2:
            e2 = np.exp(u2)
            return (u1, e2), ((one, zero), (zero, e2))
        if self.case == 3:
            e1, e2 = np.exp(u1), np.exp(u2)
            return (e1, e2), ((e1, zero), (zero, e2))
        p, q, zt, s_den = self._weierstrass(u1, bad)
        if self.case == 4:
            drift = zt if self.epsilon else zero
            # d/du1 of (u2 - eps*zeta(u1)) = eps*wp(u1)
            d21 = self.epsilon * p if self.epsilon else zero
            return (p, u2 - self.epsilon * drift), ((q, zero), (d21, one))
        # case 5: (p(u1), exp(u2) * sigma(u1 - a)/sigma(u1)); f2 has log-derivative
        # zeta(u1 - a) - zeta(u1) in u1
        _, _, zt_a, s_num = self._weierstrass(u1 - complex(self.a), bad)
        f2 = np.exp(u2) * s_num / s_den
        return (p, f2), ((q, zero), (f2 * (zt_a - zt), f2))

    def _lattice_args(self, u):
        if self.case == 4:
            return (u[0],)
        if self.case == 5:
            # u1 - a: a zero of f2, where its log-derivative blows up
            return (u[0], u[0] - complex(self.a))
        return ()

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

    def expected_periods(self):
        if self.case == 1:
            return []
        if self.case == 4:
            # shifting u1 by 2*omega_i moves eps*zeta(u1) by 2*eps*eta_i; u2 follows
            lat = self.lattice
            drift = (2 * lat.eta1, 2 * lat.eta2) if self.epsilon else (0j, 0j)
            return [(2 * lat.omega1, drift[0]), (2 * lat.omega2, drift[1])]
        return None  # exp components (cases 2, 3) and case 5 state no lattice to check

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
    raise StructuralError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
