"""Numeric mapping backends: the concrete function families used as oracles.

A backend evaluates a mapping u -> (f_1(u), ..., f_n(u)) together with its
n x n first-derivative matrix, knows its pole set, its exponential rate and
the period lattice the period stage must recover, lists the exact points
where the elimination engine specializes (values of the mapping and its
derivative in Q(sqrt(d)) for a rational d, without the parameter v itself),
and builds the addition polynomials of `G = auto`.

There is one evaluator, `value_jacobian(points)`: each family writes its
formula once, in `_map`, over numpy arrays (`np.exp` and
`Lattice.eval_many`), and every caller hands it all the points it needs at
once.  A row on the pole set or with a non-finite entry comes back marked
`bad`.

Families (`FAMILIES` maps each name to its dimension n): exp(c), rational
(the identity map) and singular2-case1..3 are one table-driven
`ElementaryBackend`; weierstrass (p), singular2-case4 (p with zeta drift)
and singular2-case5 (p with a sigma-quotient factor) share a `LatticeBackend`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .generate import weierstrass_addition_poly, zeta_drift_addition_poly
from .parsing import parse_poly
from .rings import StructuralError, rename
from .weierstrass import Lattice

# points closer than this to a lattice point count as poles
_POLE_RADIUS = 1e-6

# p(v1) of the lattice families' exact points after the curve's rational roots
_CURVE_Y = tuple(Fraction(y) for y in (0, 1, -1, 2, -2, Fraction(1, 2), 3, -3))

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
    """The exact mapping values and derivative matrix at some base point v.

    Every entry is rational except a `None` entry of `jac`, which stands for
    sqrt(root); `root` is None when there is no such entry.  A point with a
    root stands for both of its conjugates, which are both values at some v.
    `curve` is the (k, p) of the entry p'(v1) = +-sqrt(d) of a curve point:
    the entry of sqrt(root), or 0 at a root of the curve.
    """

    label: str
    values: tuple
    jac: tuple
    root: Fraction | None = None
    curve: tuple | None = None


class MappingBackend:
    """Numeric evaluator for one concrete family."""

    growth = 0.0  # the rate |c| of exponential components exp(c*u_k), 0 without one

    def __init__(self, family: str):
        self.family = family
        self.n = FAMILIES[family]
        self.banks = {}  # (label, seed, box) -> the sampling.DrawBank of that stream

    def _map(self, u, bad):
        """(values, jacobian rows) at the points whose coordinates are the
        equal-length arrays u; Weierstrass arguments on the pole set mark
        their rows in `bad`."""
        raise NotImplementedError

    def pole_distance(self, points):
        """Per row of `points`, the distance of the nearest pole (inf without one)."""
        return np.full(len(np.asarray(points, dtype=complex).reshape(-1, self.n)), np.inf)

    def value_jacobian(self, points):
        """(values[N, n], jac[N, n, n], bad[N]) at the rows of `points`.

        `bad` marks the rows whose `pole_distance` is below _POLE_RADIUS and
        those with a non-finite entry (an evaluation that overflows).
        """
        pts = np.asarray(points, dtype=complex).reshape(-1, self.n)
        bad = np.zeros(len(pts), dtype=bool)
        with np.errstate(all="ignore"):
            vals, rows = self._map(tuple(pts.T), bad)
        # an entry is an array over the rows or one scalar for all of them
        values = np.empty((len(pts), self.n), dtype=complex)
        jac = np.empty((len(pts), self.n, self.n), dtype=complex)
        for k, (value, row) in enumerate(zip(vals, rows)):
            values[:, k] = value
            for p, entry in enumerate(row):
                jac[:, k, p] = entry
        bad |= ~(np.isfinite(values).all(axis=1) & np.isfinite(jac).all(axis=(1, 2)))
        return values, jac, bad

    def addition_polys(self, ring, *, seed: int = 0) -> list:
        """The family's addition polynomials G_1..G_n in `ring` (`G = auto`)."""
        raise StructuralError(f"no automatic addition polynomials for family {self.family!r} with n={self.n}")

    def exact_points(self) -> list:
        return []

    def expected_periods(self) -> list:
        """The vectors the detected periods must generate up to integer
        combinations, [] for a mapping without periods."""
        raise NotImplementedError

    def values_at_zero(self):
        """Per-component exact value of f_k(0), or None where 0 is a pole."""
        return [None] * self.n


# family -> kind of each component, and each kind's addition polynomial.  An
# "add" component is f = u; an "exp" component is exp(c*u), with c the
# parameter c of the exp family (default 1), else 1.
_LAWS = {"add": "L{k} - x{k} - y{k}", "exp": "L{k} - x{k}*y{k}"}
_ELEMENTARY = {
    "exp": ("exp",),
    "rational": ("add",),
    "singular2-case1": ("add", "add"),
    "singular2-case2": ("add", "exp"),
    "singular2-case3": ("exp", "exp"),
}


class ElementaryBackend(MappingBackend):
    """A mapping whose every component is additive or exponential in its own
    variable: exp(c), the identity map and singular2 cases 1-3."""

    def __init__(self, family: str, params: dict):
        super().__init__(family)
        self.kinds = _ELEMENTARY[family]
        self.c = Fraction(params.get("c", 1)) if family == "exp" else Fraction(1)
        if self.c == 0:
            raise StructuralError("exp needs c != 0; c = 0 is the constant map")
        self.growth = abs(float(self.c)) if "exp" in self.kinds else 0.0

    def _map(self, u, bad):
        c = complex(self.c)
        values = [np.exp(c * uk) if kind == "exp" else uk for kind, uk in zip(self.kinds, u)]
        slopes = [c * f if kind == "exp" else 1 + 0j for kind, f in zip(self.kinds, values)]
        return values, self._diagonal(slopes, 0j)

    def _diagonal(self, entries, zero):
        return tuple(tuple(e if p == k else zero for p in range(self.n)) for k, e in enumerate(entries))

    def addition_polys(self, ring, *, seed: int = 0) -> list:
        return [parse_poly(_LAWS[kind].format(k=k), ring) for k, kind in enumerate(self.kinds, start=1)]

    def exact_points(self):
        slopes = [self.c if kind == "exp" else Fraction(1) for kind in self.kinds]
        values = tuple(self.values_at_zero())
        return [ExactPoint("v=0", values, self._diagonal(slopes, Fraction(0)))]

    def expected_periods(self):
        # exp(c*u_k) repeats under u_k -> u_k + 2*pi*i/c; additive components never repeat
        step = 2j * math.pi / float(self.c)
        return [
            tuple(step if m == k else 0j for m in range(self.n))
            for k, kind in enumerate(self.kinds) if kind == "exp"
        ]

    def values_at_zero(self):
        return [Fraction(1) if kind == "exp" else Fraction(0) for kind in self.kinds]

    def period_box(self) -> float:
        # the Newton seeds reach past the longest period; 7.0 is the least box
        periods = self.expected_periods()
        if not periods:
            return 4.0
        return max(7.0, 1.1 * max(abs(c) for p in periods for c in p))


class LatticeBackend(MappingBackend):
    """A family built on the Weierstrass functions of the lattice with exact
    invariants g2, g3 (the parameters of the same names)."""

    def __init__(self, family: str, params: dict):
        super().__init__(family)
        if "g2" not in params or "g3" not in params:
            raise StructuralError(f"{family} needs params g2 and g3")
        self.g2, self.g3 = Fraction(params["g2"]), Fraction(params["g3"])
        self.lattice = Lattice(self.g2, self.g3)

    def _lattice_args(self, u) -> tuple:
        """Arguments of the Weierstrass functions that must stay off the lattice."""
        return (u[0],)

    def _weierstrass(self, w, bad, count=4):
        """The first `count` of (p, p', zeta, sigma) at the array w, reduced
        once; the pole test reads the same reduction the evaluation runs on."""
        reduced = self.lattice.reduce_many(w)
        bad |= np.abs(reduced[0]) < _POLE_RADIUS
        if count < 4:
            return self.lattice.eval_many(w, reduced, count)
        return self.lattice.eval_many(w, reduced)  # all four: eval_many's default

    def pole_distance(self, points):
        """Per row of `points`, the nearest Weierstrass argument's distance from the lattice."""
        pts = np.asarray(points, dtype=complex).reshape(-1, self.n)
        dist = np.full(len(pts), np.inf)
        for w in self._lattice_args(tuple(pts.T)):
            dist = np.minimum(dist, np.abs(self.lattice.reduce_many(w)[0]))
        return dist

    def period_box(self) -> float:
        return 1.25 * max(abs(2 * self.lattice.omega1), abs(2 * self.lattice.omega2))

    def _weierstrass_poly(self, ring, seed):
        """G_1 of the p component, in `ring`."""
        return rename(weierstrass_addition_poly(self.g2, self.g3, self, seed=seed), {}, ring)

    def _slots(self, y0: Fraction, w: Fraction | None) -> tuple:
        """(values, jac) at a v with p(v1) = y0 and p'(v1) = w."""
        raise NotImplementedError

    def exact_points(self):
        """Curve points: p(v1) = y0 rational, so p'(v1) = +-sqrt(d) with
        d = 4*y0^3 - g2*y0 - g3 rational.  The curve's exact roots come first
        (d = 0: the half-periods), then the values of _CURVE_Y with d != 0."""
        def rhs(y0):
            return 4 * y0**3 - self.g2 * y0 - self.g3

        roots = [e for e in self.lattice.exact_e if e is not None]
        out = []
        for y0 in roots + [y for y in _CURVE_Y if rhs(y)]:
            d = rhs(y0)
            values, jac = self._slots(y0, None if d else Fraction(0))
            label = f"y1 = {y0}, w1_1 = {f'sqrt({d})' if d else 0}"
            out.append(ExactPoint(label, values, jac, d or None, curve=(1, 1)))
        return out


class WeierstrassBackend(LatticeBackend):
    """f(u) = p(u)."""

    def _map(self, u, bad):
        p, q = self._weierstrass(u[0], bad, 2)
        return (p,), ((q,),)

    def addition_polys(self, ring, *, seed: int = 0) -> list:
        return [self._weierstrass_poly(ring, seed)]

    def _slots(self, y0, w):
        return (y0,), ((w,),)

    def expected_periods(self):
        lat = self.lattice
        return [(2 * lat.omega1,), (2 * lat.omega2,)]


class ZetaDriftBackend(LatticeBackend):
    """singular2-case4: (p(u1), u2 - eps*zeta(u1)), eps = param epsilon (0 or 1, default 1)."""

    def __init__(self, family: str, params: dict):
        epsilon = params.get("epsilon", 1)
        if epsilon not in (0, 1):
            raise StructuralError("epsilon must be 0 or 1")
        super().__init__(family, params)
        self.epsilon = int(epsilon)

    def _map(self, u, bad):
        u1, u2 = u
        zero = 0j
        p, q, zt = self._weierstrass(u1, bad, 3)
        drift = zt if self.epsilon else zero
        # d/du1 of (u2 - eps*zeta(u1)) = eps*wp(u1)
        d21 = self.epsilon * p if self.epsilon else zero
        return (p, u2 - self.epsilon * drift), ((q, zero), (d21, 1 + 0j))

    def addition_polys(self, ring, *, seed: int = 0) -> list:
        g1 = self._weierstrass_poly(ring, seed)
        if not self.epsilon:
            return [g1, parse_poly(_LAWS["add"].format(k=2), ring)]
        return [g1, rename(zeta_drift_addition_poly(self.g2, self.g3, self, seed=seed), {}, ring)]

    def _slots(self, y0, w):
        # v2 = eps*zeta(v1) makes f2(v) = 0
        z = Fraction(0)
        return (y0, z), ((w, z), (self.epsilon * y0, Fraction(1)))

    def expected_periods(self):
        # shifting u1 by 2*omega_i moves eps*zeta(u1) by 2*eps*eta_i; u2 follows
        lat = self.lattice
        drift = (2 * lat.eta1, 2 * lat.eta2) if self.epsilon else (0j, 0j)
        return [(2 * lat.omega1, drift[0]), (2 * lat.omega2, drift[1])]

    def values_at_zero(self):
        return [None, None if self.epsilon else Fraction(0)]


class SigmaQuotientBackend(LatticeBackend):
    """singular2-case5: (p(u1), exp(u2) * sigma(u1 - a)/sigma(u1)), a = param
    a (default 1/2); no closed G and no exact points."""

    def __init__(self, family: str, params: dict):
        super().__init__(family, params)
        self.a = Fraction(params.get("a", Fraction(1, 2)))

    def exact_points(self):
        return []

    def _map(self, u, bad):
        u1, u2 = u
        p, q, zt, s_den = self._weierstrass(u1, bad)
        # f2 has log-derivative zeta(u1 - a) - zeta(u1) in u1
        _, _, zt_a, s_num = self._weierstrass(u1 - complex(self.a), bad)
        f2 = np.exp(u2) * s_num / s_den
        return (p, f2), ((q, 0j), (f2 * (zt_a - zt), f2))

    def _lattice_args(self, u):
        # u1 - a: a zero of f2, where its log-derivative blows up
        return (u[0], u[0] - complex(self.a))

    def expected_periods(self):
        # sigma(u + 2*omega_i) = -exp(2*eta_i*(u + omega_i)) * sigma(u), so
        # shifting u1 by 2*omega_i scales the sigma quotient by exp(-2*eta_i*a),
        # which u2 -> u2 + 2*eta_i*a undoes; exp(u2) repeats under 2*pi*i
        lat, a = self.lattice, float(self.a)
        return [(2 * lat.omega1, 2 * lat.eta1 * a), (2 * lat.omega2, 2 * lat.eta2 * a), (0j, 2j * math.pi)]


_LATTICE_BACKENDS = {
    "weierstrass": WeierstrassBackend,
    "singular2-case4": ZetaDriftBackend,
    "singular2-case5": SigmaQuotientBackend,
}


def make_backend(family: str, params: dict | None = None) -> MappingBackend:
    """Build a backend from a family identifier and rational parameter values."""
    cls = ElementaryBackend if family in _ELEMENTARY else _LATTICE_BACKENDS.get(family)
    if cls is None:
        raise StructuralError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    return cls(family, params or {})
