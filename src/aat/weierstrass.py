"""Numeric Weierstrass functions: p, p', zeta, sigma over a lattice.

Everything is computed from the invariants (g2, g3) alone: the half-periods
come from cubic roots plus AGM complete integrals, and function values come
from the Laurent series after argument reduction into the fundamental cell,
with argument halving and exact duplication formulas when the reduced point
sits too close to the cell boundary.  No theta functions anywhere.

There is one evaluator, `Lattice.eval_many`, and it works on numpy arrays:
`reduce_many` moves every point into the fundamental cell, the series of p,
p', zeta and log(sigma/u) are four coefficient rows per lattice summed by
one Horner kernel in u^2, the duplication steps run masked by each point's
halving count, and `_unreduce` applies the quasi-periodic shifts of zeta and
sigma.  A caller asks for the leading functions it reads (p and p' always,
then zeta, then sigma), and only those are summed, doubled and shifted.  The
number of terms comes from a tail bound, not from watching the terms: with
c_k = (2k-1) G_{2k} and |G_{2k}| <= rho^(4-2k) * sum'|w|^-4 (DLMF 23.9, rho
the shortest period), the tail after K terms is geometric in (|u|/rho)^2, so
K follows from the largest reduced |u| of the batch.  A lattice point comes
back as nan, never as an exception.

Correctness is asserted through the lattice invariants (p(omega_i) = e_i, the
zeta/sigma quasi-periodicity shifts), never through hard-coded constants.
"""

from __future__ import annotations

import cmath
from bisect import bisect_left
from fractions import Fraction

import numpy as np

from .reconstruct import rational_reconstruct
from .rings import DomainError

# the covering radius of a reduced argument stays below ~0.71 of the shortest
# period, where the Laurent series still converges cleanly; keeping the
# halving threshold above that avoids duplication steps (and their noise)
# for every reduced point
_HALVING_RATIO = 0.75
_MAX_HALVINGS = 48
# bound on the series tail relative to the leading term (p', the worst case)
_TAIL_EPS = 1e-17
# lattice points with max(|m|, |n|) <= _SUM_BOX enter sum'|w|^-4 one by one;
# the rest are covered by an integral bound
_SUM_BOX = 30
# the nine cells next to the rounded one, in the order `Lattice.reduce_many` tries them
_NEAR_M = np.repeat([-1.0, 0.0, 1.0], 3)
_NEAR_N = np.tile([-1.0, 0.0, 1.0], 3)


def agm(a: complex, b: complex, tol: float = 1e-16) -> complex:
    """Arithmetic-geometric mean with the right-half-plane square root choice."""
    a, b = complex(a), complex(b)
    for _ in range(200):
        if abs(a - b) <= tol * max(abs(a), 1e-30):
            break
        a, b = (a + b) / 2, cmath.sqrt(a * b)
        # pick the root closer to the arithmetic mean (|a-b| <= |a+b|)
        if abs(a - b) > abs(a + b):
            b = -b
    return (a + b) / 2


def _cubic_roots(g2: complex, g3: complex):
    roots = np.roots([4.0, 0.0, -complex(g2), -complex(g3)])
    roots = sorted(roots, key=lambda r: (-r.real, -r.imag))
    return [complex(r) for r in roots]


def _horner(coeffs, z):
    """sum_j coeffs[j] * z^(len - 1 - j), highest power first, in one buffer."""
    acc = np.zeros(np.broadcast_shapes(coeffs.shape[1:], z.shape), dtype=complex)
    for c in coeffs:
        acc *= z
        acc += c
    return acc


def _laurent(u, z, sums):
    """The first len(sums) of (p, p', zeta, sigma) at u from their Horner sums
    at z = u^2 (sigma's sum is that of log(sigma/u))."""
    out = [1.0 / z + z * sums[0], -2.0 / (z * u) + u * sums[1]]
    if len(sums) > 2:
        out.append(1.0 / u + u * z * sums[2])
    if len(sums) > 3:
        out.append(u * np.exp(z * z * sums[3]))
    return out


def _duplicate(fs, g2):
    """The same leading entries of (p, p', zeta, sigma) at 2u from their
    values at u; needs p'(u) != 0."""
    p, q = fs[:2]
    r = 6 * p * p - g2 / 2
    s3 = 12 * p * q
    out = [-2 * p + (r / (2 * q)) ** 2, -q + r * (s3 * q - r * r) / (4 * q**3)]
    if len(fs) > 2:
        out.append(2 * fs[2] + r / (2 * q))
    if len(fs) > 3:
        out.append(-(fs[3] ** 4) * q)
    return out


def _term_radii(tail_scale: float, rho: float) -> tuple:
    """radii[j]: the largest |u| at which the coefficients c_2..c_{j+2} suffice.

    The tail after c_K of p' relative to its leading term is at most
    tail_scale * sum_{k>K} (k-1)(2k-1) x^k with x = (|u|/rho)^2, bounded by its
    first term over 1 - (ratio of the first two terms).  The list ends at the
    first K that reaches the halving radius.
    """
    big_k = np.arange(2, 400, dtype=float)
    first = big_k * (2 * big_k + 1)  # (k-1)(2k-1) at k = K+1
    growth = (big_k + 1) * (2 * big_k + 3) / first
    budget = np.log(_TAIL_EPS) - np.log(tail_scale * first)
    lo = np.zeros_like(big_k)
    hi = np.ones_like(big_k)
    with np.errstate(invalid="ignore"):
        for _ in range(40):  # bisection on x, to 1e-12
            x = (lo + hi) / 2
            ratio = x * growth
            fits = (ratio < 1) & ((big_k + 1) * np.log(x) - np.log1p(-ratio) <= budget)
            lo = np.where(fits, x, lo)
            hi = np.where(fits, hi, x)
    radii = rho * np.sqrt(np.maximum.accumulate(lo))
    count = int(np.searchsorted(radii, _HALVING_RATIO * rho)) + 1
    return tuple(float(r) for r in radii[:count])


class Lattice:
    """Half-periods, quasi-period constants and e-values for given invariants.

    omega1, omega2 generate the period lattice {2m*omega1 + 2n*omega2} with
    Im(omega2/omega1) > 0.  e_roots is ordered so that p(omega1) = e_roots[0],
    p(omega2) = e_roots[1], p(omega1+omega2) = e_roots[2]; exact_e carries the
    entries that are exactly rational (used for exact specialization points),
    each checked against the exact invariants g2, g3 (Fractions).
    """

    __slots__ = (
        "g2",
        "g3",
        "omega1",
        "omega2",
        "eta1",
        "eta2",
        "e_roots",
        "exact_e",
        "_rho",
        "_radii",
        "_rows",
    )

    def __init__(self, g2, g3):
        self.g2 = Fraction(g2)
        self.g3 = Fraction(g3)
        if self.g2**3 == 27 * self.g3**2:
            raise DomainError(f"degenerate lattice: g2^3 = 27*g3^2 at g2 = {self.g2}, g3 = {self.g3}")
        g2, g3 = complex(g2), complex(g3)
        try:
            disc = g2**3 - 27 * g3**2
        except OverflowError as err:
            raise DomainError(
                f"invariants too large for float evaluation: g2 = {g2.real:g}, g3 = {g3.real:g}"
            ) from err
        # relative, so a scaled copy of a lattice (invariants c^-4 g2, c^-6 g3,
        # DLMF 23.10(iv)) passes or fails with it
        if abs(disc) < 1e-12 * max(abs(g2) ** 3, abs(g3) ** 2):
            raise DomainError(f"near-degenerate lattice: g2^3 - 27*g3^2 = {disc}")
        e1, e2, e3 = _cubic_roots(g2, g3)
        s13 = cmath.sqrt(e1 - e3)
        kp2 = (e1 - e2) / (e1 - e3)  # complementary modulus squared
        k2 = (e2 - e3) / (e1 - e3)
        omega1 = cmath.pi / (2 * agm(1.0, cmath.sqrt(kp2)) * s13)
        omega2 = 1j * cmath.pi / (2 * agm(1.0, cmath.sqrt(k2)) * s13)
        if (omega2 / omega1).imag < 0:
            omega2 = -omega2
        self.omega1 = omega1
        self.omega2 = omega2
        self._init_series()
        # the half-periods are their own reductions (`reduce_many` could send
        # omega1 to -omega1 on a tie, and zeta is odd), so the zero shift
        # leaves them unshifted before eta1, eta2 are known
        self.eta1 = self.eta2 = 0j
        halves = np.array([omega1, omega2, omega1 + omega2])
        none = np.zeros(3, dtype=np.int64)
        p, _, zt = (f.tolist() for f in self.eval_many(halves, (halves, none, none), 3))
        self.eta1, self.eta2 = zt[:2]
        roots = (e1, e2, e3)
        self.e_roots = tuple(min(roots, key=lambda r: abs(r - val)) for val in p)
        self.exact_e = tuple(self._exact_root(e) for e in self.e_roots)

    def _init_series(self):
        """rho, the term-count radii and the coefficient rows of the four series."""
        w1, w2 = 2 * self.omega1, 2 * self.omega2
        box = np.arange(-_SUM_BOX, _SUM_BOX + 1)
        m, n = np.meshgrid(box, box)
        periods = np.abs((m * w1 + n * w2).ravel())
        periods = periods[(m != 0).ravel() | (n != 0).ravel()]
        self._rho = float(periods.min())
        # |m*w1 + n*w2| >= s_min * max(|m|, |n|) bounds the points outside the box
        s_min = np.linalg.svd([[w1.real, w2.real], [w1.imag, w2.imag]], compute_uv=False)[-1]
        inv4 = float(np.sum(periods**-4.0)) + 4.0 / (_SUM_BOX**2 * s_min**4)
        self._radii = _term_radii(inv4 * self._rho**4, self._rho)
        top = len(self._radii) + 1
        c = np.zeros(max(top, 3) + 1, dtype=complex)
        c[2], c[3] = complex(self.g2) / 20.0, complex(self.g3) / 28.0
        for k in range(4, top + 1):
            c[k] = 3.0 * np.dot(c[2 : k - 1], c[k - 2 : 1 : -1]) / ((2 * k + 1) * (k - 3))
        c = c.tolist()
        ks = range(top, 1, -1)
        rows = (
            [c[k] for k in ks],
            [(2 * k - 2) * c[k] for k in ks],
            [-c[k] / (2 * k - 1) for k in ks],
            [-c[k] / ((2 * k - 1) * (2 * k)) for k in ks],
        )
        self._rows = np.array(rows).T[:, :, None]

    def _exact_root(self, e: complex):
        if abs(e.imag) > 1e-9:
            return None
        cand = rational_reconstruct(e.real, max_den=10**4, tol=1e-8)
        if cand is not None and 4 * cand**3 - self.g2 * cand - self.g3 == 0:
            return cand
        return None

    def _unreduce(self, fs, u0, m, n):
        """fs with zeta and sigma, where present, moved from u0 to
        u0 + 2m*omega1 + 2n*omega2 by their quasi-periodic shifts."""
        if len(fs) < 3:
            return fs
        eta_p = 2 * m * self.eta1 + 2 * n * self.eta2
        out = [fs[0], fs[1], fs[2] + eta_p]
        if len(fs) > 3:
            period = 2 * m * self.omega1 + 2 * n * self.omega2
            sign = 1 - 2 * ((m + n + m * n) % 2)
            out.append(sign * np.exp(eta_p * (u0 + period / 2)) * fs[3])
        return out

    def reduce_many(self, us):
        """(u0, m, n) arrays with u = u0 + 2m*omega1 + 2n*omega2 and |u0| minimal.

        Of the nine cells around the rounded one, the first in `_NEAR_M`,
        `_NEAR_N` order wins a tie.
        """
        u = np.asarray(us, dtype=complex)[..., None]
        w1, w2 = 2 * self.omega1, 2 * self.omega2
        det = w1.real * w2.imag - w1.imag * w2.real
        m = np.round((u.real * w2.imag - u.imag * w2.real) / det) + _NEAR_M
        n = np.round((w1.real * u.imag - w1.imag * u.real) / det) + _NEAR_N
        cands = u - m * w1 - n * w2
        pick = np.argmin(np.abs(cands), axis=-1)[..., None]
        u0, m, n = (np.take_along_axis(a, pick, axis=-1)[..., 0] for a in (cands, m, n))
        return u0, m.astype(np.int64), n.astype(np.int64)

    def eval_many(self, us, reduced=None, count=4):
        """The first `count` (2 to 4) of (p, p', zeta, sigma) at every point of
        `us`, as complex arrays; only those are summed and shifted.

        At a lattice point, or where a duplication step meets a critical
        point, all entries are nan; far from the origin sigma may overflow to
        inf.  The term count is the one the largest reduced point needs.  A
        caller that already holds `reduce_many(us)` passes it as `reduced`.
        """
        u0, m, n = self.reduce_many(us) if reduced is None else reduced
        pole = np.abs(u0) < 1e-12
        v = np.where(pole, self.omega1, u0)  # a finite stand-in; pole rows end as nan
        halvings = np.zeros(v.shape, dtype=np.int64)
        for _ in range(_MAX_HALVINGS):
            far = np.abs(v) > _HALVING_RATIO * self._rho
            if not far.any():
                break
            v = np.where(far, v / 2, v)
            halvings += far
        z = v * v
        terms = bisect_left(self._radii, float(np.abs(v).max(initial=0.0))) + 1
        with np.errstate(all="ignore"):
            fs = _laurent(v, z, _horner(self._rows[-terms:, :count], z.ravel()).reshape((count,) + z.shape))
            for step in range(int(halvings.max(initial=0))):
                live = halvings > step
                pole |= live & (np.abs(fs[1]) < 1e-280)
                doubled = _duplicate(fs, complex(self.g2))
                fs = [np.where(live, new, old) for new, old in zip(doubled, fs)]
            fs = self._unreduce(fs, u0, m, n)
            return tuple(np.where(pole, np.nan, f) for f in fs)
