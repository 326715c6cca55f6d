"""Higher derivatives through the first-order relations.

Each relation P(z0; x1..xn) = 0 with z0 = df_k/du_p differentiates to

    d2f_k/du_p du_q = -(P_1 * df_1/du_q + ... + P_n * df_n/du_q) / P_0,

with P_i the partial of P by its i-th slot, everything evaluated from the
backend.  One more formal differentiation gives the third order.

`Recursion` differentiates every relation's first and second partials once,
then runs the recursion over arrays of points from the values and first
derivatives `value_jacobian` returns.  A point where some P_0 vanishes
(relative to its bindings) is marked singular instead of evaluated.

`cauchy_partials` gives the same derivatives without the relations, from
Cauchy integrals of the Jacobian by the trapezoid rule on circles (Lyness &
Moler, SIAM J. Numer. Anal. 4, 1967; Bornemann, Found. Comput. Math. 11,
2011).  Its error is rounding over r^m plus (r/R)^NODES, R the distance to
the nearest singularity: no step balances truncation against rounding.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import naming
from .rings import StructuralError

_SINGULAR_FLOOR = 1e-12


class Recursion:
    """The second- and third-order recursion of a full set of first-order relations."""

    def __init__(self, relations, n: int):
        self.n = n
        self._partials = {}
        for rel in relations:
            slots = [rel.zvar] + [naming.x(i) for i in range(1, n + 1)]
            first = [rel.poly.diff(s) for s in slots]
            second = [[d.diff(s) for s in slots] for d in first]
            self._partials[(rel.k, rel.p)] = (rel.zvar, first, second)
        if len(self._partials) != n * n:
            raise StructuralError("the recursion needs the full set of first-order relations")

    def __call__(self, x, jac):
        """(d2[N, n, n, n], d3[N, n, n, n, n], singular[N]) from the values
        x[N, n] and first derivatives jac[N, n, n] of N points.

        d2[:, k, p, q] is d2f_k/du_p du_q and d3[:, k, p, q, r] the third
        derivative (indices from 0).  Entries of singular rows are meaningless.
        With slots (z0, x_1..x_n) moving at v[:, a, q] along u_q,
        d3 = -(sum_ab P_ab v_aq v_br + sum_i P_i d2f_i/du_q du_r) / P_0.
        """
        n, rows = self.n, len(x)
        singular = np.zeros(rows, dtype=bool)
        d2 = np.empty((rows, n, n, n), dtype=complex)
        d3 = np.empty((rows, n, n, n, n), dtype=complex)
        parts = {}
        with np.errstate(all="ignore"):
            for (k, p), (zvar, polys1, polys2) in self._partials.items():
                values = {zvar: jac[:, k - 1, p - 1], **{naming.x(i): x[:, i - 1] for i in range(1, n + 1)}}
                g = np.array([_rows(d, values, rows) for d in polys1])  # [slot, row]
                h = np.array([[_rows(d, values, rows) for d in row] for row in polys2])  # [slot, slot, row]
                scale = 1 + np.maximum.reduce([np.abs(v) for v in values.values()])
                singular |= np.abs(g[0]) < _SINGULAR_FLOOR * scale
                d2[:, k - 1, p - 1] = -np.einsum("ir,riq->rq", g[1:], jac) / g[0][:, None]
                parts[k, p] = g, h
            for (k, p), (g, h) in parts.items():
                v = np.concatenate([d2[:, k - 1, p - 1][:, None], jac], axis=1)
                num = np.einsum("abr,raq,rbs->rqs", h, v, v) + np.einsum("ir,riqs->rqs", g[1:], d2)
                d3[:, k - 1, p - 1] = -num / g[0][:, None, None]
        return d2, d3, singular


def _rows(poly, values, rows):
    """poly over the bound arrays, broadcast to one entry per row (constants included)."""
    return np.broadcast_to(poly.eval_numeric(values), (rows,))


NODES = 32  # trapezoid nodes on each circle
_POLE_SHARE = 0.3  # circle radius over the distance of the nearest pole
# e^(-2 pi i j m / NODES) / NODES: the trapezoid sums of the t^1 and t^2 coefficients
_WEIGHTS = np.exp(-2j * np.pi * np.outer([1, 2], np.arange(NODES)) / NODES) / NODES


def cauchy_partials(backend, us, jac):
    """(d2, d3, usable) at the rows of `us`, whose Jacobians are `jac`, laid
    out as `Recursion` lays them out.

    Around each u, NODES nodes u + r*e^(i phi)*d in each direction d of
    e_1..e_n and (e_q +- e_r)/sqrt(2), q < r, all in one `value_jacobian`
    call.  The t and t^2 coefficients of J(u + t*d) - J(u) are D_d J and
    D_d^2 J / 2; a mixed third partial is D^2 along (e_q + e_r)/sqrt(2) less
    D^2 along (e_q - e_r)/sqrt(2), halved (polarization).  The radius
    r = min(0.3 * pole distance, 1 / (1 + backend.growth)) keeps clear of the
    poles and of exponential growth.  A row with a rejected node or r = 0 is
    not usable.
    """
    n, rows = backend.n, len(us)
    eye = np.eye(n)
    pairs = list(itertools.combinations(range(n), 2))
    dirs = np.array([*eye, *((eye[q] + s * eye[r]) / math.sqrt(2) for q, r in pairs for s in (1, -1))])
    radius = np.minimum(_POLE_SHARE * backend.pole_distance(us), 1 / (1 + backend.growth))
    ring = radius[:, None, None, None] * np.exp(2j * np.pi * np.arange(NODES) / NODES)[:, None]
    _, on, bad = backend.value_jacobian((us[:, None, None] + ring * dirs[:, None]).reshape(-1, n))
    with np.errstate(all="ignore"):
        # less J(u): an entry that is constant along a circle gives exact zeros
        change = on.reshape(rows, len(dirs), NODES, n, n) - jac[:, None, None]
        coef = np.tensordot(_WEIGHTS, change, axes=(1, 2))
        scale = radius[:, None, None, None]
        first, second = coef[0] / scale, 2 * coef[1] / scale**2  # D_d J and D_d^2 J, [row, d, k, p]
    d2 = np.moveaxis(first[:, :n], 1, -1)
    d3 = np.empty((rows, n, n, n, n), dtype=complex)
    for q in range(n):
        d3[..., q, q] = second[:, q]
    for i, (q, r) in enumerate(pairs):
        d3[..., q, r] = d3[..., r, q] = (second[:, n + 2 * i] - second[:, n + 2 * i + 1]) / 2
    return d2, d3, (radius > 0) & ~bad.reshape(rows, -1).any(axis=1)
