"""Higher derivatives through the first-order relations.

Each relation P(z0; x1..xn) = 0 with z0 = df_k/du_p differentiates to

    d2f_k/du_p du_q = -(P_1 * df_1/du_q + ... + P_n * df_n/du_q) / P_0,

with P_i the partial of P by its i-th slot, everything evaluated from the
backend.  One more formal differentiation gives the third order.

`Recursion` differentiates every relation's first and second partials once,
then runs the recursion over arrays of points from the values and first
derivatives `value_jacobian` returns.  A point where some P_0 vanishes
(relative to its bindings) is marked singular instead of evaluated.
"""

from __future__ import annotations

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
        """
        n = self.n
        rows = len(x)
        singular = np.zeros(rows, dtype=bool)
        first, second = {}, {}
        with np.errstate(all="ignore"):
            for (k, p), (zvar, polys1, polys2) in self._partials.items():
                values = {zvar: jac[:, k - 1, p - 1]}
                for i in range(1, n + 1):
                    values[naming.x(i)] = x[:, i - 1]
                first[k, p] = [_rows(d, values, rows) for d in polys1]
                second[k, p] = [[_rows(d, values, rows) for d in row] for row in polys2]
                scale = 1 + np.maximum.reduce([np.abs(v) for v in values.values()])
                singular |= np.abs(first[k, p][0]) < _SINGULAR_FLOOR * scale
            d2 = np.empty((rows, n, n, n), dtype=complex)
            for (k, p), parts in first.items():
                for q in range(n):
                    acc = 0j
                    for i in range(1, n + 1):
                        acc = acc + parts[i] * jac[:, i - 1, q]
                    d2[:, k - 1, p - 1, q] = -acc / parts[0]
            d3 = np.empty((rows, n, n, n, n), dtype=complex)
            for (k, p), parts in first.items():
                p0 = parts[0]
                for r in range(n):
                    f_r = d2[:, k - 1, p - 1, r]
                    # d/du_r of P_j along u: P_{j,0} * d2f_k/du_p du_r + sum_m P_{j,m} * z_{m r}
                    rates = []
                    for row in second[k, p]:
                        out = row[0] * f_r
                        for m in range(1, n + 1):
                            out = out + row[m] * jac[:, m - 1, r]
                        rates.append(out)
                    for q in range(n):
                        num = 0j
                        for i in range(1, n + 1):
                            num = num + rates[i] * jac[:, i - 1, q]
                            num = num + parts[i] * d2[:, i - 1, q, r]
                        f_q = d2[:, k - 1, p - 1, q]
                        d3[:, k - 1, p - 1, q, r] = -(num * p0 - (-f_q * p0) * rates[0]) / (p0 * p0)
        return d2, d3, singular


def _rows(poly, values, rows):
    """poly over the bound arrays, broadcast to one entry per row (constants included)."""
    return np.broadcast_to(poly.eval_numeric(values), (rows,))
