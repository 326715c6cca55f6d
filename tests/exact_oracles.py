"""Exact oracles that only the tests use: a Sylvester-determinant resultant
(fraction-free Bareiss elimination), equality up to a rational factor,
divisibility, a term-by-term substitution, and the closed-form second
derivative of a one-variable mapping."""

from __future__ import annotations

from aat import naming
from aat.euclid import exact_div
from aat.ratfn import RatFn
from aat.rings import DomainError, MPoly


def sylvester_matrix(a: MPoly, b: MPoly, v: str) -> list:
    """Sylvester matrix of a, b with respect to v, entries v-free MPolys."""
    da, db = a.degree_in(v), b.degree_in(v)
    if da <= 0 or db <= 0:
        raise DomainError("sylvester matrix needs positive degrees")
    ring = a.ring
    ac = a.coeffs_in(v)
    bc = b.coeffs_in(v)
    size = da + db
    rows = []
    for i in range(db):
        row = [ring.zero()] * size
        for d, c in ac.items():
            row[i + (da - d)] = c
        rows.append(row)
    for i in range(da):
        row = [ring.zero()] * size
        for d, c in bc.items():
            row[i + (db - d)] = c
        rows.append(row)
    return rows


def det_bareiss(rows: list) -> MPoly:
    """Fraction-free determinant of a square MPoly matrix."""
    n = len(rows)
    if n == 0:
        raise DomainError("empty matrix")
    ring = rows[0][0].ring
    m = [list(r) for r in rows]
    sign = 1
    prev = ring.one()
    for i in range(n - 1):
        if m[i][i].is_zero():
            for r in range(i + 1, n):
                if not m[r][i].is_zero():
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return ring.zero()
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = exact_div(m[i][i] * m[r][c] - m[r][i] * m[i][c], prev)
            m[r][i] = ring.zero()
        prev = m[i][i]
    det = m[n - 1][n - 1]
    return det if sign > 0 else -det


def resultant_sylvester(a: MPoly, b: MPoly, v: str) -> MPoly:
    """Resultant as a Sylvester determinant; an oracle for small degrees."""
    return det_bareiss(sylvester_matrix(a, b, v))


def is_associate(a: MPoly, b: MPoly) -> bool:
    """Equal up to a nonzero rational factor."""
    if not isinstance(b, MPoly) or a.ring != b.ring:
        return False
    return a.normalized() == b.normalized()


def divides(b: MPoly, a: MPoly) -> bool:
    """Whether b divides a exactly."""
    try:
        exact_div(a, b)
        return True
    except DomainError:
        return False


def subs_term_by_term(p: MPoly, bindings: dict) -> MPoly:
    """Substitution as a running polynomial sum, `out = out + term * factor`
    for each term of p in turn; `MPoly.subs_exact` must match it in value
    and in term order."""
    ring = p.ring
    vals = {ring.index(n): v if isinstance(v, MPoly) else ring.const(v) for n, v in bindings.items()}
    out = ring.zero()
    for exps, c in p.terms.items():
        rest = list(exps)
        factor = None
        for i, v in vals.items():
            rest[i] = 0
            if exps[i]:
                factor = v ** exps[i] if factor is None else factor * v ** exps[i]
        term = MPoly(ring, {tuple(rest): c})
        out = out + (term if factor is None else term * factor)
    return out


def symbolic_second_derivative(rel) -> RatFn:
    """The second derivative of a one-variable mapping as a rational function
    of (z, x): -P_1(x) * z / P_0(z, x), normalized."""
    poly = rel.poly
    zv = rel.zvar
    p0 = poly.diff(zv)
    p1 = poly.diff(naming.x(1))
    z = poly.ring.var(zv)
    return RatFn(-p1 * z, p0)
