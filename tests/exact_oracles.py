"""Exact oracles that only the tests use: a Sylvester-determinant resultant
(fraction-free Bareiss elimination), equality up to a rational factor,
divisibility, a term-by-term substitution, the closed-form second
derivative of a one-variable mapping, the candidate-factor pool that runs
every squarefree gcd, and the kernel's term-map operations on plain dicts
keyed by exponent tuples."""

from __future__ import annotations

from fractions import Fraction
from operator import add

from aat import naming
from aat.euclid import exact_div, gcd
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


def content_in_reference(a: MPoly, v: str) -> MPoly:
    """The v-content as a left-to-right fold of gcds over the coefficients."""
    coeffs = list(a.coeffs_in(v).values())
    if not coeffs:
        return a.ring.zero()
    g = coeffs[0].normalized()
    for c in coeffs[1:]:
        if g.is_constant():
            break
        g = gcd(g, c)
    return g.normalized() if not g.is_zero() else g


def factor_candidates_reference(p: MPoly, depth: int = 3) -> list:
    """`euclid.factor_candidates` without the squarefree certificate: every
    name of degree 2 or more runs gcd(q, dq/dv).  The pool, its order and
    each member's term order must match."""
    seen: dict = {}

    def visit(q: MPoly, d: int):
        q = q.normalized()
        if q.is_zero() or q.is_constant():
            return
        key = frozenset(q.terms.items())
        if key in seen:
            return
        seen[key] = q
        if d <= 0:
            return
        for v in q.names_present():
            dv = q.degree_in(v)
            if dv <= 0:
                continue
            c = content_in_reference(q, v)
            if not c.is_constant():
                visit(c, d - 1)
                visit(exact_div(q, c), d - 1)
            if dv < 2:
                continue
            g = q.ring.one() if v in q.ring.parameters else gcd(q, q.diff(v))
            if not g.is_constant():
                visit(g, d - 1)
                visit(exact_div(q, g), d - 1)

    visit(p, depth)
    return sorted(seen.values(), key=lambda q: (q.total_degree(), len(q.terms), str(q)))


# Term maps: {exponent tuple: nonzero rational} in the order the kernel must
# leave them.  A sum or difference updates the left operand's map term by
# term, dropping a cancelled monomial; a product accumulates every term
# product in turn, so a monomial that cancels and comes back keeps its
# first slot, and drops the zeros at the end.


def terms_of(p: MPoly) -> dict:
    return dict(p.terms.items())


def ref_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + sign * c
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def ref_mul(a: dict, b: dict) -> dict:
    acc: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2
    return {e: c for e, c in acc.items() if c}


def ref_diff(a: dict, i: int) -> dict:
    return {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in a.items() if e[i]}


def ref_coeffs_in(a: dict, i: int) -> dict:
    """{degree in name i: term map of its coefficient}, degrees in order of appearance."""
    out: dict = {}
    for e, c in a.items():
        out.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1 :]] = c
    return out


def ref_rename(a: dict, names: tuple, mapping: dict, target: tuple) -> dict:
    out = {}
    for e, c in a.items():
        new = [0] * len(target)
        for name, x in zip(names, e):
            if x:
                new[target.index(mapping.get(name, name))] = x
        out[tuple(new)] = c
    return out


def ref_exact_div(a: dict, b: dict):
    """The quotient in descending order, or None when b does not divide a."""
    lead = max(b)
    out = {}
    rem = dict(a)
    while rem:
        e = max(rem)
        q = tuple(x - y for x, y in zip(e, lead))
        if min(q) < 0:
            return None
        qc = Fraction(rem[e]) / b[lead]
        out[q] = qc
        rem = ref_add(rem, {tuple(map(add, q, e2)): qc * c2 for e2, c2 in b.items()}, -1)
    return out
