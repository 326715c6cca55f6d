"""Primitive element, minimal polynomial and the total differential system.

The derivative slots generate an algebraic extension of the field of rational
functions in the component values; a primitive element theta is searched as an
integer-weighted sum of the slots, its minimal polynomial V(theta; x) is cut
out of a resultant chain, and every slot is re-expressed as an element of
Q(x)[theta]/(V).  The module also builds the cofactor matrix that turns the
first-order relations into a total differential system du_i = sum p_ij dx_j.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import naming
from .euclid import factor_candidates, resultant, squarefree_check
from .ratfn import RatFn
from .rings import DomainError, MPoly, StructuralError, VarRing, rename
from .sampling import vanishes


class InversionError(DomainError):
    """An element was not invertible modulo V (V not separable or reducible)."""


class PrimitiveElementError(StructuralError):
    """No weight matrix in the search grid produced a usable minimal polynomial."""


# -- dense polynomials over a coefficient field ----------------------------------
#
# A dense polynomial is a list of field elements, index = degree, with no zero
# top entry.  The field F is an object with zero, one, add, sub, mul, neg, div
# and is_zero: `_FractionField` for Q(x), or a `QuotientContext` for
# Q(x)[theta]/(V), whose elements are themselves dense polynomials.


def _trim(F, a: list) -> list:
    while a and F.is_zero(a[-1]):
        a.pop()
    return a


def _padd(F, a: list, b: list) -> list:
    out = [F.zero()] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = F.add(out[i], c)
    for i, c in enumerate(b):
        out[i] = F.add(out[i], c)
    return _trim(F, out)


def _pmul(F, a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [F.zero()] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if F.is_zero(ca):
            continue
        for j, cb in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(ca, cb))
    return _trim(F, out)


def _pdivmod(F, a: list, b: list):
    a = list(a)
    q = [F.zero()] * max(0, len(a) - len(b) + 1)
    while a and len(a) >= len(b):
        factor = F.div(a[-1], b[-1])
        shift = len(a) - len(b)
        q[shift] = F.add(q[shift], factor)
        for i, c in enumerate(b):
            a[shift + i] = F.sub(a[shift + i], F.mul(factor, c))
        a = _trim(F, a)
    return _trim(F, q), a


def _ext_gcd(F, a: list, b: list):
    """(g, s) with g = gcd(a, b) = s*a + t*b for some t, by Euclid's
    algorithm over F."""
    r0, r1 = _trim(F, list(a)), _trim(F, list(b))
    s0, s1 = [F.one()], []
    while r1:
        q, r = _pdivmod(F, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _padd(F, s0, [F.neg(c) for c in _pmul(F, q, s1)])
    return r0, s0


class _FractionField:
    """Q(x): the rational functions over one ring, as a field for the above."""

    def __init__(self, xring: VarRing):
        self._zero, self._one = RatFn(xring.zero()), RatFn(xring.one())

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    add, sub, mul, div, neg = operator.add, operator.sub, operator.mul, operator.truediv, operator.neg

    @staticmethod
    def is_zero(a) -> bool:
        return a.is_zero()


# -- arithmetic in Q(x)[theta]/(V) -------------------------------------------


class QuotientContext:
    """Dense arithmetic for polynomials in theta with RatFn(x) coefficients,
    reduced modulo a monic minimal polynomial.  The context is itself a
    field (when V is irreducible) for the dense helpers above."""

    def __init__(self, V: MPoly, n: int):
        self.n = n
        self.vring = V.ring
        self.xring = VarRing(tuple(naming.x(i) for i in range(1, n + 1)), V.ring.parameters)
        self.coeffs = _FractionField(self.xring)
        h = V.degree_in(naming.THETA)
        if h < 1:
            raise StructuralError("minimal polynomial must involve theta")
        coeffs = V.coeffs_in(naming.THETA)
        lead = RatFn(self._to_x(coeffs[h]))
        self.h = h
        # monic tail: V = theta^h + sum_i tail[i]*theta^i
        self.tail = [
            RatFn(self._to_x(coeffs.get(i, V.ring.zero()))) / lead for i in range(h)
        ]

    def _to_x(self, p: MPoly) -> MPoly:
        return rename(p, {}, self.xring)

    # elements are lists of RatFn over xring, index = theta power, length <= h

    def zero(self):
        return []

    def one(self):
        return [self.coeffs.one()]

    def const(self, r) -> list:
        if isinstance(r, MPoly):
            r = RatFn(self._to_x(r) if r.ring != self.xring else r)
        elif not isinstance(r, RatFn):
            r = RatFn(self.xring.const(r))
        return [] if r.is_zero() else [r]

    def theta(self):
        if self.h == 1:
            return [-self.tail[0]]
        return [self.coeffs.zero(), self.coeffs.one()]

    def add(self, a, b):
        return _padd(self.coeffs, a, b)

    def neg(self, a):
        return [-c for c in a]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def scale(self, a, r: RatFn):
        if r.is_zero():
            return []
        return _trim(self.coeffs, [c * r for c in a])

    def mul(self, a, b):
        return self.reduce(_pmul(self.coeffs, a, b))

    def reduce(self, a):
        a = list(a)
        while len(a) > self.h:
            top = a.pop()
            if top.is_zero():
                continue
            k = len(a) - self.h  # theta^(h+k) folds onto theta^k .. theta^(k+h-1)
            for i in range(self.h):
                a[k + i] = a[k + i] - top * self.tail[i]
        return _trim(self.coeffs, a)

    def is_zero(self, a) -> bool:
        return not _trim(self.coeffs, list(a))

    # -- field operations -------------------------------------------------------

    def inverse(self, a):
        a = _trim(self.coeffs, list(a))
        if not a:
            raise InversionError("zero is not invertible")
        g, s = _ext_gcd(self.coeffs, a, self.tail + [self.coeffs.one()])
        if len(g) != 1:
            raise InversionError("element shares a factor with the minimal polynomial")
        inv_lead = self.coeffs.one() / g[0]
        return self.reduce([c * inv_lead for c in s])

    def div(self, a, b):
        return self.mul(a, self.inverse(b))

    def to_ratfn(self, a) -> RatFn:
        """Display form: a single rational function in the (theta, x) ring."""
        num = self.vring.zero()
        den = self.xring.one()
        for c in a:
            den = den * c.den
        for i, c in enumerate(a):
            other = self.xring.one()
            for j, d in enumerate(a):
                if j != i:
                    other = other * d.den
            num = num + rename(c.num * other, {}, self.vring) * self.vring.var(naming.THETA) ** i
        return RatFn(num, rename(den, {}, self.vring))


# -- variety construction ------------------------------------------------------


@dataclass
class VarietySpec:
    alpha: tuple  # n x n integer weights
    V: MPoly  # in the (theta, x1..xn) presentation ring
    h: int
    qc: QuotientContext
    reps: dict  # (k, p) -> quotient element for z{k}_{p}
    degree_bound: int

    def expression(self, k: int, p: int) -> RatFn:
        """The slot z{k}_{p} as a rational function of (theta, x)."""
        return self.qc.to_ratfn(self.reps[(k, p)])


_GRID_LIMIT = 2  # largest |weight| of the grid searched after the unit vectors


def _alpha_candidates(n: int):
    slots = n * n
    for i in range(slots):
        unit = [0] * slots
        unit[i] = 1
        yield tuple(unit)
    values = list(range(-_GRID_LIMIT, _GRID_LIMIT + 1))
    for combo in itertools.product(values, repeat=slots):
        if all(c == 0 for c in combo):
            continue
        if combo.count(0) == slots - 1 and 1 in combo:
            continue  # unit matrices were already tried
        yield combo


def _theta_chain(relations, alpha_rows, ring, n):
    """Eliminate the slots of `relations` from theta - sum(alpha*z) by
    resultants against the relations; None when the chain collapses to 0."""
    theta = ring.var(naming.THETA)
    T = theta
    for k in range(1, n + 1):
        for p in range(1, n + 1):
            a = alpha_rows[k - 1][p - 1]
            if a:
                T = T - ring.var(naming.z(k, p)).scale(a)
    R = T
    for rel in sorted(relations, key=lambda r: (r.k, r.p)):
        v = rel.zvar
        if R.degree_in(v) <= 0:
            continue
        R = resultant(R, rename(rel.poly, {}, ring), v).normalized()
        if R.is_zero():
            return None
    return R


def _select_minimal_polynomial(R, backend, alpha_rows, n, *, seed, tol):
    vring = naming.variety_ring(n, R.ring.parameters)
    cands = []
    for cand in factor_candidates(R):
        if cand.degree_in(naming.THETA) < 1:
            continue
        try:
            cand_v = rename(cand, {}, vring)
        except StructuralError:
            continue
        cands.append(cand_v)
    cands.sort(key=lambda q: (q.degree_in(naming.THETA), q.total_degree(), len(q.terms), str(q)))
    for cand in cands:
        if squarefree_check(cand, naming.THETA) and vanishes(cand, backend, seed=seed, tol=tol, alpha=alpha_rows):
            return cand.normalized()
    return None


def _express_all(relations, alpha_rows, qc: QuotientContext, n: int):
    """Quotient-ring expressions for every slot, or None if some slot resists."""
    reps = {}
    pending = {}
    for rel in relations:
        poly = rel.poly
        zv = rel.zvar
        deg = poly.degree_in(zv)
        if deg == 1:
            b = poly.coeff_of(zv, 1)
            c = poly.coeff_of(zv, 0)
            num = -RatFn(rename(c, {}, qc.xring))
            den = RatFn(rename(b, {}, qc.xring))
            reps[(rel.k, rel.p)] = qc.const(num / den)
        else:
            pending[(rel.k, rel.p)] = rel
    # theta itself resolves the last weighted slot
    while pending:
        unresolved_weighted = [
            key for key in pending if alpha_rows[key[0] - 1][key[1] - 1] != 0
        ]
        if len(unresolved_weighted) == 1 and len(pending) == 1:
            key = unresolved_weighted[0]
            a = Fraction(alpha_rows[key[0] - 1][key[1] - 1])
            acc = qc.theta()
            for (k, p), rep in reps.items():
                w = alpha_rows[k - 1][p - 1]
                if w:
                    acc = qc.sub(acc, qc.scale(rep, RatFn(qc.xring.const(w))))
            reps[key] = qc.scale(acc, RatFn(qc.xring.const(1 / a)))
            del pending[key]
            continue
        # work on slots outside theta first: solving them may leave a single
        # weighted slot for the theta identity above
        unweighted = [key for key in sorted(pending) if key not in unresolved_weighted]
        key = unweighted[0] if unweighted else sorted(pending)[0]
        rel = pending[key]
        rep = _express_by_quotient_gcd(rel, relations, alpha_rows, qc, n)
        if rep is None:
            return None
        reps[key] = rep
        del pending[key]
    return reps


def _express_by_quotient_gcd(rel, relations, alpha_rows, qc: QuotientContext, n: int):
    """General route: gcd over the quotient field of the slot's own relation and
    the theta constraint with every other slot eliminated."""
    ring = naming.problem_ring(n, rel.poly.ring.parameters)
    others = [other for other in relations if (other.k, other.p) != (rel.k, rel.p)]
    C = _theta_chain(others, alpha_rows, ring, n)
    zv = rel.zvar
    if C is None or C.degree_in(zv) <= 0:
        return None
    try:
        own = _as_quotient_poly(rename(rel.poly, {}, ring), zv, qc)
        g, _ = _ext_gcd(qc, own, _as_quotient_poly(C, zv, qc))
        if len(g) != 2:
            return None
        # g = g1*w + g0  =>  w = -g0/g1
        return qc.neg(qc.div(g[0], g[1]))
    except InversionError:
        return None


def _as_quotient_poly(p: MPoly, wvar: str, qc: QuotientContext):
    """View p as a polynomial in wvar whose coefficients live in the quotient."""
    out = []
    for d, coeff in sorted(p.coeffs_in(wvar).items()):
        while len(out) <= d:
            out.append([])
        theta_coeffs = coeff.coeffs_in(naming.THETA)
        elem = []
        for i in sorted(theta_coeffs):
            term = qc.const(RatFn(rename(theta_coeffs[i], {}, qc.xring)))
            for _ in range(i):
                term = qc.mul(term, qc.theta())
            elem = qc.add(elem, term) if elem else term
        out[d] = elem
    return _trim(qc, out)


def _consistency_ok(reps, relations, qc: QuotientContext) -> bool:
    """Substituting each expression into its relation must give 0 modulo V."""
    ring = naming.problem_ring(qc.n, qc.vring.parameters)
    for rel in relations:
        acc = []  # Horner in the relation's slot, at the slot's expression
        for c in reversed(_as_quotient_poly(rename(rel.poly, {}, ring), rel.zvar, qc)):
            acc = qc.add(qc.mul(acc, reps[(rel.k, rel.p)]), c)
        if not qc.is_zero(acc):
            return False
    return True


def find_primitive_element(relations: list, backend, *, seed: int = 0, tol: float = 1e-7) -> VarietySpec:
    """Search integer weight matrices (unit vectors first, then the +/-2 grid)
    for a theta whose minimal polynomial is squarefree and expresses every
    derivative slot."""
    if not relations:
        raise StructuralError("no first-order relations given")
    n = max(rel.k for rel in relations)
    for flat in _alpha_candidates(n):
        alpha = tuple(flat[k * n : (k + 1) * n] for k in range(n))
        spec = variety_for_alpha(relations, alpha, backend, seed=seed, tol=tol)
        if spec is not None:
            return spec
    raise PrimitiveElementError(f"no primitive element found with |alpha| <= {_GRID_LIMIT}")


def variety_for_alpha(relations: list, alpha: tuple, backend, *, seed: int = 0, tol: float = 1e-7):
    """The variety of theta = sum alpha[k-1][p-1] * z{k}_{p}, or None when
    theta has no squarefree minimal polynomial within the degree bound or
    leaves a slot unexpressed."""
    n = len(alpha)
    R = _theta_chain(relations, alpha, naming.problem_ring(n, relations[0].poly.ring.parameters), n)
    if R is None or R.degree_in(naming.THETA) < 1:
        return None
    V = _select_minimal_polynomial(R, backend, alpha, n, seed=seed, tol=tol)
    if V is None:
        return None
    bound = 1
    for rel in relations:
        bound *= max(1, rel.poly.degree_in(rel.zvar))
    h = V.degree_in(naming.THETA)
    if h > bound:
        return None
    qc = QuotientContext(V, n)
    reps = _express_all(relations, alpha, qc, n)
    if reps is None or not _consistency_ok(reps, relations, qc):
        return None
    return VarietySpec(alpha=alpha, V=V, h=h, qc=qc, reps=reps, degree_bound=bound)


# -- the total differential system ----------------------------------------------


@dataclass
class PijMatrix:
    n: int
    ring: VarRing
    jacobian_det: MPoly
    entries: list  # entries[i][j] = RatFn in the z variables

    def inverse_entry(self, i: int, j: int) -> RatFn:
        """(i, j) entry of the inverse of [z_ij], via the adjugate (independent
        of the derivative formula used for `entries`)."""
        cof = _minor_det(self.ring, self.n, j, i)
        sign = -1 if (i + j) % 2 else 1
        return RatFn(cof.scale(sign), self.jacobian_det)


def _det(ring: VarRing, rows, cols) -> MPoly:
    if len(rows) == 1:
        return ring.var(naming.z(rows[0], cols[0]))
    out = ring.zero()
    r0 = rows[0]
    for idx, c in enumerate(cols):
        minor = _det(ring, rows[1:], cols[:idx] + cols[idx + 1 :])
        term = ring.var(naming.z(r0, c)) * minor
        out = out + (term if idx % 2 == 0 else -term)
    return out


def _minor_det(ring: VarRing, n: int, drop_row: int, drop_col: int) -> MPoly:
    rows = [i for i in range(1, n + 1) if i != drop_row]
    cols = [j for j in range(1, n + 1) if j != drop_col]
    if not rows:
        return ring.one()
    return _det(ring, rows, cols)


def build_pij(n: int, parameters=()) -> PijMatrix:
    """Symbolic J = det[z_ij] and p_ij = (dJ/dz_ij)/J."""
    if n < 1:
        raise DomainError("need n >= 1")
    names = tuple(naming.z(i, j) for i in range(1, n + 1) for j in range(1, n + 1))
    ring = VarRing(names, tuple(parameters))
    J = _det(ring, list(range(1, n + 1)), list(range(1, n + 1)))
    entries = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            row.append(RatFn(J.diff(naming.z(i, j)), J))
        entries.append(row)
    return PijMatrix(n=n, ring=ring, jacobian_det=J, entries=entries)


def pretty_element(qc: QuotientContext, value) -> RatFn:
    """Readable rational form of a quotient element: the canonical
    representative, or its reciprocal form when that is shorter
    (e.g. 1/theta instead of theta/(4*x1^3 - 4*x1))."""
    direct = qc.to_ratfn(value)
    try:
        inv = qc.inverse(value)
    except InversionError:
        return direct
    flipped = RatFn(qc.vring.one()) / qc.to_ratfn(inv)
    def cost(r: RatFn):
        return (len(r.num.terms) + len(r.den.terms), len(str(r)))
    return min((direct, flipped), key=cost)


def differential_system(spec: VarietySpec, pij: PijMatrix):
    """Rewrite each p_ij as a rational function of (theta, x) and pretty-print
    the total differential system du_i = sum_j p_ij dx_j."""
    qc = spec.qc
    n = pij.n
    entries = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            entry = pij.entries[i - 1][j - 1]
            num = _eval_z_poly(entry.num, spec, qc)
            den = _eval_z_poly(entry.den, spec, qc)
            if qc.is_zero(den):
                row.append(None)  # substitution pole: denominator vanished mod V
                continue
            try:
                value = qc.div(num, den)
            except InversionError:
                row.append(None)
                continue
            if qc.is_zero(value):
                row.append(RatFn(qc.vring.zero()))
                continue
            row.append(pretty_element(qc, value))
        entries.append(row)
    lines = []
    for i in range(1, n + 1):
        parts = []
        for j in range(1, n + 1):
            # du_i/dx_j is the (j, i) slot of the derivative-form matrix
            # (inverse-transpose of the Jacobian)
            cell = entries[j - 1][i - 1]
            if cell is None:
                parts.append(f"(pole) dx_{j}")
            elif not cell.is_zero():
                parts.append(f"({cell}) dx_{j}")
        lines.append(f"du_{i} = " + (" + ".join(parts) if parts else "0"))
    return entries, lines


def _eval_z_poly(p: MPoly, spec: VarietySpec, qc: QuotientContext):
    """Evaluate a polynomial in the z variables at the derivative expressions."""
    out = []
    ring = p.ring
    for exps, c in p.terms.items():
        term = qc.const(RatFn(qc.xring.const(c)))
        for idx, e in enumerate(exps):
            if not e:
                continue
            cls = naming.classify(ring.names[idx])
            if cls is None or cls[0] != "z":
                raise StructuralError(f"unexpected name {ring.names[idx]!r} in p_ij")
            rep = spec.reps[(cls[1], cls[2])]
            for _ in range(e):
                term = qc.mul(term, rep)
        out = qc.add(out, term)
    return out
