"""The elimination pipeline: from addition-theorem polynomials to first-order
differential relations.

For each component k and direction p there is one route (`specialize_v`).  It
forms the cross-difference of the differentiated addition theorem, fixes the
second argument v at one of the backend's exact points (values in Q(sqrt(d))
for a rational d, the sqrt(d) slot kept as a variable), strips the shared
factor with the theorem itself and eliminates the value slot L_k by a
resultant.  Finally the other derivative slots are eliminated, leaving one
polynomial relation between df_k/du_p and the component values.  Every
candidate factor is vetted numerically before it is kept.  The one numeric
route left is the sample nullspace (`_relation_search`), for a heavy G_k
(degree above 2 in L_k) that no exact point serves; it fits monomial rows to
the run's "nullspace" draw bank (`sampling.DrawBank`).  A heavy G_k tries no
point whose curve slot p'(v1) the cross-difference holds: that slot is
sqrt(d), too costly to carry through the resultant, or 0 at a root of the
curve, which kills the relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import naming
from .euclid import exact_div, factor_candidates, gcd, resultant
from .generate import split_mod_square
from .reconstruct import rational_reconstruct
from .rings import MPoly, StructuralError, VarRing, rename
from .sampling import DEFAULT_BOX, draw_bank, vanishes

SPECIALIZATION_ATTEMPTS = 8  # exact points tried before giving up


class DegenerateSystemError(StructuralError):
    """The addition polynomial does not involve the mapping values."""


class EliminationError(StructuralError):
    """The elimination chain collapsed or no specialization was found."""


@dataclass
class AATSystem:
    """The n addition-theorem polynomials plus their shared ring."""

    n: int
    ring: VarRing
    polys: list

    def __post_init__(self):
        if len(self.polys) != self.n:
            raise StructuralError(f"expected {self.n} addition polynomials, got {len(self.polys)}")
        for k, g in enumerate(self.polys, start=1):
            if g.degree_in(naming.L(k)) < 1:
                raise StructuralError(f"G{k} must have positive degree in {naming.L(k)}")
            for name in g.variables_present():
                cls = naming.classify(name)
                if cls is not None and cls[0] in ("z", "w", "theta"):
                    raise StructuralError(f"G{k} may only use the value slots (L, x, y), found {name!r}")

    def poly(self, k: int) -> MPoly:
        return self.polys[k - 1]


@dataclass
class SpecializationRecord:
    mode: str
    point: str
    retries: int


@dataclass
class FirstOrderRelation:
    k: int
    p: int
    poly: MPoly  # in the presentation ring (z{k}_{p}, x1..xn)

    @property
    def zvar(self) -> str:
        return naming.z(self.k, self.p)


@dataclass
class TraceEntry:
    k: int
    p: int
    delta: MPoly
    shared: MPoly
    eliminant: MPoly | None
    specialized: MPoly
    record: SpecializationRecord
    relation: MPoly | None
    degree_bound: int
    notes: list = field(default_factory=list)


@dataclass
class DerivationTrace:
    entries: dict = field(default_factory=dict)

    def entry(self, k, p) -> TraceEntry:
        return self.entries[(k, p)]


def cross_difference(sys: AATSystem, k: int, p: int) -> MPoly:
    """Difference of the u_p and v_p derivatives of G_k after the value-slot
    derivatives cancel: sum_i (dG_k/dx_i * z{i}_{p} - dG_k/dy_i * w{i}_{p})."""
    g = sys.poly(k)
    ring = sys.ring
    delta = ring.zero()
    for i in range(1, sys.n + 1):
        gx = g.diff(naming.x(i))
        gy = g.diff(naming.y(i))
        if not gx.is_zero():
            delta = delta + gx * ring.var(naming.z(i, p))
        if not gy.is_zero():
            delta = delta - gy * ring.var(naming.w(i, p))
    if delta.is_zero():
        raise DegenerateSystemError(
            f"G{k} is independent of the mapping values; the system is degenerate"
        )
    return delta


def gcd_and_eliminant(gk: MPoly, delta: MPoly, k: int):
    """(shared factor, L_k-free eliminant).  A None eliminant means the
    cross-difference carried no new information for this (k, p)."""
    lvar = naming.L(k)
    shared = gcd(gk, delta)
    if not shared.is_constant():
        gk = exact_div(gk, shared)
        delta = exact_div(delta, shared)
    if delta.degree_in(lvar) <= 0:
        h = delta.normalized()
        return shared, (None if h.is_zero() else h)
    if gk.degree_in(lvar) <= 0:
        raise EliminationError(
            f"the shared factor absorbed the whole {lvar} dependence of G{k}"
        )
    h = resultant(gk, delta, lvar).normalized()
    return shared, (None if h.is_zero() else h)


def _exact_bindings(sys: AATSystem, point) -> tuple:
    """(y/w substitution map, the slot left symbolic for sqrt(point.root) or
    None) of one exact backend point."""
    out, slot = {}, None
    for i in range(1, sys.n + 1):
        out[naming.y(i)] = Fraction(point.values[i - 1])
        for p in range(1, sys.n + 1):
            c = point.jac[i - 1][p - 1]
            if c is None:
                slot = naming.w(i, p)
            else:
                out[naming.w(i, p)] = Fraction(c)
    return out, slot


def _is_usable_h(h: MPoly, backend, *, seed, tol) -> bool:
    # must keep at least one derivative slot (constant maps have none to keep;
    # pure-x leftovers mean the point was degenerate)
    if h.is_zero() or h.is_constant():
        return False
    kinds = {naming.classify(n)[0] for n in h.variables_present() if naming.classify(n)}
    if "z" not in kinds:
        return False
    return vanishes(h, backend, seed=seed, tol=tol)


def specialize_v(sys: AATSystem, backend, k: int, p: int, *, seed: int = 0, tol: float = 1e-7) -> TraceEntry:
    """The trace entry of (k, p): fix the second argument v at one of the
    backend's exact points, then eliminate L_k.

    The point's rational slots go into G_k and the cross-difference; where
    both keep their degree in L_k, the resultant commutes with that
    substitution.  At a point whose slot w holds sqrt(d), the eliminant is
    A + w*B modulo w^2 - d with A, B free of w.  Both conjugates of sqrt(d)
    are values of the mapping's derivative, so A and B both vanish on the
    image of u; A is vetted first, then B.
    """
    gk, delta = sys.poly(k), cross_difference(sys, k, p)
    lvar = naming.L(k)
    # A heavy G_k (case 4's G2: 78 terms) skips the points whose curve slot
    # delta holds: carrying sqrt(d) through its resultant raises the whole
    # derive on (4, 0) from 36 ms to 0.49 s (2 vCPUs) and gives a quartic in
    # place of P_21 = z2_1 - x1.  Elsewhere the sqrt(d) points whose slot
    # delta holds go first, since the roots kill such a relation.
    heavy = gk.degree_in(lvar) > 2
    points, skipped = [], None
    for point in backend.exact_points():
        bindings, slot = _exact_bindings(sys, point)
        curve = naming.w(*point.curve) if point.curve else None
        held = curve is not None and delta.degree_in(curve) > 0
        if heavy and held:
            skipped = curve
        else:
            points.append((not (held and slot), point, bindings, slot))
    points.sort(key=lambda item: item[0])
    H, notes, attempts = None, [], 0
    for _, point, bindings, slot in points:
        if attempts >= SPECIALIZATION_ATTEMPTS:
            break
        attempts += 1
        gk_s, delta_s = gk.subs_exact(bindings), delta.subs_exact(bindings)
        if gk_s.degree_in(lvar) != gk.degree_in(lvar) or delta_s.degree_in(lvar) != delta.degree_in(lvar):
            continue
        try:
            shared, h = gcd_and_eliminant(gk_s, delta_s, k)
        except EliminationError:
            continue
        if h is None:
            continue
        parts = split_mod_square(h, slot, h.ring.const(point.root)) if slot else (h,)
        H = next((part for part in parts if _is_usable_h(part, backend, seed=seed, tol=tol)), None)
        if H is not None:
            h, record = H, SpecializationRecord("exact-point", point.label, attempts - 1)
            break
    if H is None:
        err = f"no exact point specializes the eliminant for (k={k}, p={p}) ({attempts} tried)"
        if not heavy:
            raise EliminationError(err)
        if skipped and not attempts:
            err = (
                f"no exact point tried: G{k} has degree {gk.degree_in(lvar)} in {lvar}, and the cross-difference "
                f"holds the curve slot {skipped}, which is sqrt(d) or 0 at every curve point"
            )
        else:
            err = f"exact specialization unavailable ({err})"
        shared = sys.ring.one()
        h, record = _relation_search(sys, backend, k, p, seed=seed, tol=tol)
        notes = [err, "coefficients reconstructed from samples (numeric-reconstruct)"]
    specialized = _clean_relation(h, backend, prefer_var=naming.z(k, p), seed=seed, tol=tol)
    bound = max(1, gk.degree_in(lvar)) * max(1, delta.total_degree())
    return TraceEntry(k, p, delta, shared, H, specialized, record, None, bound, notes)


def _clean_relation(h: MPoly, backend, *, prefer_var: str | None, seed, tol) -> MPoly:
    """Minimal-degree numerically vanishing factor, preferring those that keep
    prefer_var when any such factor exists."""
    cands = factor_candidates(h)
    keep = [c for c in cands if prefer_var is None or c.degree_in(prefer_var) > 0]
    pools = [keep, cands] if keep else [cands]
    for pool in pools:
        for cand in pool:
            if not cand.is_constant() and vanishes(cand, backend, seed=seed, tol=tol):
                return cand.normalized()
    return h.normalized()


def _monomials(names, total_degree):
    """All exponent dictionaries over `names` with total degree <= bound."""
    out = [{}]
    for name in names:
        extended = []
        for mono in out:
            used = sum(mono.values())
            for e in range(0, total_degree - used + 1):
                m = dict(mono)
                if e:
                    m[name] = e
                extended.append(m)
        out = extended
    out.sort(key=lambda m: (sum(m.values()), sorted(m.items())))
    return out


def _relation_search(sys, backend, k, p, *, seed, tol, max_degree=6):
    """Numeric-reconstruct route for heavy components: find the lowest-degree
    polynomial in (z{k}_{p}, column-p slots, x) that vanishes along the
    mapping, by sampling, nullspace extraction, and continued-fraction lifts.

    The samples are the usable rows u of the run's "nullspace" bank, read in
    draw order from its first row at every degree; a row is usable off the
    pole set with every bound value within 50.  Every candidate is vetted
    (`vanishes`) on the vetting bank before it is accepted, so no fit is
    vetted on the rows it came from."""
    ring = sys.ring
    target = naming.z(k, p)
    names = [naming.z(i, p) for i in range(1, sys.n + 1)]
    names += [naming.x(i) for i in range(1, sys.n + 1)]
    bank = draw_bank(backend, "nullspace", seed, DEFAULT_BOX)

    def monomial_rows(rows):
        for vals, jac, bad in zip(*(a[0, rows].tolist() for a in (bank.val, bank.jac, bank.bad))):
            values = {naming.x(i): vals[i - 1] for i in range(1, sys.n + 1)}
            for i in range(1, sys.n + 1):
                values[naming.z(i, p)] = jac[i - 1][p - 1]
            if bad or any(abs(c) > 50 for c in values.values()):
                yield None
            else:
                yield [_eval_monomial(m, values) for m in basis]

    for degree in range(1, max_degree + 1):
        basis = _monomials(names, degree)
        rows = bank.scan(2 * len(basis) + 10, 40 * len(basis), monomial_rows)
        if len(rows) < len(basis) + 4:
            continue
        matrix = np.array(rows, dtype=complex)
        scales = np.maximum(np.abs(matrix).max(axis=0), 1e-12)
        matrix = matrix / scales
        _, svals, vh = np.linalg.svd(matrix)
        smax = svals[0] if len(svals) else 1.0
        null_rows = [vh[i] for i in range(len(svals)) if svals[i] < 1e-8 * smax]
        null_rows += [vh[i] for i in range(len(svals), vh.shape[0])]
        if not null_rows:
            continue
        for vec in _rational_rows(np.array(null_rows) / scales):
            cand = _vector_to_poly(vec, basis, ring)
            if cand is None or cand.is_zero() or cand.degree_in(target) < 1:
                continue
            if vanishes(cand, backend, seed=seed, tol=tol):
                record = SpecializationRecord(
                    "numeric-reconstruct", f"sample nullspace, degree {degree}", 0
                )
                return cand.normalized(), record
    raise EliminationError(
        f"no vanishing relation for (k={k}, p={p}) found up to degree {max_degree}"
    )


def _eval_monomial(mono, values):
    out = 1 + 0j
    for name, e in mono.items():
        out *= values[name] ** e
    return out


def _rational_rows(null_rows):
    """Reduced row echelon over the numeric nullspace: the canonical basis of a
    rational subspace has rational entries, which then lift entrywise."""
    rows = [list(r) for r in null_rows]
    if not rows:
        return
    m = len(rows[0])
    rr = 0
    for col in range(m):
        best, idx = 1e-7, None
        for i in range(rr, len(rows)):
            if abs(rows[i][col]) > best:
                best, idx = abs(rows[i][col]), i
        if idx is None:
            continue
        rows[rr], rows[idx] = rows[idx], rows[rr]
        piv = rows[rr][col]
        rows[rr] = [c / piv for c in rows[rr]]
        for i in range(len(rows)):
            if i != rr and abs(rows[i][col]) > 1e-12:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rr])]
        rr += 1
        if rr == len(rows):
            break
    for row in rows[:rr]:
        lifted = []
        ok = True
        for c in row:
            if abs(c) < 1e-7:
                lifted.append(Fraction(0))
                continue
            if abs(c.imag) > 1e-6 * (1 + abs(c)):
                ok = False
                break
            r = rational_reconstruct(c.real, max_den=10**6, tol=1e-6)
            if r is None:
                ok = False
                break
            lifted.append(r)
        if ok:
            yield lifted


def _vector_to_poly(vec, basis, ring):
    terms = {}
    width = len(ring.names)
    for coeff, mono in zip(vec, basis):
        if not coeff:
            continue
        exps = [0] * width
        for name, e in mono.items():
            exps[ring.index(name)] = e
        terms[tuple(exps)] = coeff
    if not terms:
        return None
    return ring.poly(terms)


def derive_first_order(
    sys: AATSystem,
    backend,
    *,
    seed: int = 0,
    tol: float = 1e-7,
):
    """All n^2 first-order relations P_{k p}, with the full derivation trace."""
    if sys.n > 2:
        raise StructuralError("symbolic derivation is limited to n <= 2; use numeric checks for larger n")
    trace = DerivationTrace()
    relations = []
    for p in range(1, sys.n + 1):
        column = {}
        for k in range(1, sys.n + 1):
            trace.entries[(k, p)] = specialize_v(sys, backend, k, p, seed=seed, tol=tol)
            column[k] = trace.entries[(k, p)].specialized
        for k in range(1, sys.n + 1):
            poly = _isolate(sys, backend, column, k, p, seed=seed, tol=tol)
            pres = naming.relation_ring(sys.n, k, p, sys.ring.parameters)
            rel = FirstOrderRelation(k=k, p=p, poly=rename(poly, {}, pres).normalized())
            trace.entries[(k, p)].relation = rel.poly
            if rel.poly.degree_in(rel.zvar) < 1:
                raise EliminationError(f"relation for (k={k}, p={p}) lost its derivative slot")
            relations.append(rel)
    return relations, trace


def _isolate(sys, backend, column, k, p, *, seed, tol):
    """Eliminate the other derivative slot of direction p from h_{k p}
    (n <= 2, so there is at most one)."""
    target = naming.z(k, p)
    r = column[k]
    for i in range(1, sys.n + 1):
        var = naming.z(i, p)
        if i == k or r.degree_in(var) <= 0:
            continue
        if column[i].degree_in(var) <= 0:
            raise EliminationError(f"no relation available to eliminate {var} for (k={k}, p={p})")
        r = resultant(r, column[i], var).normalized()
        r = _clean_relation(r, backend, prefer_var=target, seed=seed, tol=tol)
        if r.is_zero():
            raise EliminationError("chain collapsed to zero")
    if r.is_zero() or r.degree_in(target) < 1:
        raise EliminationError(f"dependent eliminant chain for (k={k}, p={p})")
    if not vanishes(r, backend, seed=seed, tol=tol):
        raise EliminationError(f"relation for (k={k}, p={p}) failed numeric vetting")
    return r
