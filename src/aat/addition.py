"""Negation relations, the rational addition formula, and the group law.

For one-component mappings whose addition polynomial has degree one or two in
the value slot, the addition theorem resolves into honest rational functions
R_0, R_1 of (theta, x) at u and at v: the degree-two case checks that the
discriminant is a perfect square of the form (s*x0*y0 + t) over the variety
and fixes the root branch against the backend.  The negation relations come
from pinning the value slot of the addition polynomial at u + v = 0.

`backend_points` maps the rows of an array of parameters u to variety points
(theta, x) through one `value_jacobian` call, so the group law through the
parameters is plain arithmetic on u before that call: the point of a + b is
the point over u_a + u_b.  `point_add` is the other group law, through the
resolved formula.  The checks that compare the two read the (u, v) rows of a
draw bank (`scan_pairs`), whose points at u, v and u+v are already evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import naming
from .euclid import factor_candidates, poly_sqrt, resultant, squarefree_in
from .ratfn import RatFn
from .rings import DomainError, MPoly, PoleError, StructuralError, VarRing, rename
from .sampling import DEFAULT_BOX, VALUE_CAP, draw_bank, vanishes
from .variety import VarietySpec

_INF = None  # infinity marker for point coordinates


@dataclass
class VarietyPoint:
    theta: complex | None
    x: tuple

    def is_finite(self) -> bool:
        return self.theta is not None and all(c is not None for c in self.x)

    def gap(self, other: "VarietyPoint") -> float:
        """Largest coordinate gap |a - b| / (1 + |a| + |b|); a coordinate at
        infinity is 0 from infinity and infinitely far from a finite one."""
        gaps = []
        for a, b in [(self.theta, other.theta), *zip(self.x, other.x)]:
            if a is None or b is None:
                gaps.append(0.0 if a is b else float("inf"))
            else:
                gaps.append(abs(a - b) / (1 + abs(a) + abs(b)))
        return max(gaps)


@dataclass
class NegationRelation:
    D: list  # per component: MPoly or None
    E: list  # per component: MPoly (in the (x, y_k) presentation ring) or None
    modes: list
    notes: list = field(default_factory=list)


@dataclass
class AdditionFormula:
    R: list  # R[0] = theta slot, R[k] = component k; RatFn in the formula ring
    excluded: list  # divisor polynomials that the formula cannot cross
    branch: int
    degrees: dict

    def excluded_hit(self, values: dict, tol: float = 1e-9) -> bool:
        for d in self.excluded:
            if abs(d.eval_numeric(values)) < tol:
                return True
        return False


@dataclass
class ResolveOutcome:
    status: str  # "resolved" | "unresolved"
    formula: AdditionFormula | None
    reason: str = ""
    in_scope: bool = True  # one component of value-slot degree 1 or 2


class DivisorDegeneracyError(DomainError):
    """Formula-mode addition hit the excluded divisor."""


# -- negation ---------------------------------------------------------------------


def derive_negation(sys, backend, *, seed: int = 0, tol: float = 1e-7) -> NegationRelation:
    """Relations D_k(x; y) = 0 binding the values at u and at -u, and their
    one-y-slot consequences E_k(y_k; x).

    When f_k(0) is finite the value slot of G_k is pinned to it; at a pole the
    value escapes to infinity, so the leading value-slot coefficient must
    vanish instead (the projective reading of the same substitution).
    """
    n = sys.n
    zero_vals = backend.values_at_zero()
    D = []
    modes = []
    notes = []
    for k in range(1, n + 1):
        g = sys.poly(k)
        lvar = naming.L(k)
        if zero_vals[k - 1] is not None:
            d = g.subs_exact({lvar: zero_vals[k - 1]}).normalized()
            mode = f"value-at-zero ({zero_vals[k - 1]})"
        else:
            d = g.leading_coeff_in(lvar).normalized()
            mode = "pole-leading-coefficient"
        if d.is_zero() or d.is_constant():
            D.append(None)
            modes.append(mode)
            notes.append(f"component {k}: degenerate substitution ({mode})")
            continue
        if not vanishes(d, backend, seed=seed, tol=tol, y_mode="neg"):
            D.append(None)
            modes.append(mode)
            notes.append(f"component {k}: relation failed numeric vetting ({mode})")
            continue
        D.append(d)
        modes.append(mode)
    E = []
    for k in range(1, n + 1):
        e = _negation_consequence(sys, backend, D, k, seed=seed, tol=tol)
        if e is None:
            notes.append(f"component {k}: no usable one-slot negation relation")
        E.append(e)
    return NegationRelation(D=D, E=E, modes=modes, notes=notes)


def _negation_consequence(sys, backend, D, k, *, seed, tol):
    yk = naming.y(k)
    pool = [d for d in D if d is not None]
    cands = [d for d in pool if d.degree_in(yk) > 0]
    if not cands:
        return None
    r = min(cands, key=lambda q: (q.total_degree(), len(q.terms)))
    for j in range(1, sys.n + 1):
        if j == k:
            continue
        vj = naming.y(j)
        if r.degree_in(vj) <= 0:
            continue
        partners = [d for d in pool if d is not r and d.degree_in(vj) > 0]
        if not partners:
            return None
        r = resultant(r, partners[0], vj).normalized()
        if r.is_zero():
            return None
    for cand in factor_candidates(r):
        if cand.degree_in(yk) > 0 and vanishes(cand, backend, seed=seed, tol=tol, y_mode="neg"):
            ring = naming.negation_ring(sys.n, k, sys.ring.parameters)
            return rename(cand, {}, ring).normalized()
    return None


# -- the rational addition formula ---------------------------------------------------


def resolve_addition(sys, spec: VarietySpec, backend, *, seed: int = 0, tol: float = 1e-8) -> ResolveOutcome:
    """Solve the addition polynomial for the value at u+v as a rational function
    on the variety (one component, value-slot degree one or two)."""
    if sys.n != 1:
        return ResolveOutcome("unresolved", None, "symbolic resolution is limited to one component", in_scope=False)
    g = sys.poly(1)
    lvar = naming.L(1)
    deg = g.degree_in(lvar)
    if deg not in (1, 2):
        return ResolveOutcome("unresolved", None, f"value-slot degree {deg} not in (1, 2)", in_scope=False)
    fring = naming.formula_ring(1, sys.ring.parameters)
    coeffs = {d: rename(c, {}, fring) for d, c in g.coeffs_in(lvar).items()}
    a = coeffs.get(deg, fring.zero())
    b = coeffs.get(deg - 1, fring.zero()) if deg == 2 else coeffs.get(0, fring.zero())
    if deg == 1:
        r1 = RatFn(-b, a)
        formula = _finish_formula(spec, fring, r1, branch=0)
        ok, reason = _verify_formula(formula, spec, backend, seed=seed, tol=tol)
        if not ok:
            return ResolveOutcome("unresolved", None, reason)
        return ResolveOutcome("resolved", formula)
    c = coeffs.get(0, fring.zero())
    disc = b * b - a * c.scale(4)  # exact scale matters: R1 = (-b +- sqrt(disc))/(2a)
    root = _discriminant_root(disc, spec, fring)
    if root is None:
        return ResolveOutcome(
            "unresolved", None, "unresolved: extension degree > 1 ansatz insufficient"
        )
    for branch in (1, -1):
        r1 = RatFn(-b + root.scale(branch), a.scale(2))
        formula = _finish_formula(spec, fring, r1, branch=branch)
        ok, reason = _verify_formula(formula, spec, backend, seed=seed, tol=tol)
        if ok:
            return ResolveOutcome("resolved", formula)
    return ResolveOutcome("unresolved", None, f"no root branch matched the backend: {reason}")


def _variety_coeffs(spec: VarietySpec):
    v = spec.V
    by_deg = v.coeffs_in(naming.THETA)
    return {d: c for d, c in by_deg.items() if not c.is_zero()}


def _discriminant_root(disc: MPoly, spec: VarietySpec, fring: VarRing):
    """Square root of the discriminant in the ansatz shape s*x0*y0 + t.

    The discriminant has no theta slots, so the cross term forces s*t = 0:
    either it is a perfect square t^2 outright, or s^2 * W(x1) * W(y1) where
    W is the square of the theta slot on the variety.
    """
    t = poly_sqrt(disc)
    if t is not None:
        return t
    if spec.h != 2:
        return None
    vc = _variety_coeffs(spec)
    if 1 in vc:  # theta-linear term breaks the odd/even split the ansatz needs
        return None
    lead = vc.get(2)
    low = vc.get(0)
    if lead is None or low is None or not lead.is_constant():
        return None
    # theta^2 = W(x) on the variety
    w_x = rename(low.scale(Fraction(-1, lead.constant_value())), {naming.THETA: "x0"}, fring)
    w_y = rename(w_x, {naming.x(1): naming.y(1)}, fring)
    quotient = RatFn(disc, w_x * w_y)
    s_num = poly_sqrt(quotient.num)
    s_den = poly_sqrt(quotient.den)
    if s_num is None or s_den is None:
        return None
    s = RatFn(s_num, s_den)
    if not s.is_poly():
        return None
    # keep the exact scale: sqrt(disc) = s * x0 * y0 on the variety
    return s.as_poly() * fring.var("x0") * fring.var("y0")


def _finish_formula(spec: VarietySpec, fring: VarRing, r1: RatFn, *, branch: int) -> AdditionFormula:
    r1 = _reduce_formula(r1, spec, fring)
    r0 = _theta_slot_formula(spec, fring, r1)
    excluded = _excluded_divisors(r1)
    degrees = {
        "r1_num_total": r1.num.total_degree(),
        "r1_den_total": r1.den.total_degree(),
    }
    return AdditionFormula(R=[r0, r1], excluded=excluded, branch=branch, degrees=degrees)


def _theta_slot_formula(spec: VarietySpec, fring: VarRing, r1: RatFn) -> RatFn:
    """theta(u+v) by formal differentiation of the value formula along u.

    With theta = alpha * f'(u), the chain rule gives
        theta(u+v) = alpha * (R1_x0 * theta'(u) + R1_x1 * f'(u)),
    the variety relation turns theta' into -V_x * f' / V_theta, and
    alpha * f'(u) is theta(u) itself, so the weight cancels:
        R0 = x0 * (R1_x1 - R1_x0 * V_x / V_theta).
    """
    to_f = {naming.THETA: "x0"}
    v_theta = rename(spec.V.diff(naming.THETA), to_f, fring)
    v_x = rename(spec.V.diff(naming.x(1)), to_f, fring)
    dlog = -RatFn(v_x) / RatFn(v_theta)
    r0 = (r1.diff("x0") * dlog + r1.diff(naming.x(1))) * RatFn(fring.var("x0"))
    return _reduce_formula(r0, spec, fring)


def _reduce_formula(r: RatFn, spec: VarietySpec, fring: VarRing) -> RatFn:
    num = _fold_theta_powers(r.num, spec, fring)
    den = _fold_theta_powers(r.den, spec, fring)
    if den.is_zero():
        return r
    return RatFn(num, den)


def _fold_theta_powers(p: MPoly, spec: VarietySpec, fring: VarRing) -> MPoly:
    """Rewrite powers x0^h and y0^h using the variety polynomial (monic leads only)."""
    vc = _variety_coeffs(spec)
    lead = vc.get(spec.h)
    if lead is None or not lead.is_constant():
        return p
    scale = Fraction(-1, lead.constant_value())
    for slot, xname in (("x0", naming.x(1)), ("y0", naming.y(1))):
        tail = {
            d: rename(c.scale(scale), {naming.THETA: slot, naming.x(1): xname}, fring)
            for d, c in vc.items()
            if d < spec.h
        }
        while p.degree_in(slot) >= spec.h:
            dmax = p.degree_in(slot)
            top = p.coeff_of(slot, dmax)
            # x0^dmax = x0^(dmax-h) * sum tail[d] x0^d
            rest = p - top * fring.var(slot) ** dmax
            fold = fring.zero()
            for d, c in tail.items():
                fold = fold + c * fring.var(slot) ** (dmax - spec.h + d)
            p = rest + top * fold
    return p


def _excluded_divisors(r1: RatFn) -> list:
    den = r1.den
    if den.is_constant():
        return []
    sf = den
    for v in den.variables_present():
        if sf.degree_in(v) >= 2:
            sf = squarefree_in(sf, v)
    return [sf.normalized()]


def _verify_formula(formula: AdditionFormula, spec: VarietySpec, backend, *, seed, tol, samples=20):
    """(ok, reason): R_1 matches the backend's value at u+v on 90% of the
    first `samples` usable pairs of the vetting bank."""

    def value_pair(p1, p2, p12):
        # R_1 and the backend's value, off the pole set, 1e-6 clear of the
        # excluded divisor and where no denominator vanishes
        values = _formula_bindings(formula, p1, p2, tol=1e-6)
        if values is None or p12.x[0] is _INF:
            return None
        try:
            return formula.R[1].eval_numeric(values), p12.x[0]
        except PoleError:
            return None

    bank = draw_bank(backend, "probe-bank", seed, DEFAULT_BOX)
    pairs = scan_pairs(bank, spec, samples, 40 * samples, value_pair)
    good = 0
    reason = ""
    for tried, (got, want) in enumerate(pairs, start=1):
        if abs(got - want) <= tol * (1 + abs(want)):
            good += 1
        else:
            reason = f"|formula - backend| = {abs(got - want):.3e} at sample {tried}"
    if not pairs:
        return False, "no usable verification samples"
    return good >= max(1, int(0.9 * len(pairs))), reason or f"{good}/{len(pairs)} samples matched"


def _formula_bindings(formula: AdditionFormula, p1: VarietyPoint, p2: VarietyPoint, tol: float):
    """The formula ring's names bound to two points (x at p1, y at p2), or
    None where a point is infinite or the pair is within `tol` of the
    excluded divisor."""
    if not (p1.is_finite() and p2.is_finite()):
        return None
    values = {"x0": p1.theta, "y0": p2.theta}
    for i, c in enumerate(p1.x, start=1):
        values[naming.x(i)] = c
    for i, c in enumerate(p2.x, start=1):
        values[naming.y(i)] = c
    return None if formula.excluded_hit(values, tol=tol) else values


# -- points and the group operations ------------------------------------------------


def array_points(spec: VarietySpec, vals, jac, bad) -> list:
    """The variety points of evaluated rows (`value_jacobian`'s arrays), with
    infinity markers where `bad` marks the row or a coordinate reaches
    VALUE_CAP."""
    n = vals.shape[1]
    with np.errstate(all="ignore"):  # bad rows carry nan; |c| may overflow a float
        thetas = sum(complex(spec.alpha[k][p]) * jac[:, k, p] for k in range(n) for p in range(n))
        coords = np.column_stack([thetas, vals])
        capped = ~(np.abs(coords) < VALUE_CAP)
    out = []
    for row, pole, cap in zip(coords.tolist(), bad.tolist(), capped.tolist()):
        if pole:
            out.append(VarietyPoint(theta=_INF, x=(_INF,) * n))
            continue
        theta, *xs = (_INF if big else c for c, big in zip(row, cap))
        out.append(VarietyPoint(theta=theta, x=tuple(xs)))
    return out


def backend_points(backend, spec: VarietySpec, us) -> list:
    """The variety points over the rows of `us`, through one `value_jacobian` call."""
    return array_points(spec, *backend.value_jacobian(us))


def scan_pairs(bank, spec: VarietySpec, want: int, limit: int, check) -> list:
    """The first `want` results that are not None of check(point at u, point
    at v, point at u+v) over the first `limit` (u, v) rows of a draw bank."""

    def evaluate(rows):
        val, jac, bad = bank.val[:, rows], bank.jac[:, rows], bank.bad[:, rows]
        points = [array_points(spec, val[s], jac[s], bad[s]) for s in range(3)]  # u, v, u+v
        return map(check, *points)

    return bank.scan(want, limit, evaluate)


def point_add(p1: VarietyPoint, p2: VarietyPoint, formula: AdditionFormula) -> VarietyPoint:
    """Group addition through the resolved rational formula."""
    values = _formula_bindings(formula, p1, p2, tol=1e-9)
    if values is None:
        raise DivisorDegeneracyError("formula mode needs finite points off the excluded divisor")
    theta = formula.R[0].eval_numeric(values)
    xs = tuple(r.eval_numeric(values) for r in formula.R[1:])
    return VarietyPoint(theta=theta, x=xs)


def variety_residual(spec: VarietySpec, point: VarietyPoint) -> float:
    """Scaled residual |V(theta; x)| at a finite point."""
    if not point.is_finite():
        raise DomainError("residual needs a finite point")
    values = {naming.THETA: point.theta}
    for i, c in enumerate(point.x, start=1):
        values[naming.x(i)] = c
    total, biggest = spec.V.eval_terms(values)
    return abs(total) / (1.0 + biggest)


def uniqueness_witness(backend, spec: VarietySpec, period, *, seed=0, box=DEFAULT_BOX, tol=1e-8, shifts=5):
    """Two distinct parameters with the same variety point stay indistinguishable
    under arbitrary shifts: the executable content of formula-mode soundness.

    The pair is u1 and u2 = u1 + period at the first of the first 60 rows u1
    of the report bank of (seed, box) whose points are finite and within
    tol; its shifts are the u of the `shifts` rows after it.  The bank holds
    the points at u1, so only u2 and the shifted points are evaluated.

    Returns (agree, worst gap, shift): whether the relative gap
    |f(u1 + b) - f(u2 + b)| / (1 + |f(u1 + b)|) stays within tol at every
    shift b off the pole set, the largest such gap, and the b where it is.
    """
    bank = draw_bank(backend, "residual", seed, box)
    attempts = 60
    if len(bank.u) < attempts + shifts:
        bank.extend(attempts + shifts - len(bank.u))
    u1 = bank.u[:attempts]
    u2 = u1 + np.asarray(period, dtype=complex)
    pts1 = array_points(spec, bank.val[0, :attempts], bank.jac[0, :attempts], bank.bad[0, :attempts])
    for i, (pt1, pt2) in enumerate(zip(pts1, backend_points(backend, spec, u2))):
        if pt1.is_finite() and pt2.is_finite() and pt1.gap(pt2) <= tol:
            break
    else:
        raise StructuralError("no usable witness pair found")
    b = bank.u[i + 1 : i + 1 + shifts]
    vals, _, bad = backend.value_jacobian(np.concatenate([u1[i] + b, u2[i] + b]))
    f1, f2 = vals[:shifts], vals[shifts:]
    usable = ~(bad[:shifts] | bad[shifts:])
    with np.errstate(all="ignore"):
        gaps = np.where(usable[:, None], np.abs(f1 - f2) / (1 + np.abs(f1)), 0.0).max(axis=1)
    worst = int(np.argmax(gaps))
    return bool(gaps[worst] <= tol), float(gaps[worst]), tuple(complex(c) for c in b[worst])
