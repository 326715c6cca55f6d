import cmath
import random
from fractions import Fraction

import numpy as np
import pytest

from aat import naming
from aat.addition import (
    DivisorDegeneracyError,
    array_points,
    backend_points,
    derive_negation,
    point_add,
    resolve_addition,
    uniqueness_witness,
    variety_residual,
)
from aat.backends import make_backend
from aat.elimination import AATSystem, derive_first_order
from aat.parsing import parse_poly
from aat.pipeline import catalog_problem_text
from aat.problem import parse_problem
from aat.ratfn import RatFn
from aat.sampling import DEFAULT_BOX, draw_bank, residual_check
from aat.variety import QuotientContext, VarietySpec, find_primitive_element, variety_for_alpha


@pytest.fixture(scope="module")
def exp_ctx():
    ring = naming.problem_ring(1)
    sys = AATSystem(n=1, ring=ring, polys=[parse_poly("L1 - x1*y1", ring)])
    backend = make_backend("exp", {"c": Fraction(1)})
    relations, _ = derive_first_order(sys, backend, seed=42)
    spec = find_primitive_element(relations, backend, seed=1)
    return sys, backend, relations, spec


@pytest.fixture(scope="module")
def wp_ctx():
    backend = make_backend("weierstrass", {"g2": Fraction(4), "g3": Fraction(0)})
    ring = naming.problem_ring(1)
    polys = backend.addition_polys(ring, seed=0)
    sys = AATSystem(n=1, ring=ring, polys=polys)
    relations, _ = derive_first_order(sys, backend, seed=42)
    spec = find_primitive_element(relations, backend, seed=1)
    return sys, backend, relations, spec


# -- negation -----------------------------------------------------------------


def test_negation_exp(exp_ctx):
    sys, backend, _, _ = exp_ctx
    neg = derive_negation(sys, backend, seed=7)
    assert neg.modes[0].startswith("value-at-zero")
    assert str(neg.E[0]) == "x1*y1 - 1"
    rep = residual_check(
        neg.E[0], backend, relation_id="E1", samples=100, seed=8, tol=1e-9, y_mode="neg"
    )
    assert rep.ok


def test_negation_additive():
    ring = naming.problem_ring(1)
    sys = AATSystem(n=1, ring=ring, polys=[parse_poly("L1 - x1 - y1", ring)])
    backend = make_backend("rational", {})
    neg = derive_negation(sys, backend, seed=7)
    assert str(neg.E[0]) == "x1 + y1"


def test_negation_weierstrass_pole_mode(wp_ctx):
    sys, backend, _, _ = wp_ctx
    neg = derive_negation(sys, backend, seed=7)
    assert neg.modes[0] == "pole-leading-coefficient"
    assert str(neg.E[0]) == "x1 - y1"  # evenness, derived not assumed
    rep = residual_check(
        neg.E[0], backend, relation_id="E1", samples=100, seed=9, tol=1e-9, y_mode="neg"
    )
    assert rep.ok


# -- resolution ----------------------------------------------------------------


def test_resolve_exp(exp_ctx):
    sys, backend, _, spec = exp_ctx
    out = resolve_addition(sys, spec, backend, seed=3)
    assert out.status == "resolved"
    fring = out.formula.R[1].ring
    assert str(out.formula.R[1]) == str(out.formula.R[0]) == "x1*y1"
    assert out.formula.excluded == []


def test_resolve_weierstrass_matches_classical(wp_ctx):
    sys, backend, _, spec = wp_ctx
    out = resolve_addition(sys, spec, backend, seed=3)
    assert out.status == "resolved"
    r1 = out.formula.R[1]
    fring = r1.ring
    # classical form: -x - y + ((tx - ty)/(2(x - y)))^2, reduced onto the variety
    x0, y0 = fring.var("x0"), fring.var("y0")
    x1, y1 = fring.var("x1"), fring.var("y1")
    num = (x0 - y0) ** 2 - (x1 + y1).scale(4) * (x1 - y1) ** 2
    classical = RatFn(num, (x1 - y1).scale(2) ** 2)
    rng = random.Random(5)
    agree = 0
    for (pu, qu, du), (pv, qv, dv), (puv, _, duv) in _wp_pairs(backend.lattice, rng, 40):
        if du < 0.2 or dv < 0.2:
            continue
        if duv < 0.2 or abs(pu - pv) < 1e-3:
            continue
        vals = {"x0": qu, "x1": pu, "y0": qv, "y1": pv}
        want = puv
        got = r1.eval_numeric(vals)
        cls = classical.eval_numeric(vals)
        assert abs(cls - want) < 1e-8 * (1 + abs(want))
        assert abs(got - want) < 1e-8 * (1 + abs(want))
        agree += 1
    assert agree >= 25
    # excluded divisor is the coincidence locus x1 = y1
    assert [str(d) for d in out.formula.excluded] == ["x1 - y1"]


def test_resolve_rejects_non_square_discriminant(exp_ctx):
    _, backend, _, _ = exp_ctx
    ring = naming.problem_ring(1)
    sys = AATSystem(n=1, ring=ring, polys=[parse_poly("L1^2 - x1 - y1", ring)])
    vring = naming.variety_ring(1)
    v = parse_poly("theta^2 - x1", vring)
    qc = QuotientContext(v, 1)
    spec = VarietySpec(alpha=((1,),), V=v, h=2, qc=qc, reps={(1, 1): qc.theta()}, degree_bound=2)
    out = resolve_addition(sys, spec, backend, seed=3)
    assert out.status == "unresolved"
    assert "ansatz insufficient" in out.reason


def _wp_pairs(lat, rng, count):
    """`count` draws (u, v): per draw, (p, p', distance from the lattice) at
    u, v and u+v, all from one eval_many call."""
    draws = np.array([[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)] for _ in range(count)])
    u, v = draws.T
    pts = np.concatenate([u, v, u + v])
    p, q, _, _ = lat.eval_many(pts)
    dist = np.abs(lat.reduce_many(pts)[0])
    at = [list(zip(*(f[i * count : (i + 1) * count].tolist() for f in (p, q, dist)))) for i in range(3)]
    return zip(*at)


def test_theta_slot_formula_with_scaled_weight(wp_ctx):
    sys, backend, relations, _ = wp_ctx
    spec2 = variety_for_alpha(relations, ((2,),), backend, seed=1)
    out = resolve_addition(sys, spec2, backend, seed=3)
    assert out.status == "resolved"
    rng = random.Random(8)
    checked = 0
    for (pu, qu, du), (pv, qv, dv), (_, quv, duv) in _wp_pairs(backend.lattice, rng, 120):
        if min(du, dv, duv) < 0.25:
            continue
        if abs(pu - pv) < 1e-3:
            continue
        vals = {"x0": 2 * qu, "x1": pu, "y0": 2 * qv, "y1": pv}
        want = 2 * quv  # theta at u+v under the scaled weight
        got = out.formula.R[0].eval_numeric(vals)
        assert abs(got - want) < 1e-8 * (1 + abs(want))
        checked += 1
        if checked >= 20:
            break
    assert checked >= 20


def test_formula_independent_of_sampling_seed(wp_ctx):
    sys, backend, _, spec = wp_ctx
    f1 = resolve_addition(sys, spec, backend, seed=3).formula
    f2 = resolve_addition(sys, spec, backend, seed=991).formula
    assert str(f1.R[0]) == str(f2.R[0])
    assert str(f1.R[1]) == str(f2.R[1])
    assert f1.degrees == f2.degrees


# -- group operations -----------------------------------------------------------


def test_exp_point_arithmetic(exp_ctx):
    sys, backend, _, spec = exp_ctx
    out = resolve_addition(sys, spec, backend, seed=3)
    log2, log3 = cmath.log(2), cmath.log(3)
    # the group law through the parameters: the points over a, b, a+b, (a+b)-b
    p2, p3, s, d = backend_points(backend, spec, [log2, log3, log2 + log3, (log2 + log3) - log3])
    assert abs(s.x[0] - 6) < 1e-12
    sf = point_add(p2, p3, formula=out.formula)
    assert sf.gap(s) <= 1e-10
    assert d.gap(p2) <= 1e-10


def test_wp_formula_backend_agreement(wp_ctx):
    sys, backend, _, spec = wp_ctx
    formula = resolve_addition(sys, spec, backend, seed=3).formula
    rng = random.Random(12)
    rows = np.array([[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)] for _ in range(200)])
    us = np.concatenate([rows[:, :1], rows[:, 1:], rows[:, :1] + rows[:, 1:]])
    dist = backend.pole_distance(us).reshape(3, -1)
    pts = backend_points(backend, spec, us)
    checked = 0
    for i, (p1, p2, want) in enumerate(zip(pts[:200], pts[200:400], pts[400:])):
        if dist[:, i].min() < 0.2:
            continue
        try:
            got = point_add(p1, p2, formula=formula)
        except DivisorDegeneracyError:
            continue
        assert got.gap(want) <= 1e-8
        assert variety_residual(spec, got) < 1e-8
        checked += 1
        if checked >= 30:
            break
    assert checked >= 30


def test_formula_mode_refuses_excluded_divisor(wp_ctx):
    sys, backend, _, spec = wp_ctx
    formula = resolve_addition(sys, spec, backend, seed=3).formula
    u = 0.41 + 0.27j
    # -u has the same x-value (divisor x1 = y1); u - u is the identity
    p1, p2, ident = backend_points(backend, spec, [u, -u, u - u])
    with pytest.raises(DivisorDegeneracyError):
        point_add(p1, p2, formula=formula)
    with pytest.raises(DivisorDegeneracyError):
        point_add(p1, ident, formula=formula)  # infinite point never reaches the formula


def test_wp_identity_and_inverse(wp_ctx):
    _, backend, _, spec = wp_ctx
    u = 0.31 + 0.17j
    p, identity, back = backend_points(backend, spec, [u, u - u, (u - u) + u])
    assert identity.theta is None and identity.x[0] is None  # pole markers at u = 0
    assert back.gap(p) <= 1e-9


@pytest.fixture(scope="module")
def case4_ctx():
    spec = parse_problem(catalog_problem_text("singular2-case4", {"g2": "4", "g3": "0", "epsilon": "1"}))
    sys = AATSystem(n=2, ring=spec.ring, polys=spec.aat_polys)
    relations, _ = derive_first_order(sys, spec.backend, seed=42)
    return sys, spec.backend, relations, find_primitive_element(relations, spec.backend, seed=42)


@pytest.mark.parametrize("ctx", ["exp_ctx", "wp_ctx", "case4_ctx"])
def test_group_axioms_spot(ctx, request):
    # the group law through the parameters is a property of the backend: the
    # variety points over a+b and b+a, (a+b)+c and a+(b+c), (a+b)-b, (a-b)+b and a agree
    _, backend, _, spec = request.getfixturevalue(ctx)
    rng = np.random.default_rng(3)
    re, im = rng.uniform(-1, 1, (2, 3, 30, backend.n))
    a, b, c = re + 1j * im
    us = [a, a + b, b + a, (a + b) + c, a + (b + c), (a + b) - b, (a - b) + b]
    clear = np.min([backend.pole_distance(u) for u in us], axis=0) >= 0.2
    m = int(clear.sum())
    assert m >= 10
    pts = backend_points(backend, spec, np.concatenate([u[clear] for u in us]))
    pa, ab, ba, abc1, abc2, sub, back = (pts[i : i + m] for i in range(0, 7 * m, m))
    for i in range(m):
        assert ab[i].gap(ba[i]) <= 1e-10
        assert abc1[i].gap(abc2[i]) <= 1e-9
        assert sub[i].gap(pa[i]) <= 1e-9
        assert back[i].gap(pa[i]) <= 1e-9


def test_uniqueness_witness_wp(wp_ctx):
    _, backend, _, spec = wp_ctx
    lat = backend.lattice
    agree, gap, shift = uniqueness_witness(backend, spec, (2 * lat.omega1,), seed=5)
    assert agree and gap <= 1e-8 and len(shift) == 1


def test_a_failing_witness_names_its_worst_gap_and_shift(wp_ctx):
    _, backend, _, spec = wp_ctx
    agree, gap, shift = uniqueness_witness(backend, spec, (2 * backend.lattice.omega1 + 1e-8,), seed=5)
    assert not agree and gap > 1e-8
    assert any(np.array_equal(shift, u) for u in draw_bank(backend, "residual", 5, DEFAULT_BOX).u)


def test_uniqueness_witness_reads_the_report_bank(wp_ctx, monkeypatch):
    # the points at u1 come from the report bank: one call evaluates u1 + p
    # at the bank's first 60 rows u1, and one the 5 shifts of the pair
    _, backend, _, spec = wp_ctx
    period = 2 * backend.lattice.omega1
    bank = draw_bank(backend, "residual", 5, 0.9)
    bank.extend(100)
    evaluate, calls = backend.value_jacobian, []
    monkeypatch.setattr(backend, "value_jacobian", lambda points: calls.append(np.array(points)) or evaluate(points))
    assert uniqueness_witness(backend, spec, (period,), seed=5, box=0.9)[0]
    assert len(bank.u) == 100 and [len(c) for c in calls] == [60, 10]
    assert np.array_equal(calls[0], bank.u[:60] + period)


def test_array_points_cap_values_too_large_for_abs():
    # |c| of 1e308 + 1e308j overflows a float: the coordinate is at infinity
    spec = VarietySpec(alpha=((1,),), V=None, h=1, qc=None, reps={}, degree_bound=1)
    vals = np.array([[1e308 + 1e308j], [2.0 + 0j]])
    jac = np.array([[[1.0 + 0j]], [[1e308 + 1e308j]]])
    big, theta_big = array_points(spec, vals, jac, np.array([False, False]))
    assert big.x == (None,) and big.theta == 1.0
    assert theta_big.x == (2.0,) and theta_big.theta is None
