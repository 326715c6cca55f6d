from fractions import Fraction

import pytest

from aat import naming
from aat.backends import make_backend
from aat.elimination import AATSystem, derive_first_order
from aat.parsing import parse_poly
from aat.ratfn import RatFn
from aat.sampling import residual_check
from aat.variety import (
    QuotientContext,
    build_pij,
    find_primitive_element,
    differential_system,
    variety_for_alpha,
)


@pytest.fixture(scope="module")
def exp_setup():
    ring = naming.problem_ring(1)
    sys = AATSystem(n=1, ring=ring, polys=[parse_poly("L1 - x1*y1", ring)])
    backend = make_backend("exp", {"c": Fraction(1)})
    relations, _ = derive_first_order(sys, backend, seed=42)
    return sys, backend, relations


@pytest.fixture(scope="module")
def wp_setup():
    backend = make_backend("weierstrass", {"g2": Fraction(4), "g3": Fraction(0)})
    ring = naming.problem_ring(1)
    polys = backend.addition_polys(ring, seed=0)
    sys = AATSystem(n=1, ring=ring, polys=polys)
    relations, _ = derive_first_order(sys, backend, seed=42)
    return sys, backend, relations


def test_exp_variety(exp_setup):
    _, backend, relations = exp_setup
    spec = find_primitive_element(relations, backend, seed=1)
    assert spec.alpha == ((1,),)
    assert str(spec.V) == "theta - x1"
    assert spec.h == 1
    expr = spec.expression(1, 1)
    assert str(expr) == "x1"  # degree-1 V, so theta reduces to x1


def test_weierstrass_variety(wp_setup):
    _, backend, relations = wp_setup
    spec = find_primitive_element(relations, backend, seed=1)
    assert spec.alpha == ((1,),)
    assert str(spec.V) == "theta^2 - 4*x1^3 + 4*x1"
    assert spec.h == 2
    assert spec.h <= spec.degree_bound == 2
    expr = spec.expression(1, 1)
    assert str(expr) == "theta"
    rep = residual_check(
        spec.V, backend, relation_id="V", samples=100, seed=4, tol=1e-9, alpha=spec.alpha
    )
    assert rep.ok


def test_scaled_theta(wp_setup):
    _, backend, relations = wp_setup
    spec = variety_for_alpha(relations, ((2,),), backend, seed=1)
    # theta = 2*z means theta^2 = 4*(4x^3-4x)
    assert str(spec.V) == "theta^2 - 16*x1^3 + 16*x1"
    assert str(spec.expression(1, 1)) == "1/2*theta"


def test_case3_variety_default_and_identity():
    ring = naming.problem_ring(2)
    sys = AATSystem(
        n=2, ring=ring, polys=[parse_poly("L1 - x1*y1", ring), parse_poly("L2 - x2*y2", ring)]
    )
    backend = make_backend("singular2-case3", {})
    relations, _ = derive_first_order(sys, backend, seed=42)
    spec = find_primitive_element(relations, backend, seed=1)
    # unit-vector weights come first in the search and already express everything
    assert spec.alpha == ((1, 0), (0, 0))
    assert str(spec.V) == "theta - x1"
    for (k, p), expected in {(1, 2): "0", (2, 1): "0", (2, 2): "x2"}.items():
        assert str(spec.expression(k, p)) == expected
    # the identity weight matrix reproduces the joint minimal polynomial
    spec_id = variety_for_alpha(relations, ((1, 0), (0, 1)), backend, seed=1)
    assert str(spec_id.V) == "theta - x1 - x2"


def test_quotient_gcd_expression_path(wp_setup):
    # drive the general extended-Euclid route directly on the degree-two
    # relation; it must recover the same expression the theta identity gives
    from aat.variety import QuotientContext, _express_by_quotient_gcd

    _, _, relations = wp_setup
    vring = naming.variety_ring(1)
    v = parse_poly("theta^2 - 4*x1^3 + 4*x1", vring)
    qc = QuotientContext(v, 1)
    rep = _express_by_quotient_gcd(relations[0], relations, ((1,),), qc, 1)
    assert rep is not None
    assert qc.is_zero(qc.sub(rep, qc.theta()))


def test_quotient_inverse_roundtrip():
    vring = naming.variety_ring(1)
    V = parse_poly("theta^2 - 4*x1^3 + 4*x1", vring)
    qc = QuotientContext(V, 1)
    theta = qc.theta()
    inv = qc.inverse(theta)
    assert qc.is_zero(qc.sub(qc.mul(theta, inv), qc.one()))
    # theta^{-1} = theta/(4x^3-4x)
    disp = qc.to_ratfn(inv)
    x1 = qc.xring.var("x1")
    expected = RatFn(
        parse_poly("theta", vring), parse_poly("4*x1^3 - 4*x1", vring)
    )
    assert (disp.num, disp.den) == (expected.num, expected.den)


def test_build_pij_small_cases():
    m1 = build_pij(1)
    assert str(m1.jacobian_det) == "z1_1"
    assert str(m1.entries[0][0]) == "1/z1_1"
    m2 = build_pij(2)
    num = m2.entries[0][0]
    assert str(num) == "z2_2/(z1_1*z2_2 - z1_2*z2_1)"
    # numeric spot check at [[1,2],[3,4]]: p11 = 4/(-2) = -2
    vals = {"z1_1": 1.0, "z1_2": 2.0, "z2_1": 3.0, "z2_2": 4.0}
    assert abs(num.eval_numeric(vals) - (-2.0)) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3])
def test_adjugate_identity_exact(n):
    m = build_pij(n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            diff = m.entries[i - 1][j - 1] - m.inverse_entry(j, i)
            assert diff.is_zero()


def test_differential_system_lines(exp_setup, wp_setup):
    _, backend, relations = exp_setup
    spec = find_primitive_element(relations, backend, seed=1)
    entries, lines = differential_system(spec, build_pij(1))
    assert lines == ["du_1 = (1/x1) dx_1"]
    assert str(entries[0][0]) == "1/x1"

    _, backend, relations = wp_setup
    spec = find_primitive_element(relations, backend, seed=1)
    entries, lines = differential_system(spec, build_pij(1))
    assert lines == ["du_1 = (1/theta) dx_1"]


def test_differential_system_case3():
    ring = naming.problem_ring(2)
    sys = AATSystem(
        n=2, ring=ring, polys=[parse_poly("L1 - x1*y1", ring), parse_poly("L2 - x2*y2", ring)]
    )
    backend = make_backend("singular2-case3", {})
    relations, _ = derive_first_order(sys, backend, seed=42)
    spec = find_primitive_element(relations, backend, seed=1)
    entries, lines = differential_system(spec, build_pij(2))
    assert lines == ["du_1 = (1/x1) dx_1", "du_2 = (1/x2) dx_2"]


class _TwoWeierstrassBackend:
    """(p(u1), p(u2)) on the lattice (4, 0): a map no family provides, whose
    two degree-two slots reach the general quotient-gcd route."""

    n = 2

    def __init__(self):
        from aat.weierstrass import Lattice

        self.lattice = Lattice(4, 0)
        self.banks = {}

    def value_jacobian(self, points):
        import numpy as np

        pts = np.asarray(points, dtype=complex).reshape(-1, 2)
        p, q, _, _ = self.lattice.eval_many(pts.ravel())
        p, q = p.reshape(-1, 2), q.reshape(-1, 2)
        bad = np.abs(self.lattice.reduce_many(pts)[0]).min(axis=1) < 1e-6
        jac = np.zeros((len(pts), 2, 2), dtype=complex)
        jac[:, 0, 0], jac[:, 1, 1] = q[:, 0], q[:, 1]
        bad |= ~(np.isfinite(p).all(axis=1) & np.isfinite(q).all(axis=1))
        return p, jac, bad


def test_two_slot_variety_takes_the_quotient_gcd_route(monkeypatch):
    import aat.variety as variety
    from aat.elimination import FirstOrderRelation

    ring = naming.problem_ring(2)
    texts = {
        (1, 1): "z1_1^2 - 4*x1^3 + 4*x1",
        (1, 2): "z1_2",
        (2, 1): "z2_1",
        (2, 2): "z2_2^2 - 4*x2^3 + 4*x2",
    }
    relations = [FirstOrderRelation(k=k, p=p, poly=parse_poly(t, ring)) for (k, p), t in texts.items()]
    calls = []
    real = variety._express_by_quotient_gcd

    def spy(*args):
        out = real(*args)
        calls.append(out is not None)
        return out

    monkeypatch.setattr(variety, "_express_by_quotient_gcd", spy)
    spec = find_primitive_element(relations, _TwoWeierstrassBackend(), seed=1)
    assert spec.alpha == ((-2, -2), (-2, -2))
    assert spec.h == 4
    assert str(spec.V) == (
        "theta^4 - 32*theta^2*x1^3 + 32*theta^2*x1 - 32*theta^2*x2^3 + 32*theta^2*x2 + 256*x1^6 - 512*x1^4"
        " - 512*x1^3*x2^3 + 512*x1^3*x2 + 256*x1^2 + 512*x1*x2^3 - 512*x1*x2 + 256*x2^6 - 512*x2^4 + 256*x2^2"
    )
    den = "(x1^3 - x1 - x2^3 + x2)"
    assert {key: str(spec.expression(*key)) for key in texts} == {
        (1, 1): "(1/64*theta^3 - 3/4*theta*x1^3 + 3/4*theta*x1 - 1/4*theta*x2^3 + 1/4*theta*x2)/" + den,
        (1, 2): "0",
        (2, 1): "0",
        (2, 2): "(-1/64*theta^3 + 1/4*theta*x1^3 - 1/4*theta*x1 + 3/4*theta*x2^3 - 3/4*theta*x2)/" + den,
    }
    assert calls == [False] * 4 + [True]
