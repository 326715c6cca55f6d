import cmath
import random
from fractions import Fraction

import numpy as np
import pytest

from aat import backends
from aat.backends import make_backend
from aat.rings import StructuralError


def _check_jacobian(backend, rng, count=8, box=0.9, h=1e-6):
    """The Jacobian against central differences of the values at the first
    `count` pole-free draws; all draws and shifts go through one call."""
    n = backend.n
    us = np.array([[complex(rng.uniform(-box, box), rng.uniform(-box, box)) for _ in range(n)] for _ in range(4 * count)])
    steps = h * np.eye(n)
    values, jac, bad = backend.value_jacobian(np.concatenate([us] + [us + s * steps[p] for p in range(n) for s in (1, -1)]))
    rows = len(us)
    values = values.reshape(-1, rows, n)
    checked = 0
    for i in range(rows):
        if bad[i]:
            continue
        for k in range(n):
            for p in range(n):
                fd = (values[1 + 2 * p, i, k] - values[2 + 2 * p, i, k]) / (2 * h)
                assert abs(jac[i, k, p] - fd) < 2e-5 * (1 + abs(jac[i, k, p]))
        checked += 1
        if checked == count:
            break
    assert checked == count


FAMILIES = [
    ("exp", {"c": Fraction(2)}),
    ("rational", {}),
    ("weierstrass", {"g2": Fraction(4), "g3": Fraction(0)}),
    ("singular2-case1", {}),
    ("singular2-case2", {}),
    ("singular2-case3", {}),
    ("singular2-case4", {"g2": Fraction(4), "g3": Fraction(0)}),
    ("singular2-case5", {"g2": Fraction(4), "g3": Fraction(0), "a": Fraction(1, 2)}),
    ("singular2-case4", {"g2": Fraction(7), "g3": Fraction(-3), "epsilon": Fraction(0)}),
]


@pytest.mark.parametrize("family,params", FAMILIES)
def test_jacobian_matches_finite_differences(family, params):
    backend = make_backend(family, params)
    _check_jacobian(backend, random.Random(hash(family) & 0xFFFF))


def _closed_form(backend, u, oracle):
    """(values, jacobian) at one point from the family's formula: cmath for
    the exponentials, the mpmath theta oracle for the Weierstrass functions."""
    if backend.family == "exp":
        c = complex(backend.c)
        e = cmath.exp(c * u[0])
        return (e,), ((c * e,),)
    if backend.family == "rational":
        return (u[0],), ((1,),)
    if backend.family == "weierstrass":
        p, dp, _, _ = oracle(u[0])
        return (p,), ((dp,),)
    u1, u2 = u
    if backend.family in ("singular2-case1", "singular2-case2", "singular2-case3"):
        add1, add2 = backend.family != "singular2-case3", backend.family == "singular2-case1"
        f1 = u1 if add1 else cmath.exp(u1)
        f2 = u2 if add2 else cmath.exp(u2)
        return (f1, f2), ((1 if add1 else f1, 0), (0, 1 if add2 else f2))
    p, dp, zeta, sigma = oracle(u1)
    if backend.family == "singular2-case4":
        eps = backend.epsilon
        return (p, u2 - eps * zeta), ((dp, 0), (eps * p, 1))
    _, _, zeta_a, sigma_a = oracle(u1 - complex(backend.a))
    f2 = cmath.exp(u2) * sigma_a / sigma
    return (p, f2), ((dp, 0), (f2 * (zeta_a - zeta), f2))


@pytest.mark.parametrize("family,params", FAMILIES)
def test_value_jacobian_matches_point_methods(family, params):
    """value_jacobian on a batch against the closed form of each family
    evaluated one point at a time, and its `bad` mask against pole_distance."""
    backend = make_backend(family, params)
    rng = random.Random(f"value_jacobian:{family}")
    points = [tuple(complex(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(backend.n)) for _ in range(300)]
    lat = getattr(backend, "lattice", None)
    if lat is not None:
        # three poles (one inside the pole radius) and a point just outside it
        for w in (0j, 2 * lat.omega1, 2 * lat.omega2 + 3e-7, 2 * lat.omega1 - 2e-6j):
            points.append((w,) + (0.3 + 0.2j,) * (backend.n - 1))
        if family == "singular2-case5":
            points.append((complex(backend.a) + 1e-8, 0.1 + 0j))
    values, jac, bad = backend.value_jacobian(points)
    assert values.shape == (len(points), backend.n)
    assert jac.shape == (len(points), backend.n, backend.n)
    distance = backend.pole_distance(points)
    assert np.array_equal(bad, distance < 1e-6)
    assert bad.sum() == (0 if lat is None else 3 + (family == "singular2-case5"))
    if lat is None:
        assert np.all(distance == np.inf)
    assert np.isfinite(values[~bad]).all() and np.isfinite(jac[~bad]).all()
    oracle = None
    if lat is not None:
        from test_weierstrass import theta_oracle

        oracle = theta_oracle(pytest.importorskip("mpmath"), lat)[0]
    for i in np.flatnonzero(~bad).tolist():
        want_values, want_jac = _closed_form(backend, points[i], oracle)
        for k in range(backend.n):
            assert abs(values[i, k] - want_values[k]) <= 1e-12 * (1 + abs(want_values[k])), points[i]
            for p in range(backend.n):
                assert abs(jac[i, k, p] - want_jac[k][p]) <= 1e-12 * (1 + abs(want_jac[k][p])), points[i]


def test_family_dimensions():
    # the table that gives each backend its n names exactly the families tested here
    assert set(backends.FAMILIES) == {family for family, _ in FAMILIES}


@pytest.mark.parametrize("family,params", FAMILIES)
def test_expected_periods(family, params):
    backend = make_backend(family, params)
    expected = backend.expected_periods()
    lat = getattr(backend, "lattice", None)
    two_pi_i = 2j * cmath.pi
    if family in ("rational", "singular2-case1"):
        assert expected == []
    elif family == "exp":
        assert expected == [(two_pi_i / 2,)]  # c = 2
    elif family == "singular2-case2":
        assert expected == [(0, two_pi_i)]
    elif family == "singular2-case3":
        assert expected == [(two_pi_i, 0), (0, two_pi_i)]
    elif family == "weierstrass":
        assert expected == [(2 * lat.omega1,), (2 * lat.omega2,)]
    elif family == "singular2-case4":
        eps = backend.epsilon
        assert expected == [(2 * lat.omega1, eps * 2 * lat.eta1), (2 * lat.omega2, eps * 2 * lat.eta2)]
    else:
        a = float(backend.a)
        assert expected == [(2 * lat.omega1, 2 * lat.eta1 * a), (2 * lat.omega2, 2 * lat.eta2 * a), (0, two_pi_i)]
    u = np.array((0.31 + 0.17j, 0.2 - 0.1j)[: backend.n])
    values = backend.value_jacobian([u] + [u + np.array(vec) for vec in expected])[0]
    for shifted in values[1:]:
        assert np.all(abs(shifted - values[0]) < 1e-9 * (1 + abs(values[0])))


def test_exp_values():
    b = make_backend("exp", {"c": Fraction(1)})
    values, jac, _ = b.value_jacobian([(0.5,)])
    assert abs(values[0, 0] - cmath.exp(0.5)) < 1e-15
    assert abs(jac[0, 0, 0] - cmath.exp(0.5)) < 1e-15
    pt = b.exact_points()[0]
    assert pt.values == (1,) and pt.jac == ((1,),)


def _curve_v(lattice, y0, multiplicity):
    """A v1 with p(v1) = y0, found by Newton on p(v) - y0 from fixed starts;
    a zero of multiplicity 2 (a root of the curve, where p' = 0) takes the
    doubled step that keeps the convergence quadratic.  There p(v) - y0 near
    1e-13 leaves v off by about its square root, so three Newton steps on
    p'(v) = 0, with p'' = 6p^2 - g2/2, then polish v."""
    def p_and_q(v):
        return (f[0] for f in lattice.eval_many(np.array([v]), count=2))

    for start in (0.31 + 0.17j, 0.7 - 0.4j, -0.5 + 0.9j, 1.1 + 0.05j):
        v = start
        for _ in range(60):
            p, q = p_and_q(v)
            if abs(p - y0) < 1e-13 * (1 + abs(y0)):
                for _ in range(3 if multiplicity == 2 else 0):
                    p, q = p_and_q(v)
                    v -= q / (6 * p * p - complex(lattice.g2) / 2)
                return v
            if q == 0:
                break
            v -= multiplicity * (p - y0) / q
    raise AssertionError(f"Newton found no v with p(v) = {y0}")


LATTICE_CASES = [
    ("weierstrass", {"g2": Fraction(4), "g3": Fraction(0)}),
    ("weierstrass", {"g2": Fraction(7), "g3": Fraction(-3)}),
    ("weierstrass", {"g2": Fraction(-2), "g3": Fraction(1)}),
    ("singular2-case4", {"g2": Fraction(4), "g3": Fraction(0)}),
    ("singular2-case4", {"g2": Fraction(6), "g3": Fraction(1)}),
    ("singular2-case4", {"g2": Fraction(7), "g3": Fraction(-3), "epsilon": Fraction(0)}),
]


@pytest.mark.parametrize("family,params", LATTICE_CASES)
def test_curve_points_match_the_backend(family, params):
    # each point is checked at a v found here, not at one the backend names:
    # p(v1) = y0 by Newton, and v2 = eps*zeta(v1) puts f2(v) at 0
    b = make_backend(family, params)
    lat = b.lattice
    pts = b.exact_points()
    roots = [e for e in lat.exact_e if e is not None]
    rest = [Fraction(y) for y in (0, 1, -1, 2, -2, Fraction(1, 2), 3, -3) if Fraction(y) not in roots]
    assert [pt.values[0] for pt in pts] == roots + rest
    for pt in pts:
        y0 = pt.values[0]
        d = 4 * y0**3 - b.g2 * y0 - b.g3
        assert pt.root == (d or None) and (d == 0) == (y0 in roots)
        v1 = _curve_v(lat, complex(y0), 1 if d else 2)
        v = (v1,) if b.n == 1 else (v1, b.epsilon * lat.eval_many(np.array([v1]), count=3)[2][0])
        values, jac, bad = b.value_jacobian([v])
        assert not bad[0]
        for got, exact in zip(values[0], pt.values):
            assert abs(got - complex(exact)) < 1e-9
        for grow, erow in zip(jac[0], pt.jac):
            for got, exact in zip(grow, erow):
                if exact is None:  # the slot of sqrt(root): either sign is a value
                    assert abs(got**2 - complex(pt.root)) < 1e-8 * (1 + abs(pt.root))
                else:
                    assert abs(got - complex(exact)) < 1e-9


def test_weierstrass_backend_half_period_value_and_pole():
    b = make_backend("weierstrass", {"g2": Fraction(4), "g3": Fraction(0)})
    lat = b.lattice
    values, jac, bad = b.value_jacobian([(lat.omega1,), (0j,)])
    assert abs(values[0, 0] - 1) < 1e-10
    assert abs(jac[0, 0, 0]) < 1e-9
    labels = [pt.label for pt in b.exact_points()]
    assert labels[:4] == ["y1 = 1, w1_1 = 0", "y1 = -1, w1_1 = 0", "y1 = 0, w1_1 = 0", "y1 = 2, w1_1 = sqrt(24)"]
    assert bad.tolist() == [False, True]


def test_exact_roots_survive_an_invariant_denominator_past_a_million():
    # e = -3 is a root of 4e^3 - g2*e - g3; it is exact only when checked
    # against the exact invariants, whose denominator is 322346116
    g2, g3 = Fraction(11603921581, 322346116), Fraction(-1615785, 322346116)
    assert 4 * Fraction(-3) ** 3 - g2 * Fraction(-3) - g3 == 0
    b = make_backend("singular2-case4", {"g2": g2, "g3": g3})
    assert Fraction(-3) in b.lattice.exact_e
    assert b.exact_points()


def test_case4_periodicity():
    b = make_backend("singular2-case4", {"g2": Fraction(4), "g3": Fraction(0)})
    lat = b.lattice
    rng = random.Random(77)
    p1 = (2 * lat.omega1, 2 * lat.eta1)
    p2 = (2 * lat.omega2, 2 * lat.eta2)
    for period in (p1, p2):
        us = np.array([[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)] for _ in range(6)])
        values, _, bad = b.value_jacobian(np.concatenate([us, us + np.array(period)]))
        v0, v1 = values[:6], values[6:]
        for i in range(6):
            if bad[i]:
                continue
            assert abs(v0[i, 0] - v1[i, 0]) < 1e-9 * (1 + abs(v0[i, 0]))
            assert abs(v0[i, 1] - v1[i, 1]) < 1e-9 * (1 + abs(v0[i, 1]))


def test_case5_pole_predicate():
    b = make_backend("singular2-case5", {"g2": Fraction(4), "g3": Fraction(0), "a": Fraction(1, 2)})
    points = [(0j, 0.3 + 0j), (0.5 + 0j, 0.3 + 0j), (0.9 + 0.2j, 0.3 + 0j)]  # the second: zero of sigma(u1 - a)
    assert b.value_jacobian(points)[2].tolist() == [True, True, False]
    assert (b.pole_distance(points) < 1e-6).tolist() == [True, True, False]


def test_make_backend_errors():
    with pytest.raises(StructuralError):
        make_backend("nope", {})
    with pytest.raises(StructuralError):
        make_backend("weierstrass", {})
    with pytest.raises(StructuralError):
        make_backend("singular2-case9", {})
    with pytest.raises(Exception):
        make_backend("weierstrass", {"g2": Fraction(3), "g3": Fraction(1)})  # degenerate
    with pytest.raises(StructuralError, match="epsilon must be 0 or 1"):
        make_backend("singular2-case4", {"g2": Fraction(4), "g3": Fraction(0), "epsilon": Fraction(2)})
