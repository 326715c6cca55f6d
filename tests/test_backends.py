import cmath
import random
from fractions import Fraction

import pytest

from aat.backends import make_backend
from aat.rings import PoleError, StructuralError


def _fd_jacobian(backend, u, h=1e-6):
    n = backend.n
    out = []
    for k in range(n):
        row = []
        for p in range(n):
            up = list(u)
            um = list(u)
            up[p] += h
            um[p] -= h
            row.append((backend.value(up)[k] - backend.value(um)[k]) / (2 * h))
        out.append(row)
    return out


def _check_jacobian(backend, rng, count=8, box=0.9):
    checked = 0
    while checked < count:
        u = [complex(rng.uniform(-box, box), rng.uniform(-box, box)) for _ in range(backend.n)]
        if backend.is_pole(u):
            continue
        jac = backend.jacobian(u)
        fd = _fd_jacobian(backend, u)
        for k in range(backend.n):
            for p in range(backend.n):
                scale = 1 + abs(jac[k][p])
                assert abs(jac[k][p] - fd[k][p]) < 2e-5 * scale
        checked += 1


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


def _scalar_value_jacobian(backend, u):
    """(value, jacobian) from the point methods, or None where they reject u."""
    if backend.is_pole(u):
        return None
    try:
        return backend.value(u), backend.jacobian(u)
    except PoleError:
        return None


@pytest.mark.parametrize("family,params", FAMILIES)
def test_value_jacobian_matches_point_methods(family, params):
    backend = make_backend(family, params)
    rng = random.Random(f"value_jacobian:{family}")
    points = [tuple(complex(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(backend.n)) for _ in range(300)]
    lat = backend.lattice
    if lat is not None:
        # three poles (one inside the pole radius) and a point just outside it
        for w in (0j, 2 * lat.omega1, 2 * lat.omega2 + 3e-7, 2 * lat.omega1 - 2e-6j):
            points.append((w,) + (0.3 + 0.2j,) * (backend.n - 1))
        if family == "singular2-case5":
            points.append((complex(backend.a) + 1e-8, 0.1 + 0j))
    values, jac, bad = backend.value_jacobian(points)
    assert values.shape == (len(points), backend.n)
    assert jac.shape == (len(points), backend.n, backend.n)
    rejected = 0
    for i, u in enumerate(points):
        want = _scalar_value_jacobian(backend, u)
        assert bad[i] == (want is None), u
        if want is None:
            rejected += 1
            continue
        for k in range(backend.n):
            assert abs(values[i, k] - want[0][k]) <= 1e-12 * (1 + abs(want[0][k]))
            for p in range(backend.n):
                assert abs(jac[i, k, p] - want[1][k][p]) <= 1e-12 * (1 + abs(want[1][k][p]))
    assert rejected == (0 if lat is None else 3 + (family == "singular2-case5"))
    for u in points:
        assert backend.is_pole(u) == (backend.pole_distance(u) < 1e-6), u
        if lat is None:
            assert backend.pole_distance(u) == float("inf")


@pytest.mark.parametrize("family,params", FAMILIES)
def test_expected_periods(family, params):
    backend = make_backend(family, params)
    expected = backend.expected_periods()
    lat = backend.lattice
    if family in ("rational", "singular2-case1"):
        assert expected == []
    elif family == "weierstrass":
        assert expected == [(2 * lat.omega1,), (2 * lat.omega2,)]
    elif family == "singular2-case4":
        eps = backend.epsilon
        assert expected == [(2 * lat.omega1, eps * 2 * lat.eta1), (2 * lat.omega2, eps * 2 * lat.eta2)]
    else:
        assert expected is None  # exp, cases 2, 3 and 5 state no lattice to check
    u = (0.31 + 0.17j, 0.2 - 0.1j)[: backend.n]
    for vec in expected or []:
        shifted = tuple(a + b for a, b in zip(u, vec))
        for got, want in zip(backend.value(shifted), backend.value(u)):
            assert abs(got - want) < 1e-9 * (1 + abs(want))


def test_exp_values():
    b = make_backend("exp", {"c": Fraction(1)})
    assert abs(b.value((0.5,))[0] - cmath.exp(0.5)) < 1e-15
    assert abs(b.jacobian((0.5,))[0][0] - cmath.exp(0.5)) < 1e-15
    pt = b.exact_points()[0]
    assert pt.values == (1,) and pt.jac == ((1,),)


def test_weierstrass_backend_half_period_values():
    b = make_backend("weierstrass", {"g2": Fraction(4), "g3": Fraction(0)})
    lat = b.lattice
    assert abs(b.value((lat.omega1,))[0] - 1) < 1e-10
    assert abs(b.jacobian((lat.omega1,))[0][0]) < 1e-9
    labels = {pt.values[0] for pt in b.exact_points()}
    assert labels == {Fraction(1), Fraction(-1), Fraction(0)}
    assert b.is_pole((0j,))


def test_case4_periodicity_and_exact_points():
    b = make_backend("singular2-case4", {"g2": Fraction(4), "g3": Fraction(0)})
    lat = b.lattice
    rng = random.Random(77)
    p1 = (2 * lat.omega1, 2 * lat.eta1)
    p2 = (2 * lat.omega2, 2 * lat.eta2)
    for period in (p1, p2):
        for _ in range(6):
            u = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)]
            if b.is_pole(u):
                continue
            v0 = b.value(u)
            v1 = b.value((u[0] + period[0], u[1] + period[1]))
            assert abs(v0[0] - v1[0]) < 1e-9 * (1 + abs(v0[0]))
            assert abs(v0[1] - v1[1]) < 1e-9 * (1 + abs(v0[1]))
    pts = b.exact_points()
    assert pts, "case4 should expose exact half-period points"
    for pt in pts:
        val = b.value(pt.v)
        jac = b.jacobian(pt.v)
        for got, exact in zip(val, pt.values):
            assert abs(got - complex(exact)) < 1e-9
        for grow, erow in zip(jac, pt.jac):
            for got, exact in zip(grow, erow):
                assert abs(got - complex(exact)) < 1e-9


def test_case5_pole_predicate():
    b = make_backend("singular2-case5", {"g2": Fraction(4), "g3": Fraction(0), "a": Fraction(1, 2)})
    assert b.is_pole((0j, 0.3 + 0j))
    assert b.is_pole((0.5 + 0j, 0.3 + 0j))  # zero of sigma(u1 - a)
    assert not b.is_pole((0.9 + 0.2j, 0.3 + 0j))


def test_make_backend_errors():
    with pytest.raises(StructuralError):
        make_backend("nope", {})
    with pytest.raises(StructuralError):
        make_backend("weierstrass", {})
    with pytest.raises(StructuralError):
        make_backend("singular2-case9", {})
    with pytest.raises(Exception):
        make_backend("weierstrass", {"g2": Fraction(3), "g3": Fraction(1)})  # degenerate
