import random
from fractions import Fraction

import pytest

from aat import naming
from aat.backends import make_backend
from aat.derivatives import Recursion, symbolic_second_derivative, taylor_match_check
from aat.elimination import AATSystem, derive_first_order
from aat.generate import build_auto_aat
from aat.parsing import parse_poly
from aat.ratfn import RatFn


_CACHE = {}


def _relations(family, params, texts=None, n=1, seed=42):
    key = (family, tuple(sorted(params.items())))
    if key in _CACHE:
        return _CACHE[key]
    backend = make_backend(family, params)
    ring = naming.problem_ring(n)
    if texts is None:
        polys = build_auto_aat(family, n, ring, backend, params, seed=0)
    else:
        polys = [parse_poly(t, ring) for t in texts]
    sys = AATSystem(n=n, ring=ring, polys=polys)
    relations, _ = derive_first_order(sys, backend, seed=seed)
    _CACHE[key] = (backend, relations)
    return backend, relations


def _recursion_at(relations, backend, u):
    """(d2[k, p, q], d3[k, p, q, r], singular) at one point, indices from 0."""
    values, jac, bad = backend.value_jacobian([u])
    assert not bad[0]
    d2, d3, singular = Recursion(relations, backend.n)(values, jac)
    return d2[0], d3[0], bool(singular[0])


def _fd2(backend, k, p, q, u, h=1e-5):
    up = list(u)
    um = list(u)
    up[q - 1] += h
    um[q - 1] -= h
    return (backend.jacobian(up)[k - 1][p - 1] - backend.jacobian(um)[k - 1][p - 1]) / (2 * h)


def _fd3(backend, k, p, q, r, u, h=1e-5):
    def j_at(shift_q, shift_r):
        w = list(u)
        w[q - 1] += shift_q
        w[r - 1] += shift_r
        return backend.jacobian(w)[k - 1][p - 1]

    return (j_at(h, h) - j_at(h, -h) - j_at(-h, h) + j_at(-h, -h)) / (4 * h * h)


def _sample_points(backend, rng, count, box=0.9, margin=0.35):
    pts = []
    while len(pts) < count:
        u = tuple(complex(rng.uniform(-box, box), rng.uniform(-box, box)) for _ in range(backend.n))
        if backend.is_pole(u):
            continue
        lat = getattr(backend, "lattice", None)
        if lat is not None and lat.lattice_distance(u[0]) < margin:
            continue
        pts.append(u)
    return pts


FAMILIES = [
    ("exp", {"c": Fraction(1)}, ["L1 - x1*y1"], 1),
    ("rational", {}, ["L1 - x1 - y1"], 1),
    ("weierstrass", {"g2": Fraction(4), "g3": Fraction(0)}, None, 1),
    ("singular2-case4", {"g2": Fraction(4), "g3": Fraction(0)}, None, 2),
]


@pytest.mark.parametrize("family,params,texts,n", FAMILIES)
def test_second_and_third_match_finite_differences(family, params, texts, n):
    backend, relations = _relations(family, params, texts, n)
    rng = random.Random(17)
    for u in _sample_points(backend, rng, 20):
        d2, d3, singular = _recursion_at(relations, backend, u)
        if singular:
            continue
        for k in range(1, n + 1):
            for p in range(1, n + 1):
                for q in range(1, n + 1):
                    got = d2[k - 1, p - 1, q - 1]
                    want = _fd2(backend, k, p, q, u)
                    assert abs(got - want) <= 1e-6 * (1 + abs(want))
                    for r in range(1, n + 1):
                        got3 = d3[k - 1, p - 1, q - 1, r - 1]
                        want3 = _fd3(backend, k, p, q, r, u)
                        assert abs(got3 - want3) <= 1e-6 * (1 + abs(want3))


def test_exp_second_derivative_value():
    backend, relations = _relations("exp", {"c": Fraction(1)}, ["L1 - x1*y1"])
    got = _recursion_at(relations, backend, (0.4 + 0.2j,))[0][0, 0, 0]
    want = backend.value((0.4 + 0.2j,))[0]
    assert abs(got - want) < 1e-12


def test_additive_second_derivative_is_zero():
    backend, relations = _relations("rational", {}, ["L1 - x1 - y1"])
    got = _recursion_at(relations, backend, (0.3,))[0][0, 0, 0]
    assert abs(got) < 1e-12


def test_wp_symbolic_second_derivative():
    backend, relations = _relations("weierstrass", {"g2": Fraction(4), "g3": Fraction(0)})
    sym = symbolic_second_derivative(relations[0])
    ring = relations[0].poly.ring
    assert sym == RatFn(parse_poly("6*x1^2 - 2", ring))


def test_recursion_singular_at_half_period():
    backend, relations = _relations("weierstrass", {"g2": Fraction(4), "g3": Fraction(0)})
    assert _recursion_at(relations, backend, (backend.lattice.omega1,))[2]
    assert not _recursion_at(relations, backend, (0.31 + 0.22j,))[2]


def test_taylor_match_wp_period_pair():
    backend, relations = _relations("weierstrass", {"g2": Fraction(4), "g3": Fraction(0)})
    a = (0.31 + 0.22j,)
    b = (a[0] + 2 * backend.lattice.omega1,)
    check = taylor_match_check(relations, backend, a, b, order=3)
    assert check.applicable and check.matched


def test_taylor_match_exp_2pi_pair():
    backend, relations = _relations("exp", {"c": Fraction(1)}, ["L1 - x1*y1"])
    import cmath

    a = (0.2 + 0.1j,)
    b = (a[0] + 2j * cmath.pi,)
    check = taylor_match_check(relations, backend, a, b, order=3)
    assert check.applicable and check.matched


def test_taylor_match_not_applicable_for_even_pair():
    backend, relations = _relations("weierstrass", {"g2": Fraction(4), "g3": Fraction(0)})
    a = (0.31 + 0.22j,)
    b = (-a[0],)  # wp matches, wp' flips sign: precondition must fail
    check = taylor_match_check(relations, backend, a, b, order=2)
    assert not check.applicable
    assert check.matched is None
