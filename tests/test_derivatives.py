import random
from fractions import Fraction

import numpy as np
import pytest

from aat import naming
from aat.backends import make_backend
from aat.derivatives import Recursion, cauchy_partials
from aat.elimination import AATSystem, derive_first_order
from aat.parsing import parse_poly
from aat.sampling import draw_points

from exact_oracles import symbolic_second_derivative


_CACHE = {}


def _relations(family, params, texts=None, n=1, seed=42):
    key = (family, tuple(sorted(params.items())))
    if key in _CACHE:
        return _CACHE[key]
    backend = make_backend(family, params)
    ring = naming.problem_ring(n)
    if texts is None:
        polys = backend.addition_polys(ring, seed=0)
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


def _fd_derivatives(backend, u, h=1e-5):
    """(d2[k, p, q], d3[k, p, q, r]) at u, indices from 0, by central
    differences of the Jacobian; every shifted point goes through one call."""
    n = backend.n
    u = np.asarray(u, dtype=complex)
    steps = h * np.eye(n)
    shifted = [u + steps[q] for q in range(n)] + [u - steps[q] for q in range(n)]
    signs = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    shifted += [u + sq * steps[q] + sr * steps[r] for q in range(n) for r in range(n) for sq, sr in signs]
    _, jac, bad = backend.value_jacobian(shifted)
    assert not bad.any()
    d2 = np.stack([(jac[q] - jac[n + q]) / (2 * h) for q in range(n)], axis=-1)
    cross = jac[2 * n :].reshape(n, n, 4, n, n)
    d3 = (cross[:, :, 0] - cross[:, :, 1] - cross[:, :, 2] + cross[:, :, 3]) / (4 * h * h)
    return d2, d3.transpose(2, 3, 0, 1)


def _sample_points(backend, rng, count, box=0.9, margin=0.35):
    """The first `count` draws at least `margin` from every Weierstrass pole."""
    draws = np.array(
        [[complex(rng.uniform(-box, box), rng.uniform(-box, box)) for _ in range(backend.n)] for _ in range(4 * count)]
    )
    pts = draws[backend.pole_distance(draws) >= margin][:count]
    assert len(pts) == count
    return [tuple(u) for u in pts.tolist()]


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
        want2, want3 = _fd_derivatives(backend, u)
        assert np.all(abs(d2 - want2) <= 1e-6 * (1 + abs(want2)))
        assert np.all(abs(d3 - want3) <= 1e-6 * (1 + abs(want3)))


def test_exp_second_derivative_value():
    backend, relations = _relations("exp", {"c": Fraction(1)}, ["L1 - x1*y1"])
    got = _recursion_at(relations, backend, (0.4 + 0.2j,))[0][0, 0, 0]
    want = backend.value_jacobian([(0.4 + 0.2j,)])[0][0, 0]
    assert abs(got - want) < 1e-12


def test_additive_second_derivative_is_zero():
    backend, relations = _relations("rational", {}, ["L1 - x1 - y1"])
    got = _recursion_at(relations, backend, (0.3,))[0][0, 0, 0]
    assert abs(got) < 1e-12


def test_wp_symbolic_second_derivative():
    backend, relations = _relations("weierstrass", {"g2": Fraction(4), "g3": Fraction(0)})
    sym = symbolic_second_derivative(relations[0])
    assert str(sym) == "6*x1^2 - 2"


def test_recursion_singular_at_half_period():
    backend, relations = _relations("weierstrass", {"g2": Fraction(4), "g3": Fraction(0)})
    assert _recursion_at(relations, backend, (backend.lattice.omega1,))[2]
    assert not _recursion_at(relations, backend, (0.31 + 0.22j,))[2]


# -- Cauchy estimates on circles against closed forms ------------------------------


def _circles(backend, count=50, box=1.2, seed=5):
    """(values, jac, d2, d3) of `cauchy_partials` at `count` seeded draws from
    the box, all of them usable."""
    us = draw_points(random.Random(seed), count, backend.n, box)
    values, jac, bad = backend.value_jacobian(us)
    assert not bad.any()
    d2, d3, usable = cauchy_partials(backend, us, jac)
    assert usable.all()
    return values, jac, d2, d3


def _gap(got, want):
    return np.max(np.abs(got - want) / (1 + np.abs(want)))


@pytest.mark.parametrize(
    "g2,g3", [("4", "0"), ("18", "-2"), ("11603921581/322346116", "-1615785/322346116")]
)
def test_circles_give_the_derivatives_of_wp(g2, g3):
    # p'' = 6 p^2 - g2/2 and p''' = 12 p p', on draws that come as near the
    # pole at 0 as the box allows
    backend = make_backend("weierstrass", {"g2": Fraction(g2), "g3": Fraction(g3)})
    values, jac, d2, d3 = _circles(backend)
    p, dp = values[:, 0], jac[:, 0, 0]
    assert _gap(d2[:, 0, 0, 0], 6 * p**2 - float(Fraction(g2)) / 2) < 1e-12
    assert _gap(d3[:, 0, 0, 0, 0], 12 * p * dp) < 1e-12


@pytest.mark.parametrize("c", ["5/7", "-6/7", "30", "1/1000"])
def test_circles_give_the_derivatives_of_exp(c):
    # (e^(cu))^(m) = c^m e^(cu) for m = 2, 3
    backend = make_backend("exp", {"c": Fraction(c)})
    values, _, d2, d3 = _circles(backend)
    rate = float(Fraction(c))
    assert _gap(d2[:, 0, 0, 0], rate**2 * values[:, 0]) < 1e-12
    assert _gap(d3[:, 0, 0, 0, 0], rate**3 * values[:, 0]) < 1e-12


def test_circles_match_the_recursion_of_case_4():
    # every second and third partial, the mixed ones by polarization
    backend, relations = _relations("singular2-case4", {"g2": Fraction(4), "g3": Fraction(0)}, n=2)
    values, jac, d2, d3 = _circles(backend)
    want2, want3, singular = Recursion(relations, 2)(values, jac)
    assert not singular.any()
    assert _gap(d2, want2) < 1e-12 and _gap(d3, want3) < 1e-12


def test_circles_polarize_a_mixed_partial():
    # f2 = exp(u2) * sigma(u1 - a) / sigma(u1) of case 5 is its own u2
    # derivative, so its mixed third partials are its second partials in u1,
    # d3[1, p, 0, 1] = d2[1, p, 0], and d3[1, p, 1, 1] = jac[1, p]
    backend = make_backend("singular2-case5", {"g2": Fraction(4), "g3": Fraction(0), "a": Fraction(1, 2)})
    _, jac, d2, d3 = _circles(backend, box=0.9)
    assert np.abs(d2[:, 1, :, 0]).min() > 1e-3  # the u1 partials do not vanish
    assert _gap(d3[:, 1, :, 0, 1], d2[:, 1, :, 0]) < 1e-12
    assert _gap(d3[:, 1, :, 1, 0], d2[:, 1, :, 0]) < 1e-12
    assert _gap(d3[:, 1, :, 1, 1], jac[:, 1, :]) < 1e-12
