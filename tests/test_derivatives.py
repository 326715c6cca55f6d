import random
from fractions import Fraction

import numpy as np
import pytest

from aat import naming
from aat.backends import make_backend
from aat.derivatives import Recursion
from aat.elimination import AATSystem, derive_first_order
from aat.parsing import parse_poly
from aat.ratfn import RatFn

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
    ring = relations[0].poly.ring
    assert sym == RatFn(parse_poly("6*x1^2 - 2", ring))


def test_recursion_singular_at_half_period():
    backend, relations = _relations("weierstrass", {"g2": Fraction(4), "g3": Fraction(0)})
    assert _recursion_at(relations, backend, (backend.lattice.omega1,))[2]
    assert not _recursion_at(relations, backend, (0.31 + 0.22j,))[2]
