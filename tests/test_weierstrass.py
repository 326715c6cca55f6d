import cmath
import random
from fractions import Fraction

import numpy as np
import pytest

from aat.rings import DomainError, PoleError
from aat.weierstrass import Lattice


@pytest.fixture(scope="module")
def lem():
    return Lattice(4, 0)


@pytest.fixture(scope="module")
def generic():
    # second real lattice with positive discriminant: g2^3 - 27 g3^2 = 98 > 0
    return Lattice(5, 1)


def _random_points(rng, count, scale=1.0):
    return [
        complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
        for _ in range(count)
    ]


def test_half_period_values_match_e_roots(lem, generic):
    for lat in (lem, generic):
        halves = (lat.omega1, lat.omega2, lat.omega1 + lat.omega2)
        for h, e in zip(halves, lat.e_roots):
            assert abs(lat.wp(h) - e) < 1e-10
            assert abs(lat.wp_prime(h)) < 1e-9


def test_lemniscatic_exact_roots(lem):
    assert lem.e_roots[0].real == pytest.approx(1.0, abs=1e-10)
    assert sorted(e.real for e in lem.e_roots) == pytest.approx([-1.0, 0.0, 1.0], abs=1e-10)
    assert set(lem.exact_e) == {Fraction(1), Fraction(-1), Fraction(0)}
    assert lem.exact_e[0] == 1  # p(omega1) = e1 = 1
    assert (lem.omega2 / lem.omega1).imag > 0


def test_wp_is_even_and_periodic(lem):
    rng = random.Random(21)
    for u in _random_points(rng, 20):
        if lem.lattice_distance(u) < 0.2:
            continue
        assert abs(lem.wp(-u) - lem.wp(u)) < 1e-10 * (1 + abs(lem.wp(u)))
        for p in (2 * lem.omega1, 2 * lem.omega2):
            assert abs(lem.wp(u + p) - lem.wp(u)) < 1e-9 * (1 + abs(lem.wp(u)))


def test_wp_satisfies_its_cubic(lem, generic):
    rng = random.Random(22)
    for lat in (lem, generic):
        checked = 0
        for u in _random_points(rng, 200):
            if lat.lattice_distance(u) < 0.25:
                continue
            p, q, _, _ = lat.eval_all(u)
            lhs = q * q
            rhs = 4 * p**3 - lat.g2 * p - lat.g3
            scale = 1 + max(abs(lhs), abs(rhs))
            assert abs(lhs - rhs) < 1e-9 * scale
            checked += 1
            if checked >= 100:
                break
        assert checked >= 100


def test_zeta_quasi_periodicity(lem, generic):
    rng = random.Random(23)
    for lat in (lem, generic):
        pairs = ((2 * lat.omega1, 2 * lat.eta1), (2 * lat.omega2, 2 * lat.eta2))
        for u in _random_points(rng, 10):
            if lat.lattice_distance(u) < 0.25:
                continue
            for period, shift in pairs:
                got = lat.zeta(u + period) - lat.zeta(u)
                assert abs(got - shift) < 1e-9 * (1 + abs(shift))


def test_sigma_quasi_periodicity(lem, generic):
    rng = random.Random(24)
    for lat in (lem, generic):
        pairs = ((lat.omega1, lat.eta1), (lat.omega2, lat.eta2))
        for u in _random_points(rng, 10):
            if lat.lattice_distance(u) < 0.3:
                continue
            for omega, eta in pairs:
                lhs = lat.sigma(u + 2 * omega)
                rhs = -lat.sigma(u) * cmath.exp(2 * eta * (u + omega))
                assert abs(lhs - rhs) < 1e-8 * (1 + abs(rhs))


def test_zeta_and_sigma_derivatives(lem):
    # zeta' = -wp and sigma'/sigma = zeta, checked by central differences
    rng = random.Random(25)
    h = 1e-5
    for u in _random_points(rng, 10):
        if lem.lattice_distance(u) < 0.3:
            continue
        dzeta = (lem.zeta(u + h) - lem.zeta(u - h)) / (2 * h)
        assert abs(dzeta + lem.wp(u)) < 1e-6 * (1 + abs(lem.wp(u)))
        dsig = (lem.sigma(u + h) - lem.sigma(u - h)) / (2 * h)
        assert abs(dsig / lem.sigma(u) - lem.zeta(u)) < 1e-6 * (1 + abs(lem.zeta(u)))


def test_wp_prime_matches_difference_quotient(lem):
    rng = random.Random(26)
    h = 1e-5
    for u in _random_points(rng, 10):
        if lem.lattice_distance(u) < 0.3:
            continue
        fd = (lem.wp(u + h) - lem.wp(u - h)) / (2 * h)
        assert abs(fd - lem.wp_prime(u)) < 1e-5 * (1 + abs(lem.wp_prime(u)))


def test_pole_and_degenerate_lattice(lem):
    with pytest.raises(PoleError):
        lem.wp(0)
    with pytest.raises(PoleError):
        lem.wp(2 * lem.omega1 + 1e-14)
    assert lem.sigma(0) == 0
    with pytest.raises(DomainError):
        Lattice(3, 1)  # g2^3 = 27 g3^2 exactly
    with pytest.raises(DomainError):
        Lattice(0, 0)


def test_values_reproducible(lem):
    u = 0.37 + 0.79j
    assert lem.wp(u) == lem.wp(u)


# the lattices of the batched-layer checks: real and complex cubic roots,
# g3 = 0, negative invariants, and the equianharmonic g2 = 0
BATCH_LATTICES = [
    (4, 0),
    (7, -3),
    (Fraction(8, 3), -7),
    (1, 1),
    (Fraction(-2, 3), 0),
    (Fraction(-5, 2), Fraction(-4, 3)),
    (1, 0),
    (0, 1),
]


def _shortest_period(lat):
    return min(
        abs(2 * m * lat.omega1 + 2 * n * lat.omega2)
        for m in range(-2, 3)
        for n in range(-2, 3)
        if (m, n) != (0, 0)
    )


def _batch_points(lat, rng, count=2000):
    """Random points over several cells, a quarter of them near cell corners."""
    corners = (lat.omega1 + lat.omega2, lat.omega1 - lat.omega2, lat.omega1, lat.omega2)
    pts = []
    for i in range(count):
        if i % 4:
            pts.append(complex(rng.uniform(-6, 6), rng.uniform(-6, 6)))
        else:
            c = corners[i % 16 // 4] * rng.choice((1, -1, 3))
            pts.append(c + complex(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)))
    return pts


@pytest.mark.parametrize("g2,g3", BATCH_LATTICES)
def test_eval_many_matches_eval_all(g2, g3):
    lat = Lattice(g2, g3)
    pts = _batch_points(lat, random.Random(f"batch:{g2}:{g3}"))
    batch = lat.eval_many(pts)
    for i, u in enumerate(pts):
        for got, want in zip((f[i] for f in batch), lat.eval_all(u)):
            assert abs(got - want) <= 1e-12 * (1 + abs(want)), (u, got, want)


def test_batch_points_reach_the_halving_region():
    # (7, -3) has cell corners at 0.84 of the shortest period, beyond the
    # 0.75 halving threshold, so its differential check covers duplication
    lat = Lattice(7, -3)
    pts = _batch_points(lat, random.Random("batch:7:-3"))
    reduced = abs(lat.reduce_many(pts)[0])
    assert (reduced > 0.75 * _shortest_period(lat)).sum() >= 50


@pytest.mark.parametrize("g2,g3", BATCH_LATTICES)
def test_eval_many_satisfies_the_cubic(g2, g3):
    lat = Lattice(g2, g3)
    pts = [u for u in _batch_points(lat, random.Random(f"cubic:{g2}:{g3}")) if lat.lattice_distance(u) > 0.25]
    p, q, _, _ = lat.eval_many(pts)
    rhs = 4 * p**3 - lat.g2 * p - lat.g3
    assert np.all(abs(q * q - rhs) <= 1e-9 * (1 + np.maximum(abs(q * q), abs(rhs))))


def test_eval_many_marks_lattice_points():
    lat = Lattice(7, -3)
    pts = [0j, 2 * lat.omega1 + 2 * lat.omega2, 0.3 + 0.1j]
    batch = lat.eval_many(pts)
    for f in batch:
        assert np.isnan(f[0]) and np.isnan(f[1]) and np.isfinite(f[2])
    assert batch[0][2] == pytest.approx(lat.wp(0.3 + 0.1j), rel=1e-14)


@pytest.mark.parametrize("g2,g3", BATCH_LATTICES)
def test_wp_matches_theta_quotient(g2, g3):
    """p against DLMF 23.6.2-23.6.5 in mpmath, independent of the series."""
    mp = pytest.importorskip("mpmath")
    lat = Lattice(g2, g3)
    w1 = mp.mpc(lat.omega1)
    q = mp.exp(1j * mp.pi * mp.mpc(lat.omega2) / w1)
    scale = (mp.pi / (2 * w1)) ** 2
    th2, th4 = mp.jtheta(2, 0, q), mp.jtheta(4, 0, q)
    e1 = scale / 3 * (th2**4 + 2 * th4**4)
    ratio = mp.jtheta(1, 0, q, 1) / th2

    def wp(u):
        xi = mp.pi * u / (2 * w1)
        return complex(e1 + scale * (ratio * mp.jtheta(2, xi, q) / mp.jtheta(1, xi, q)) ** 2)

    rng = random.Random(f"theta:{g2}:{g3}")
    pts = [u for u in _random_points(rng, 60, scale=3.0) if lat.lattice_distance(u) > 0.2][:30]
    got = lat.eval_many(pts)[0]
    for u, value in zip(pts, got):
        want = wp(u)
        assert abs(value - want) <= 1e-11 * (1 + abs(want)), (u, value, want)
