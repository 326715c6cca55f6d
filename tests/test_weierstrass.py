import random
from fractions import Fraction

import numpy as np
import pytest

try:
    import mpmath
except ImportError:  # the theta oracle is optional where a test can run without it
    mpmath = None

from aat.rings import DomainError
from aat.weierstrass import Lattice


@pytest.fixture(scope="module")
def lem():
    return Lattice(4, 0)


@pytest.fixture(scope="module")
def generic():
    # second real lattice with positive discriminant: g2^3 - 27 g3^2 = 98 > 0
    return Lattice(5, 1)


def _random_points(rng, count, scale=1.0):
    return np.array([complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale)) for _ in range(count)])


def _clear_of_lattice(lat, us, margin):
    """The points of `us` at least `margin` away from every lattice point."""
    us = np.asarray(us, dtype=complex)
    return us[np.abs(lat.reduce_many(us)[0]) >= margin]


def test_half_period_values_match_e_roots(lem, generic):
    for lat in (lem, generic):
        p, q, _, _ = lat.eval_many([lat.omega1, lat.omega2, lat.omega1 + lat.omega2])
        assert np.all(abs(p - np.array(lat.e_roots)) < 1e-10)
        assert np.all(abs(q) < 1e-9)


def test_lemniscatic_exact_roots(lem):
    assert lem.e_roots[0].real == pytest.approx(1.0, abs=1e-10)
    assert sorted(e.real for e in lem.e_roots) == pytest.approx([-1.0, 0.0, 1.0], abs=1e-10)
    assert set(lem.exact_e) == {Fraction(1), Fraction(-1), Fraction(0)}
    assert lem.exact_e[0] == 1  # p(omega1) = e1 = 1
    assert (lem.omega2 / lem.omega1).imag > 0


def test_wp_is_even_and_periodic(lem):
    us = _clear_of_lattice(lem, _random_points(random.Random(21), 20), 0.2)
    p = lem.eval_many(np.concatenate([us, -us, us + 2 * lem.omega1, us + 2 * lem.omega2]))[0].reshape(4, -1)
    scale = 1 + abs(p[0])
    assert np.all(abs(p[1] - p[0]) < 1e-10 * scale)
    assert np.all(abs(p[2:] - p[0]) < 1e-9 * scale)


def test_wp_satisfies_its_cubic(lem, generic):
    rng = random.Random(22)
    for lat in (lem, generic):
        us = _clear_of_lattice(lat, _random_points(rng, 200), 0.25)[:100]
        assert len(us) == 100
        p, q, _, _ = lat.eval_many(us)
        lhs = q * q
        rhs = 4 * p**3 - float(lat.g2) * p - float(lat.g3)
        assert np.all(abs(lhs - rhs) < 1e-9 * (1 + np.maximum(abs(lhs), abs(rhs))))


def test_zeta_quasi_periodicity(lem, generic):
    rng = random.Random(23)
    for lat in (lem, generic):
        us = _clear_of_lattice(lat, _random_points(rng, 10), 0.25)
        zeta = lat.eval_many(np.concatenate([us, us + 2 * lat.omega1, us + 2 * lat.omega2]))[2].reshape(3, -1)
        for got, shift in ((zeta[1] - zeta[0], 2 * lat.eta1), (zeta[2] - zeta[0], 2 * lat.eta2)):
            assert np.all(abs(got - shift) < 1e-9 * (1 + abs(shift)))


def test_sigma_quasi_periodicity(lem, generic):
    rng = random.Random(24)
    for lat in (lem, generic):
        us = _clear_of_lattice(lat, _random_points(rng, 10), 0.3)
        sigma = lat.eval_many(np.concatenate([us, us + 2 * lat.omega1, us + 2 * lat.omega2]))[3].reshape(3, -1)
        for lhs, (omega, eta) in zip(sigma[1:], ((lat.omega1, lat.eta1), (lat.omega2, lat.eta2))):
            rhs = -sigma[0] * np.exp(2 * eta * (us + omega))
            assert np.all(abs(lhs - rhs) < 1e-8 * (1 + abs(rhs)))


def test_zeta_and_sigma_derivatives(lem):
    # zeta' = -wp and sigma'/sigma = zeta, checked by central differences
    h = 1e-5
    us = _clear_of_lattice(lem, _random_points(random.Random(25), 10), 0.3)
    p, _, zeta, sigma = (np.split(f, 3) for f in lem.eval_many(np.concatenate([us, us + h, us - h])))
    dzeta = (zeta[1] - zeta[2]) / (2 * h)
    assert np.all(abs(dzeta + p[0]) < 1e-6 * (1 + abs(p[0])))
    dsig = (sigma[1] - sigma[2]) / (2 * h)
    assert np.all(abs(dsig / sigma[0] - zeta[0]) < 1e-6 * (1 + abs(zeta[0])))


def test_wp_prime_matches_difference_quotient(lem):
    h = 1e-5
    us = _clear_of_lattice(lem, _random_points(random.Random(26), 10), 0.3)
    p, q, _, _ = (np.split(f, 3) for f in lem.eval_many(np.concatenate([us, us + h, us - h])))
    fd = (p[1] - p[2]) / (2 * h)
    assert np.all(abs(fd - q[0]) < 1e-5 * (1 + abs(q[0])))


def test_pole_and_degenerate_lattice(lem):
    # lattice points come back as nan in all four entries
    for f in lem.eval_many([0j, 2 * lem.omega1 + 1e-14]):
        assert np.all(np.isnan(f))
    with pytest.raises(DomainError):
        Lattice(3, 1)  # g2^3 = 27 g3^2 exactly
    with pytest.raises(DomainError):
        Lattice(0, 0)
    with pytest.raises(DomainError, match="too large"):
        Lattice(Fraction(10**300), 0)  # g2^3 overflows a float
    with pytest.raises(DomainError, match="near-degenerate"):
        Lattice(3 + Fraction(1, 10**20), 1)  # nonzero, but 0 in floats


def test_small_invariants_are_a_scaled_lattice():
    # (7/7473045, 0) is a scaled lemniscatic lattice (DLMF 23.10(iv)): its
    # exact discriminant is nonzero, and the degeneracy guard is relative
    g2 = Fraction(7, 7473045)
    small = Lattice(g2, 0)
    omega = Lattice(4, 0).omega1 * (4 / g2) ** 0.25
    assert abs(small.omega1 - omega) < 1e-12 * abs(omega)


def test_values_reproducible(lem):
    u = 0.37 + 0.79j
    assert lem.eval_many([u])[0][0] == lem.eval_many([u])[0][0]


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
    """Each row of a 2000-point batch equals its point evaluated alone, so
    the batch's masks and branches (halving, unreduce) never mix rows; a
    stride of the one-point values is checked against the theta oracle
    where mpmath is installed."""
    lat = Lattice(g2, g3)
    pts = _batch_points(lat, random.Random(f"batch:{g2}:{g3}"))
    batch = lat.eval_many(pts)
    oracle = theta_oracle(mpmath, lat)[0] if mpmath is not None else None
    for i, u in enumerate(pts):
        alone = [f[0] for f in lat.eval_many([u])]
        for got, want in zip((f[i] for f in batch), alone):
            assert abs(got - want) <= 1e-12 * (1 + abs(want)), (u, got, want)
        if oracle is not None and i % 40 == 0:
            for value, want in zip(alone, oracle(u)):
                assert abs(value - want) <= 1e-12 * (1 + abs(want)), (u, value, want)


def test_batch_points_reach_the_halving_region():
    # (7, -3) has cell corners at 0.84 of the shortest period, beyond the
    # 0.75 halving threshold, so its differential check covers duplication
    lat = Lattice(7, -3)
    pts = _batch_points(lat, random.Random("batch:7:-3"))
    reduced = abs(lat.reduce_many(pts)[0])
    assert (reduced > 0.75 * _shortest_period(lat)).sum() >= 50


@pytest.mark.parametrize("g2,g3", BATCH_LATTICES)
def test_eval_many_leading_functions_equal_the_full_set(g2, g3):
    # asking for fewer functions skips the others' sums and shifts, and the
    # ones it returns are the full evaluation's, bit for bit, nan included
    lat = Lattice(g2, g3)
    pts = _batch_points(lat, random.Random(f"leading:{g2}:{g3}")) + [0j, 2 * lat.omega1]
    full = lat.eval_many(pts)
    for count in (2, 3):
        part = lat.eval_many(pts, count=count)
        assert len(part) == count
        for got, want in zip(part, full):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("g2,g3", BATCH_LATTICES)
def test_eval_many_satisfies_the_cubic(g2, g3):
    lat = Lattice(g2, g3)
    pts = _clear_of_lattice(lat, _batch_points(lat, random.Random(f"cubic:{g2}:{g3}")), 0.25)
    p, q, _, _ = lat.eval_many(pts)
    rhs = 4 * p**3 - float(lat.g2) * p - float(lat.g3)
    assert np.all(abs(q * q - rhs) <= 1e-9 * (1 + np.maximum(abs(q * q), abs(rhs))))


def test_eval_many_marks_lattice_points():
    lat = Lattice(7, -3)
    pts = [0j, 2 * lat.omega1 + 2 * lat.omega2, 0.3 + 0.1j]
    batch = lat.eval_many(pts)
    for f in batch:
        assert np.isnan(f[0]) and np.isnan(f[1]) and np.isfinite(f[2])
    # a batch row equals the same point evaluated alone, up to rounding
    assert batch[0][2] == pytest.approx(lat.eval_many([0.3 + 0.1j])[0][0], rel=1e-14)


def theta_oracle(mp, lat):
    """u -> (p, p', zeta, sigma) of the lattice from Jacobi theta functions
    (DLMF 23.6.2, 23.6.8, 23.6.9, 23.6.13) in mpmath, independent of the
    series, plus eta1.  p' is the derivative of the theta quotient for p.
    Everything runs at 30 digits, so that a point a few 1e-6 from a lattice
    point keeps the digits of its offset."""
    with mp.workdps(30):
        w1 = mp.mpc(lat.omega1)
        q = mp.exp(1j * mp.pi * mp.mpc(lat.omega2) / w1)
        k = mp.pi / (2 * w1)
        th2, th4 = mp.jtheta(2, 0, q), mp.jtheta(4, 0, q)
        d1 = mp.jtheta(1, 0, q, 1)
        c = d1 / th2
        e1 = k**2 / 3 * (th2**4 + 2 * th4**4)
        eta1 = -(k**2 * w1 / 3) * mp.jtheta(1, 0, q, 3) / d1

    def at(u):
        with mp.workdps(30):
            u = mp.mpc(u)
            z = k * u
            t1, t2 = mp.jtheta(1, z, q), mp.jtheta(2, z, q)
            dt1, dt2 = mp.jtheta(1, z, q, 1), mp.jtheta(2, z, q, 1)
            ratio = c * t2 / t1
            p = e1 + k**2 * ratio**2
            dp = 2 * k**3 * ratio * c * (dt2 * t1 - t2 * dt1) / t1**2
            zeta = eta1 * u / w1 + k * dt1 / t1
            sigma = mp.exp(eta1 * u**2 / (2 * w1)) * t1 / (k * d1)
            return tuple(complex(v) for v in (p, dp, zeta, sigma))

    return at, complex(eta1)


@pytest.mark.parametrize("g2,g3", BATCH_LATTICES)
def test_wp_matches_theta_quotient(g2, g3):
    """p, p', zeta and sigma of eval_many against the theta oracle, at points
    over several cells and near cell corners (past the halving radius on
    (7, -3)), and eta1 of the lattice."""
    mp = pytest.importorskip("mpmath")
    lat = Lattice(g2, g3)
    oracle, eta1 = theta_oracle(mp, lat)
    assert abs(lat.eta1 - eta1) <= 1e-13 * (1 + abs(eta1))
    pts = _clear_of_lattice(lat, _batch_points(lat, random.Random(f"theta:{g2}:{g3}"), count=70), 0.2)
    got = lat.eval_many(pts)
    for i, u in enumerate(pts.tolist()):
        for value, want in zip((f[i] for f in got), oracle(u)):
            assert abs(value - want) <= 1e-12 * (1 + abs(want)), (u, value, want)
    if (g2, g3) == (7, -3):
        assert (abs(lat.reduce_many(pts)[0]) > 0.75 * _shortest_period(lat)).sum() >= 10
