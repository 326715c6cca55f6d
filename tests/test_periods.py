import cmath
import random
from fractions import Fraction

import numpy as np
import pytest

from aat.backends import make_backend
from aat import naming, periods
from aat.periods import (
    _newton,
    _verify_periods,
    detect_period,
    integer_combinations,
    reduce_candidates,
)
from aat.sampling import DEFAULT_BOX, DrawBank, draw_bank, draw_points

CASE5 = ("singular2-case5", {"g2": Fraction(4), "g3": Fraction(0), "a": Fraction(1, 2)})


def is_integer_combination(p, basis, tol):
    return integer_combinations([p], basis, tol)[0]


def _at(backend, point):
    """(values, jacobian) at one point through a one-row call, None where it is bad."""
    values, jac, bad = backend.value_jacobian([point])
    return None if bad[0] else (values[0], jac[0])


def _newton_one(backend, target, b0, *, iters=40, tol=1e-12):
    """One seed at a time: the reference for _newton."""
    b = np.array(b0, dtype=complex)

    def mismatch(point):
        at = _at(backend, point)
        return None if at is None else at[0] - target

    err = mismatch(b)
    if err is None:
        return None
    for _ in range(iters):
        size = max(abs(c) for c in err)
        if size < tol:
            return tuple(b)
        try:
            step = np.linalg.solve(_at(backend, b)[1], err)
        except np.linalg.LinAlgError:
            return None
        if max(abs(c) for c in step) > 8.0:
            return None
        for _ in range(5):
            nerr = mismatch(b - step)
            if nerr is not None and max(abs(c) for c in nerr) < size:
                b, err = b - step, nerr
                break
            step = step / 2
        else:
            return None
    return None


def _verify_one(bank, p, *, samples, tol):
    """Row by row: the reference for _verify_periods, as (worst or None,
    rows read).  Each row u of the bank is read in draw order, F(u) from the
    bank and F(u + p) from a one-row call."""
    if len(bank.u) < 12 * samples:
        bank.extend(12 * samples - len(bank.u))
    worst, good, trials = 0.0, 0, 0
    while good < samples and trials < 12 * samples:
        i = trials
        trials += 1
        values, _, bad = bank.backend.value_jacobian([bank.u[i] + np.array(p)])
        if bank.bad[0, i] or bad[0]:
            continue
        for c0, c1 in zip(bank.val[0, i].tolist(), values[0].tolist()):
            if abs(c0) > 1e6:
                break
            worst = max(worst, abs(c0 - c1) / (1 + abs(c0)))
        else:
            good += 1
            if worst > tol:
                return None, trials
    return (worst if good >= samples else None), trials


@pytest.fixture(scope="module")
def wp_backend():
    return make_backend("weierstrass", {"g2": Fraction(4), "g3": Fraction(0)})


def test_weierstrass_period_lattice_recovered(wp_backend):
    lat = wp_backend.lattice
    found = detect_period(wp_backend, seed=11, tol=1e-9)
    assert len(found) == 2
    basis = [c.p for c in found]
    for expected in ((2 * lat.omega1,), (2 * lat.omega2,)):
        assert is_integer_combination(expected, basis, tol=1e-7)
    for got in basis:
        assert is_integer_combination(got, [(2 * lat.omega1,), (2 * lat.omega2,)], tol=1e-7)
    for cand in found:
        assert cand.residual < 1e-9


def test_rational_family_has_no_period():
    backend = make_backend("rational", {})
    assert detect_period(backend, seed=11, tol=1e-9) == []


def test_exp_period_is_2pi_i():
    backend = make_backend("exp", {"c": Fraction(1)})
    found = detect_period(backend, seed=11, tol=1e-9)
    assert len(found) == 1
    p = found[0].p[0]
    assert abs(p - 2j * cmath.pi) < 1e-8 or abs(p + 2j * cmath.pi) < 1e-8


@pytest.mark.parametrize("c,seed", [(22, 42), (-30, 279652)])
def test_a_generator_found_as_a_multiple_is_divided_down(c, seed):
    # exp with c = 22 at seed 42: the Newton grid finds only 4*omega; the
    # verified quotients 2*omega and omega replace it.  With c = -30 at seed
    # 279652 it finds 17*omega, which only the prime 17 divides down
    omega = 2j * cmath.pi / c
    found = detect_period(make_backend("exp", {"c": Fraction(c)}), tol=1e-9, seed=seed)
    assert len(found) == 1 and abs(abs(found[0].p[0]) - abs(omega)) < 1e-9


def test_case4_periods_match_quasi_period_vectors():
    backend = make_backend("singular2-case4", {"g2": Fraction(4), "g3": Fraction(0)})
    lat = backend.lattice
    found = detect_period(backend, seed=11, tol=1e-9)
    basis = [c.p for c in found]
    assert len(basis) == 2
    p1 = (2 * lat.omega1, 2 * lat.eta1)
    p2 = (2 * lat.omega2, 2 * lat.eta2)
    for expected in (p1, p2):
        assert is_integer_combination(expected, basis, tol=1e-7)
    for got in basis:
        assert is_integer_combination(got, [p1, p2], tol=1e-7)


def test_detected_periods_closed_under_negation(wp_backend):
    found = detect_period(wp_backend, seed=13, tol=1e-9)
    basis = [c.p for c in found]
    for g in basis:
        neg = tuple(-c for c in g)
        assert is_integer_combination(neg, basis, tol=1e-7)
        double = tuple(2 * c for c in g)
        assert is_integer_combination(double, basis, tol=1e-7)


def test_reduce_candidates_dedupes_combinations():
    w1, w2 = 2.0 + 0j, 2j
    cands = [(w1,), (w2,), (w1 + w2,), (3 * w1 - w2,), (w1,)]
    basis = reduce_candidates(cands, tol=1e-9)
    assert len(basis) == 2
    for c in cands:
        assert is_integer_combination(c, basis, tol=1e-9)


def _integer_combination_one(p, basis, tol):
    """One point at a time, one least-squares solve per reduction: the
    reference for integer_combinations."""
    def reduce(r):
        A = np.array([[x for c in b for x in (c.real, c.imag)] for b in basis]).T
        y = np.array([x for c in r for x in (c.real, c.imag)])
        coeffs, *_ = np.linalg.lstsq(A, y, rcond=None)
        for m, b in zip(coeffs, basis):
            if round(float(m)):
                r = [o - round(float(m)) * bb for o, bb in zip(r, b)]
        return r

    r = list(p)
    for _ in range(5 if basis else 0):
        r = reduce(r)
    size = lambda v: max(abs(c) for c in v)  # noqa: E731
    return size(r) <= tol * (1 + size(p))


@pytest.mark.parametrize("n", [1, 2])
def test_integer_combinations_match_one_point_at_a_time(n):
    rng = np.random.default_rng(7)
    seen = []
    for _ in range(20):
        # up to two vectors more than the real rank 2n, so reductions repeat
        size = rng.integers(1, 2 * n + 3)
        basis = [tuple(rng.normal(size=n) + 1j * rng.normal(size=n)) for _ in range(size)]
        points = []
        for _ in range(12):
            p = sum(int(k) * np.array(b) for k, b in zip(rng.integers(-20, 21, len(basis)), basis))
            if rng.random() < 0.5:  # off the lattice by a little or a lot
                p = p + 10.0 ** rng.integers(-9, 0) * (rng.normal(size=n) + 1j * rng.normal(size=n))
            points.append(tuple(complex(c) for c in p))
        for tol in (1e-7, 1e-6):
            expect = [_integer_combination_one(p, basis, tol) for p in points]
            assert integer_combinations(points, basis, tol) == expect
            assert [is_integer_combination(p, basis, tol) for p in points] == expect
            seen += expect
    assert seen.count(True) > 50 and seen.count(False) > 50
    assert integer_combinations([], [(1 + 0j,)]) == []
    assert integer_combinations([(0j,), (1e-3 + 0j,)], []) == [True, False]


def test_determinism(wp_backend):
    a = detect_period(wp_backend, seed=11, tol=1e-9)
    b = detect_period(wp_backend, seed=11, tol=1e-9)
    assert [c.p for c in a] == [c.p for c in b]


def test_the_newton_base_is_the_first_usable_row_of_its_bank(monkeypatch):
    # lemniscatic at seed 42: the first row is usable, so the base point is
    # the first draw of the "period-base" stream, read from a bank of two rows
    backend = make_backend("weierstrass", {"g2": Fraction(4), "g3": Fraction(0)})
    calls, newton = [], periods._newton

    def spy(backend, target, seeds, **kw):
        calls.append((target, seeds))
        return newton(backend, target, seeds, **kw)

    monkeypatch.setattr(periods, "_newton", spy)
    detect_period(backend, seed=42, tol=1e-9)
    bank = backend.banks["period-base", 42, 0.8]
    usable = ~bank.bad[0] & (np.max(np.abs(bank.val[0]), axis=1) <= 1e4)
    first = int(np.argmax(usable))
    [(target, seeds)] = calls
    span = backend.period_box()
    assert len(bank.u) == 2 and usable[first]
    assert seeds[0] == (bank.u[first, 0] + complex(-span, -span),)
    assert np.array_equal(target, bank.val[0, first])
    reference = draw_points(random.Random(naming.stage_seed(42, "period-base")), 1, 1, 0.8)[0]
    assert np.array_equal(bank.u[first], reference)


def test_detect_period_makes_no_point_evaluation(monkeypatch):
    # the catalog's case-5 backend; every Newton step evaluates all live
    # seeds at once, so a return to per-seed solves shows up as more
    # evaluator calls than there are seeds
    from aat.weierstrass import Lattice

    backend = make_backend("singular2-case5", {"g2": Fraction(4), "g3": Fraction(0), "a": Fraction(1, 2)})
    calls = []
    original = Lattice.eval_many

    def counted(self, us, reduced=None):
        calls.append(np.size(us))
        return original(self, us, reduced)

    monkeypatch.setattr(Lattice, "eval_many", counted)
    found = detect_period(backend, seed=42, tol=1e-9)
    assert len(found) == 3
    assert 0 < len(calls) < max(calls)


@pytest.mark.parametrize(
    "family,params",
    [
        ("weierstrass", {"g2": Fraction(7), "g3": Fraction(-3)}),
        ("exp", {"c": Fraction(1)}),
        ("singular2-case4", {"g2": Fraction(4), "g3": Fraction(0)}),
        CASE5,
    ],
)
def test_array_newton_matches_one_seed_at_a_time(family, params):
    backend = make_backend(family, params)
    rng = random.Random(f"newton:{family}")
    base = tuple(draw_points(rng, 1, backend.n, 0.8)[0].tolist())
    target = _at(backend, base)[0]
    seeds = [tuple(b + complex(rng.uniform(-4, 4), rng.uniform(-4, 4)) for b in base) for _ in range(120)]
    solved, jac, converged = _newton(backend, target, seeds)
    for i, b0 in enumerate(seeds):
        want = _newton_one(backend, target, b0)
        assert converged[i] == (want is not None), b0
        if want is not None:
            assert max(abs(x - y) for x, y in zip(solved[i], want)) < 1e-9
            assert np.allclose(jac[i], _at(backend, want)[1], rtol=1e-9, atol=1e-9)
    assert 0 < converged.sum() < len(seeds)


def test_batched_verification_replays_the_sequential_rules(monkeypatch):
    case5 = make_backend(*CASE5)
    lat, a = case5.lattice, complex(case5.a)
    case3 = make_backend("singular2-case3", {})
    checks = {
        case5: [
            ((2 * lat.omega1, 2 * lat.eta1 * a), True),
            ((2 * lat.omega2, 2 * lat.eta2 * a), True),
            ((2 * lat.omega1, 0j), False),
        ],
        case3: [
            # with box 20 about 15% of the rows have a component above 1e6
            ((2j * cmath.pi, -2j * cmath.pi), True),
            ((2j * cmath.pi, 1e-3), False),
        ],
    }
    for backend, cases in checks.items():
        for box in (1.0, 3.0, 20.0):
            # one batched call over all candidates of the backend, and each
            # candidate on its own; a new bank grows as the rows are read,
            # and the reference's bank holds all 12*samples rows up front
            reference = DrawBank(backend, "residual", 5, box)
            together = _verify_periods(DrawBank(backend, "residual", 5, box), [p for p, _ in cases], samples=50, tol=1e-9)
            for (p, is_period), got in zip(cases, together):
                want, _ = _verify_one(reference, p, samples=50, tol=1e-9)
                assert (want is not None) == is_period, (p, box)
                assert _verify_periods(reference, [p], samples=50, tol=1e-9) == [got]
                assert (got is None) == (want is None), (p, box)
                if want is not None:
                    assert got == pytest.approx(want, rel=1e-12, abs=0)
    # at box 20 the case-3 batch has a period that reads past its first
    # chunk and a non-period that fails on its first counted row: one round
    # evaluates both first chunks, the next only the period's refill
    period, other = (p for p, _ in checks[case3])
    bank = DrawBank(case3, "residual", 5, 20.0)
    assert _verify_one(bank, period, samples=50, tol=1e-9)[1] > 50
    assert _verify_one(bank, other, samples=50, tol=1e-9) == (None, 1)
    evaluate, calls = case3.value_jacobian, []
    monkeypatch.setattr(case3, "value_jacobian", lambda points: calls.append(len(points)) or evaluate(points))
    _verify_periods(bank, [period, other], samples=50, tol=1e-9)
    assert calls[0] == 100 and len(calls) == 2


@pytest.mark.parametrize(
    "family,params",
    [("weierstrass", {"g2": Fraction(4), "g3": Fraction(0)}), CASE5],
)
def test_verification_evaluates_only_the_draws_it_reads(monkeypatch, family, params):
    # the catalog's weierstrass and case-5 backends: F(u) comes from the
    # bank, so every point a round evaluates is u + p for a candidate p and
    # a row u that the bank already holds or has just been extended by, and
    # the bank grows only as far as some candidate reads
    backend = make_backend(family, params)
    bank = draw_bank(backend, "residual", 42, DEFAULT_BOX)
    verify, evaluate, extend = periods._verify_periods, backend.value_jacobian, bank.extend
    # (points, the candidates, the bank's rows u) of every evaluator call
    # that does not extend the bank
    rounds, current, extending = [], [], []

    def spy_extend(count):
        extending.append(count)
        try:
            extend(count)
        finally:
            extending.pop()

    def spy_evaluate(points):
        if not extending:
            rounds.append((np.array(points), np.array(current[-1], dtype=complex), bank.u.copy()))
        return evaluate(points)

    def spy_verify(bank, ps, **kw):
        current.append(ps)
        monkeypatch.setattr(backend, "value_jacobian", spy_evaluate)
        try:
            return verify(bank, ps, **kw)
        finally:
            monkeypatch.setattr(backend, "value_jacobian", evaluate)

    monkeypatch.setattr(bank, "extend", spy_extend)
    monkeypatch.setattr(periods, "_verify_periods", spy_verify)
    assert detect_period(backend, seed=42, tol=1e-9) and rounds
    read = set()
    for points, ps, us in rounds:
        # the distance of each point from each u + p
        gaps = np.abs(points[:, None, None, :] - us[None, :, None, :] - ps[None, None, :, :]).max(axis=-1)
        assert (gaps.min(axis=(1, 2)) < 1e-12).all()
        read |= set(np.flatnonzero((gaps < 1e-12).any(axis=(0, 2))).tolist())
    assert max(read) == len(bank.u) - 1
