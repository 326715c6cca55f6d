import ast
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from aat import naming
from aat.backends import make_backend
from aat.elimination import AATSystem, derive_first_order
from aat.parsing import parse_poly
from aat.pipeline import run_problem
from aat.problem import load_problem
from aat.rings import PoleError, StructuralError
from aat.sampling import (
    DEFAULT_BOX,
    PROBE_SAMPLES,
    VALUE_CAP,
    DrawBank,
    ResidualReport,
    SamplingError,
    draw_points,
    residual_check,
    vanishes,
)
from test_backends import FAMILIES


def test_exp_addition_residual_is_tiny():
    ring = naming.problem_ring(1)
    g = parse_poly("L1 - x1*y1", ring)
    backend = make_backend("exp", {"c": Fraction(1)})
    rep = residual_check(g, backend, relation_id="aat", samples=100, seed=42, tol=1e-12)
    assert rep.ok and rep.max < 1e-12
    assert rep.samples == 100


def test_corrupted_relation_fails():
    ring = naming.problem_ring(1)
    bad = parse_poly("L1 + x1*y1", ring)  # sign flipped
    backend = make_backend("exp", {"c": Fraction(1)})
    rep = residual_check(bad, backend, relation_id="bad", samples=50, seed=42, tol=1e-9)
    assert not rep.ok


def test_weierstrass_ode_relation():
    ring = naming.problem_ring(1)
    p = parse_poly("z1_1^2 - 4*x1^3 + 4*x1", ring)
    backend = make_backend("weierstrass", {"g2": Fraction(4), "g3": Fraction(0)})
    rep = residual_check(p, backend, relation_id="ode", samples=100, seed=7, tol=1e-9)
    assert rep.ok
    assert rep.p95 < 1e-9


def test_theta_binding_and_determinism():
    ring = naming.problem_ring(1)
    v = parse_poly("theta^2 - 4*x1^3 + 4*x1", ring)
    backend = make_backend("weierstrass", {"g2": Fraction(4), "g3": Fraction(0)})
    alpha = ((Fraction(1),),)
    rep1 = residual_check(v, backend, relation_id="v", samples=60, seed=3, tol=1e-9, alpha=alpha)
    rep2 = residual_check(v, backend, relation_id="v", samples=60, seed=3, tol=1e-9, alpha=alpha)
    assert rep1 == rep2
    assert rep1.ok


def test_negation_mode_binds_y_to_minus_u():
    ring = naming.problem_ring(1)
    e = parse_poly("x1*y1 - 1", ring)  # exp(-u) = 1/exp(u)
    backend = make_backend("exp", {"c": Fraction(1)})
    rep = residual_check(e, backend, relation_id="neg", samples=60, seed=5, tol=1e-10, y_mode="neg")
    assert rep.ok


def test_pole_dominated_region_raises():
    ring = naming.problem_ring(1)
    p = parse_poly("z1_1^2 - 4*x1^3 + 4*x1", ring)
    backend = make_backend("weierstrass", {"g2": Fraction(4), "g3": Fraction(0)})
    with pytest.raises(SamplingError):
        residual_check(p, backend, relation_id="tiny", samples=40, seed=1, tol=1e-9, box=1e-7)


def test_vanishes_probe():
    ring = naming.problem_ring(1)
    backend = make_backend("exp", {"c": Fraction(2)})
    assert vanishes(parse_poly("z1_1 - 2*x1", ring), backend, seed=11)
    assert not vanishes(parse_poly("z1_1 - x1", ring), backend, seed=11)


# -- the report bank against a loop that tests one row at a time ---------------------


_POINT_OF = {"x": "u", "z": "u", "theta": "u", "y": "v", "w": "v", "L": "sum"}


def _bind_one(relation, backend, at, alpha):
    """Bindings at one draw from the (values, jacobian, bad) of u, of the
    second point v (or -u) and of their sum; a rejected point raises."""
    values = {}
    for name in relation.names_present():
        cls = naming.classify(name)
        if cls is None:
            raise StructuralError(f"no binding for {name!r}")
        kind = cls[0]
        vals, jac, bad = at[_POINT_OF[kind]]
        if bad:
            raise PoleError(f"{_POINT_OF[kind]} rejected")
        if kind in ("x", "y", "L"):
            values[name] = vals[cls[1] - 1]
        elif kind in ("z", "w"):
            values[name] = jac[cls[1] - 1][cls[2] - 1]
        else:
            values[name] = sum(
                complex(alpha[k][p]) * jac[k][p] for k in range(backend.n) for p in range(backend.n)
            )
    return values


def sequential_residual_check(relation, backend, *, relation_id, samples, seed, tol, box=DEFAULT_BOX, alpha=None,
                              y_mode="v"):
    """The one-row-at-a-time residual check on the report stream of (seed,
    box): rows of (u, v) drawn in order, the second point v (or -u in mode
    'neg').  The reference for the bank; every row the loop may take is
    evaluated in one call up front."""
    rng = random.Random(naming.stage_seed(seed, "residual"))
    kinds = {naming.classify(n)[0] for n in relation.names_present() if naming.classify(n)}
    needs_v = bool(kinds & {"y", "w", "L"}) and y_mode == "v"
    n = backend.n
    draws = draw_points(rng, 11 * samples, 2 * n, box)
    us = draws[:, :n]
    vs = draws[:, n:] if y_mode == "v" else -us
    evaluated = (a.tolist() for a in backend.value_jacobian(np.concatenate([us, vs, us + draws[:, n:]])))
    rows = list(zip(*evaluated))
    size = len(us)
    residuals = []
    skipped = 0
    for i in range(size):
        if len(residuals) == samples:
            break
        if skipped >= 10 * samples:
            raise SamplingError(
                f"pole-dominated sampling region for {relation_id}: "
                f"{skipped} skips before {samples} samples"
            )
        at = {"u": rows[i], "v": rows[size + i], "sum": rows[2 * size + i]}
        try:
            if at["u"][2]:
                raise PoleError("u on pole set")
            if needs_v and (at["v"][2] or at["sum"][2]):
                raise PoleError("v or u+v on pole set")
            if y_mode == "neg" and at["v"][2]:
                raise PoleError("-u on pole set")
            values = _bind_one(relation, backend, at, alpha)
            if any(abs(c) > VALUE_CAP for c in values.values()):
                raise PoleError("value overflow near pole")
            total, biggest = relation.eval_terms(values)
        except PoleError:
            skipped += 1
            continue
        residuals.append(abs(total) / (1.0 + biggest))
    residuals.sort()
    count = len(residuals)
    p95 = residuals[min(count - 1, max(0, -(-95 * count // 100) - 1))]
    return ResidualReport(relation_id, count, residuals[-1], sum(residuals) / count, p95, skipped, tol, p95 < tol)


def _cases(n):
    """(text, y_mode, alpha) covering every binding kind."""
    ring = naming.problem_ring(n)
    pair = " + ".join(f"L{k} - x{k}*y{k} + z{k}_{k}*w{k}_{k}" for k in range(1, n + 1))
    neg = " + ".join(f"x{k}*y{k} - w{k}_{n}*z{k}_1" for k in range(1, n + 1)) + " - 1"
    theta = f"theta^2 - x1^3 + 2*x{n} - z1_{n}"
    alpha = tuple(tuple(Fraction(1 + k + 2 * p) for p in range(n)) for k in range(n))
    return ring, [
        (pair, "v", None),
        (neg, "neg", None),
        (theta, "v", alpha),
    ]


def _outcome(check, *args, **kwargs):
    try:
        return check(*args, **kwargs)
    except SamplingError as err:
        return str(err)


@pytest.mark.parametrize("family,params", FAMILIES)
def test_batched_residual_check_matches_sequential_loop(family, params):
    backend = make_backend(family, params)
    ring, cases = _cases(backend.n)
    compared = skips = 0
    # the default box, one hugging the pole at 0 (values past the cap) and a
    # wide one (exponentials past the cap, sigma overflowing dozens of
    # periods out)
    for box in (DEFAULT_BOX, 0.004, 30.0):
        for i, (text, y_mode, alpha) in enumerate(cases):
            relation = parse_poly(text, ring)
            kwargs = dict(relation_id=f"case{i}", samples=60, seed=i + 3, tol=1e-9, box=box, alpha=alpha,
                          y_mode=y_mode)
            want = _outcome(sequential_residual_check, relation, backend, **kwargs)
            got = _outcome(residual_check, relation, backend, **kwargs)
            if isinstance(want, str):
                assert got == want
                continue
            assert (got.samples, got.skipped, got.ok) == (want.samples, want.skipped, want.ok)
            for stat in ("max", "mean", "p95"):
                assert abs(getattr(got, stat) - getattr(want, stat)) <= 1e-12 * max(1.0, getattr(want, stat))
            compared += 1
            skips += want.skipped
    assert compared >= 8
    if hasattr(backend, "lattice") or family in ("exp", "singular2-case2", "singular2-case3"):
        assert skips > 0  # the replay of skipped draws is exercised


def test_batched_residual_check_raises_at_the_same_cap():
    relation = parse_poly("z1_1^2 - 4*x1^3 + 4*x1", naming.problem_ring(1))
    backend = make_backend("weierstrass", {"g2": Fraction(4), "g3": Fraction(0)})
    kwargs = dict(relation_id="cap", samples=40, seed=1, tol=1e-9, box=1e-7)
    with pytest.raises(SamplingError) as want:
        sequential_residual_check(relation, backend, **kwargs)
    with pytest.raises(SamplingError) as got:
        residual_check(relation, backend, **kwargs)
    assert str(got.value) == str(want.value)


def test_residual_check_makes_no_point_evaluation(monkeypatch):
    # a check evaluates the bank's rows in chunks: fewer backend calls than samples
    from aat.backends import MappingBackend

    calls = []
    original = MappingBackend.value_jacobian

    def counted(self, points):
        calls.append(len(points))
        return original(self, points)

    def forbidden(*args, **kwargs):
        raise AssertionError("a pole test outside value_jacobian")

    monkeypatch.setattr(MappingBackend, "value_jacobian", counted)
    monkeypatch.setattr(MappingBackend, "pole_distance", forbidden)
    ring = naming.problem_ring(2)
    backend = make_backend("singular2-case4", {"g2": Fraction(4), "g3": Fraction(0)})
    relation = parse_poly("L1 - x1*y1 + z2_1*w1_1 + theta", ring)
    alpha = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    rep = residual_check(relation, backend, relation_id="spy", samples=50, seed=2, tol=1e-9, alpha=alpha)
    assert rep.samples == 50
    assert 0 < len(calls) <= 3 and calls[0] == 4 * 50  # u, v, u+v and -u of the first rows
    calls.clear()
    assert not vanishes(parse_poly("x1*y1 - 1", ring), backend, y_mode="neg")  # p(u) p(-u) is not 1
    assert 0 < len(calls) <= 3


# (family, params, alpha, y_mode, true relation, the same relation perturbed)
_PROBES = [
    ("exp", {"c": Fraction(3)}, None, "v", "L1 - x1*y1", "L1 - x1*y1 + 1/10*x1"),
    ("exp", {"c": Fraction(3)}, None, "v", "z1_1 - 3*x1", "z1_1 - 3*x1 - 1/10"),
    ("weierstrass", {"g2": Fraction(4), "g3": Fraction(0)}, None, "v",
     "w1_1^2 - 4*y1^3 + 4*y1", "w1_1^2 - 4*y1^3 + 5*y1"),
    ("weierstrass", {"g2": Fraction(-2), "g3": Fraction(1)}, None, "neg", "x1 - y1", "x1 - y1 - 1/10"),
    ("weierstrass", {"g2": Fraction(-2), "g3": Fraction(1)}, None, "neg", "z1_1 + w1_1", "z1_1 + w1_1 + 1/10*x1"),
    # theta = z1_1 + z2_2 = p'(u1) + 1 on case 4
    ("singular2-case4", {"g2": Fraction(4), "g3": Fraction(0)}, ((1, 0), (0, 1)), "v",
     "theta^2 - 2*theta + 1 - 4*x1^3 + 4*x1", "theta^2 - 2*theta + 1 - 4*x1^3 + 5*x1"),
]


@pytest.mark.parametrize("family,params,alpha,y_mode,true,perturbed", _PROBES)
def test_bank_probe_agrees_with_a_fresh_residual_check(family, params, alpha, y_mode, true, perturbed):
    backend = make_backend(family, params)
    ring = naming.problem_ring(backend.n)
    for seed in (0, 42):
        for text, want in ((true, True), (perturbed, False)):
            relation = parse_poly(text, ring)
            fresh = residual_check(
                relation, backend, relation_id="fresh", samples=24, seed=seed, tol=1e-7, alpha=alpha, y_mode=y_mode
            )
            got = vanishes(relation, backend, seed=seed, tol=1e-7, alpha=alpha, y_mode=y_mode)
            assert got == fresh.ok == want, (text, seed)


def test_derive_reads_the_backend_for_vetting_once_per_seed(monkeypatch):
    # generation and the whole derive of zeta-drift vet on one bank per seed:
    # one `value_jacobian` call from the sampling module, however many probes;
    # the sample nullspace of 2_1 makes one more, of 40 rows, on a bank of its
    # own, so its fit is never vetted on the rows it came from
    backend = make_backend("singular2-case4", {"g2": Fraction(4), "g3": Fraction(0)})
    reads, probes = [], []
    evaluate, first_usable = backend.value_jacobian, DrawBank.first_usable

    def spy(points):
        if sys._getframe(1).f_globals["__name__"] == "aat.sampling":
            reads.append(len(points))
        return evaluate(points)

    monkeypatch.setattr(backend, "value_jacobian", spy)
    monkeypatch.setattr(DrawBank, "first_usable", lambda self, *args: probes.append(args) or first_usable(self, *args))
    ring = naming.problem_ring(2)
    system = AATSystem(n=2, ring=ring, polys=backend.addition_polys(ring, seed=42))
    relations, _ = derive_first_order(system, backend, seed=42)
    assert [str(r.poly) for r in relations] == ["z1_1^2 - 4*x1^3 + 4*x1", "z2_1 - x1", "z1_2", "z2_2 - 1"]
    assert reads == [4 * PROBE_SAMPLES, 4 * 40] and len(probes) > 5
    assert set(backend.banks) == {("probe-bank", 42, DEFAULT_BOX), ("nullspace", 42, DEFAULT_BOX)}
    made = len(probes)
    derive_first_order(system, backend, seed=42)  # the banks remember every verdict and row
    assert reads == [4 * PROBE_SAMPLES, 4 * 40] and len(probes) == made
    derive_first_order(system, backend, seed=7)
    assert reads == [4 * PROBE_SAMPLES, 4 * 40] * 2
    assert sorted(backend.banks) == [
        ("nullspace", 7, DEFAULT_BOX), ("nullspace", 42, DEFAULT_BOX),
        ("probe-bank", 7, DEFAULT_BOX), ("probe-bank", 42, DEFAULT_BOX),
    ]


def test_reported_residuals_read_the_backend_only_through_the_report_bank(monkeypatch):
    # a whole zeta-drift run: its reported residuals share one report bank
    # for (seed, box), a stream apart from the vetting bank of the same seed
    from aat import pipeline

    spec = load_problem("problems/zeta-drift.aat")
    backend = spec.backend
    reads, checks, evaluate, check = [], [], backend.value_jacobian, pipeline.residual_check

    def spy(points):
        caller = sys._getframe(1)
        bank = caller.f_locals.get("self") if caller.f_globals["__name__"] == "aat.sampling" else None
        reads.append((bool(checks), next((k for k, b in backend.banks.items() if b is bank), caller.f_code.co_name)))
        return evaluate(points)

    def counted(*args, **kwargs):
        checks.append(kwargs["relation_id"])
        try:
            return check(*args, **kwargs)
        finally:
            checks.pop()

    monkeypatch.setattr(backend, "value_jacobian", spy)
    monkeypatch.setattr(pipeline, "residual_check", counted)
    section = run_problem(spec, ["all"])
    assert section["ok"] and len(section["residuals"]) == 15
    report = ("residual", 42, DEFAULT_BOX)
    assert [key for inside, key in reads if inside] == [report]  # fifteen checks, one read
    assert report not in [key for inside, key in reads if not inside]
    vetting, bank = backend.banks["probe-bank", 42, DEFAULT_BOX], backend.banks[report]
    rng = random.Random(naming.stage_seed(42, "residual"))
    draw_points(rng, bank.bad.shape[1], 4, DEFAULT_BOX)
    assert rng.getstate() == bank.rng.getstate() != vetting.rng.getstate()
    rows = min(bank.bad.shape[1], vetting.bad.shape[1])
    assert not np.isclose(bank.val[0, :rows], vetting.val[0, :rows]).all(axis=1).any()


class _MarkedBackend(type(make_backend("rational"))):
    """The identity map whose bank rows before `first_good` (in draw order)
    are all unusable; it reads the bank's calls as four blocks of rows."""

    def __init__(self, first_good):
        super().__init__("rational", {})
        self.first_good, self.seen, self.calls = first_good, 0, []

    def value_jacobian(self, points):
        val, jac, bad = super().value_jacobian(points)
        count = len(points) // 4
        self.calls.append(count)
        bad |= np.tile(self.seen + np.arange(count) < self.first_good, 4)
        self.seen += count
        return val, jac, bad


def test_bank_extends_in_draw_order():
    # most rows unusable: the bank grows in several calls, and its rows are
    # the seeded stream drawn in one go
    ring = naming.problem_ring(1)
    backend = _MarkedBackend(first_good=100)
    assert vanishes(parse_poly("z1_1 - 1", ring), backend, seed=3)
    assert not vanishes(parse_poly("z1_1 - 1 - 1/10*x1", ring), backend, seed=3)
    bank = backend.banks["probe-bank", 3, DEFAULT_BOX]
    size = sum(backend.calls)
    assert len(backend.calls) > 2 and 100 + PROBE_SAMPLES <= size
    stream = draw_points(random.Random(naming.stage_seed(3, "probe-bank")), size, 2, DEFAULT_BOX)
    assert np.array_equal(bank.val[0, :, 0], stream[:, 0]) and np.array_equal(bank.val[1, :, 0], stream[:, 1])
    assert np.array_equal(bank.val[2, :, 0], stream[:, 0] + stream[:, 1])


@pytest.mark.parametrize("first_good,want", [(10 * PROBE_SAMPLES - 1, True), (10 * PROBE_SAMPLES, False)])
def test_bank_gives_false_after_ten_times_the_samples_in_skips(first_good, want):
    ring = naming.problem_ring(1)
    backend = _MarkedBackend(first_good)
    assert vanishes(parse_poly("z1_1 - 1", ring), backend) is want
    assert sum(backend.calls) <= 11 * PROBE_SAMPLES - 1


def test_scan_keeps_the_first_usable_rows_in_draw_order():
    # rows before 30 are unusable: the scan reads 20 rows, then twice the 10
    # missing results, and keeps rows 30-39 of the seeded stream
    backend = _MarkedBackend(first_good=30)
    bank = DrawBank(backend, "scan", 5, DEFAULT_BOX)
    checked = []

    def first_coordinate(rows):
        for u, pole in zip(bank.val[0, rows, 0].tolist(), bank.bad[0, rows].tolist()):
            checked.append(u)
            yield None if pole else u

    stream = draw_points(random.Random(naming.stage_seed(5, "scan")), 40, 2, DEFAULT_BOX)[:, 0].tolist()
    assert bank.scan(10, 100, first_coordinate) == stream[30:40]
    assert backend.calls == [20, 20] and checked == stream
    assert bank.scan(5, 100, first_coordinate) == stream[30:35]  # read from the bank, evaluated lazily
    assert backend.calls == [20, 20] and checked == stream + stream[:35]


def test_scan_stops_at_the_limit():
    # chunks of 20 rows, and a last one of 10 that ends at the limit
    backend = _MarkedBackend(first_good=85)
    bank = DrawBank(backend, "scan", 5, DEFAULT_BOX)
    kept = bank.scan(10, 90, lambda rows: (None if pole else u for u, pole in zip(bank.val[0, rows, 0], bank.bad[0, rows])))
    assert len(kept) == 5 and backend.calls == [20, 20, 20, 20, 10] and bank.bad.shape[1] == 90


def test_formula_checks_read_the_backend_only_through_the_banks(monkeypatch):
    # resolve and verify of lemniscatic: the branch choice scans the vetting
    # bank, the three group-law verdicts one scan of the report bank; the
    # only other reads are the derivative checks' Cauchy circles
    from aat import pipeline

    spec = load_problem("problems/lemniscatic.aat")
    backend = spec.backend
    reads, scans, stage, evaluate, scan = [], [], [None], backend.value_jacobian, DrawBank.scan

    def key_of(bank):
        return next((k for k, b in backend.banks.items() if b is bank), None)

    def spy(points):
        caller = sys._getframe(1)
        bank = caller.f_locals.get("self") if caller.f_globals["__name__"] == "aat.sampling" else None
        reads.append((stage[0], key_of(bank) or caller.f_code.co_name))
        return evaluate(points)

    def spied_scan(self, *args):
        if sys._getframe(1).f_globals["__name__"] == "aat.addition":
            scans.append((stage[0], key_of(self)))
        return scan(self, *args)

    def staged(name, run):
        def run_staged(ctx):
            stage[0] = name
            run(ctx)

        return run_staged

    monkeypatch.setattr(backend, "value_jacobian", spy)
    monkeypatch.setattr(DrawBank, "scan", spied_scan)
    for name, run in pipeline._STAGE_FUNCS.items():
        monkeypatch.setitem(pipeline._STAGE_FUNCS, name, staged(name, run))
    section = run_problem(spec, ["all"])
    assert section["ok"] and section["formulas"]["status"] == "resolved"
    vetting, report = ("probe-bank", 42, DEFAULT_BOX), ("residual", 42, DEFAULT_BOX)
    assert set(scans) == {("resolve", vetting), ("verify", report)}
    assert [key for name, key in scans if name == "verify"] == [report]  # one scan, three verdicts
    assert {key for name, key in reads if name in ("resolve", "verify")} <= {vetting, report, "cauchy_partials"}
    assert section["group_law"]["formula_agreement"]["tried"] == 100


# the private draw streams outside `sampling.py`, as (module, function,
# callee): there are none, since every sampled step reads a `DrawBank`
PRIVATE_DRAWS: set = set()


def _draw_calls(path):
    """(module, enclosing function, callee) of every `random.Random(` and
    `draw_points(` call in a module."""
    calls = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            if isinstance(child, ast.Call):
                callee = ast.unparse(child.func)
                if callee in ("random.Random", "Random", "draw_points") or callee.endswith(".draw_points"):
                    calls.add((path.name, scope, callee))
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return calls


def test_sampled_checks_draw_only_through_sampling():
    # every sampled check reads a `DrawBank`; a new private stream fails here
    sources = sorted((Path(__file__).resolve().parent.parent / "src" / "aat").glob("*.py"))
    found = set().union(*(_draw_calls(path) for path in sources if path.name != "sampling.py"))
    assert found == PRIVATE_DRAWS
