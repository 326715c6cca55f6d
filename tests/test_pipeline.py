import json
import math
import multiprocessing
from fractions import Fraction

import pytest

from aat import pipeline
from aat.pipeline import catalog_problem_text, expand_stages, run_catalog, run_problem
from aat.problem import load_problem, parse_problem
from aat.reporting import render_report
from aat.rings import StructuralError
from aat.sampling import SamplingError


def test_stage_expansion_pulls_dependencies():
    assert expand_stages(["derive"]) == ["derive"]
    assert expand_stages(["variety"]) == ["derive", "variety"]
    assert expand_stages(["verify"]) == ["derive", "variety", "resolve", "verify"]
    assert expand_stages(["period"]) == ["derive", "period"]
    assert expand_stages(["all"]) == ["derive", "variety", "resolve", "verify", "period"]
    with pytest.raises(StructuralError):
        expand_stages(["bogus"])


def test_single_stage_run_has_expected_sections():
    spec = load_problem("problems/exp.aat")
    section = run_problem(spec, ["derive"])
    assert section["ok"] is True
    assert section["stages"] == ["derive"]
    assert "trace" in section and "relations" in section
    assert "variety" not in section
    echo = section["spec_echo"]["options"]
    assert echo["effective_box"] == 1.2
    assert echo["effective_period_box"] == 7.0


@pytest.mark.parametrize("c", ["1/1000", "1/10", "20"])
def test_exp_period_recovered_at_any_rate(c):
    # the seed box grows with the period 2*pi*i/c; faster rates keep the least box, 7
    spec = parse_problem(catalog_problem_text("exp", {"c": c}))
    section = run_problem(spec, ["period"])
    passed = {v["id"]: v["pass"] for v in section["verdicts"]}
    assert passed["period lattice recovered"] is True
    period = 2 * math.pi / abs(float(Fraction(c)))
    assert section["spec_echo"]["options"]["effective_period_box"] == max(7.0, 1.1 * period)


def test_timings_flag_adds_section_and_breaks_nothing():
    spec = load_problem("problems/exp.aat")
    section = run_problem(spec, ["derive"], timings=True)
    assert "timings" in section
    assert set(section["timings"]) == {"derive"}
    json.loads(render_report({"problem": section}))  # still valid JSON


def test_variety_separability_verdict_runs_the_check(monkeypatch):
    spec = load_problem("problems/exp.aat")

    def verdict(section):
        return next(v for v in section["verdicts"] if v["id"] == "variety separability")

    assert verdict(run_problem(spec, ["variety"]))["pass"] is True
    monkeypatch.setattr(pipeline, "squarefree_check", lambda p, v: False)
    section = run_problem(spec, ["variety"])
    assert verdict(section) == {
        "id": "variety separability", "pass": False, "detail": "gcd(V, dV/dtheta) involves theta"
    }
    assert section["ok"] is False


def test_addition_resolved_is_skipped_outside_the_symbolic_scope():
    spec = parse_problem(catalog_problem_text("singular2-case1", {}))
    section = run_problem(spec, ["resolve"])
    assert section["skipped"] == [
        {"id": "addition resolved", "reason": "outside symbolic scope (numeric verification only)"}
    ]
    assert "addition resolved" not in [v["id"] for v in section["verdicts"]]
    assert section["ok"] is True
    # inside the scope the check runs and nothing is skipped
    section = run_problem(load_problem("problems/exp.aat"), ["resolve"])
    assert "skipped" not in section
    assert "addition resolved" in [v["id"] for v in section["verdicts"]]


def test_stage_failure_is_reported_and_fails_run():
    text = """\
[mapping]
n = 1
family = exp
[aat]
G1 = L1 - 7
[options]
seed = 1
"""
    spec = parse_problem(text)
    section = run_problem(spec, ["derive"])
    assert section["ok"] is False
    assert section["failure"]["stage"] == "derive"
    assert section["failure"]["error"] == "DegenerateSystemError"


def test_catalog_period_only_failure_is_reported(monkeypatch):
    # the period-only catalog entry runs through the same stage loop, so a
    # stage error there fails the catalog instead of escaping it
    detect = pipeline.detect_period

    def failing(backend, **kwargs):
        if backend.family == "singular2-case5":
            raise SamplingError("no usable sample points")
        return detect(backend, **kwargs)

    monkeypatch.setattr(pipeline, "detect_period", failing)
    result = run_catalog(seed=42)
    assert result["ok"] is False
    case5 = next(s for s in result["catalog"] if s["source"] == "catalog:singular2-case5")
    assert case5["stages"] == ["period"]
    assert case5["failure"] == {"stage": "period", "error": "SamplingError", "message": "no usable sample points"}
    assert {"id": "stage period", "pass": False, "detail": "no usable sample points"} in case5["verdicts"]
    assert all(s["ok"] for s in result["catalog"] if s is not case5)


def test_a_float_error_in_a_stage_is_a_failed_verdict(monkeypatch):
    # exp c = 1000 at seed 623016 once raised this from the witness's caps
    def overflowing(*args, **kwargs):
        raise OverflowError("absolute value too large")

    monkeypatch.setattr(pipeline, "uniqueness_witness", overflowing)
    section = run_problem(load_problem("problems/lemniscatic.aat"), ["variety", "period"])
    assert section["ok"] is False
    assert section["failure"] == {"stage": "period", "error": "OverflowError", "message": "absolute value too large"}
    assert section["verdicts"][-1] == {"id": "stage period", "pass": False, "detail": "absolute value too large"}


def test_catalog_sections_do_not_depend_on_the_worker_count(monkeypatch):
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    parallel = run_catalog(seed=42)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
    sequential = run_catalog(seed=42)
    assert render_report(parallel) == render_report(sequential)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_catalog_uncaught_error_reaches_the_caller(monkeypatch, cpus):
    # an error outside the stage loop's verdict errors is raised, not reported,
    # with or without worker processes, and leaves no worker behind
    detect = pipeline.detect_period

    def failing(backend, **kwargs):
        if backend.family == "singular2-case5":
            raise RuntimeError("detector broke")
        return detect(backend, **kwargs)

    monkeypatch.setattr(pipeline, "detect_period", failing)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
    with pytest.raises(RuntimeError, match="detector broke"):
        run_catalog(seed=42)
    assert multiprocessing.active_children() == []


def test_generic_lattice_full_pipeline():
    # a non-lemniscatic lattice: nonzero g3 kills the square-lattice symmetry
    # and leaves only one rational branch value, forcing the reconstruction
    # route; the classical objects must still come out exactly
    text = """\
[mapping]
n = 1
family = weierstrass
param g2 = 5
param g3 = 1
[aat]
G1 = auto
[options]
tol = 1e-9
samples = 60
seed = 42
"""
    spec = parse_problem(text)
    section = run_problem(spec, ["all"])
    assert section["ok"], [v for v in section["verdicts"] if not v["pass"]]
    assert section["variety"]["V"]["poly"] == "theta^2 - 4*x1^3 + 5*x1 + 1"
    assert section["relations"]["1_1"]["poly"] == "z1_1^2 - 4*x1^3 + 5*x1 + 1"
    r1 = section["formulas"]["R"][1]
    assert r1["num"] == "-1/2*x0*y0 + x1^2*y1 + x1*y1^2 - 5/4*x1 - 5/4*y1 - 1/2"
    assert r1["den"] == "x1^2 - 2*x1*y1 + y1^2"


def test_catalog_problem_text_roundtrips():
    text = catalog_problem_text("weierstrass", {"g2": "4", "g3": "0"}, seed=7)
    spec = parse_problem(text, source="catalog:weierstrass")
    assert spec.family == "weierstrass"
    assert spec.options.seed == 7
    assert spec.aat_polys[0].degree_in("L1") == 2


_DERIVED = {}


def _derivative_ctx(family, params, seed):
    """A run context with the catalog relations of `family`, its seed set to `seed`."""
    if family not in _DERIVED:
        spec = parse_problem(catalog_problem_text(family, params), source=f"catalog:{family}")
        ctx = pipeline.RunContext(spec=spec, backend=spec.backend)
        pipeline.stage_derive(ctx)
        _DERIVED[family] = ctx
    base = _DERIVED[family]
    base.spec.options.seed = seed
    ctx = pipeline.RunContext(spec=base.spec, backend=base.backend)
    ctx.relations = base.relations
    return ctx


@pytest.mark.parametrize(
    "family,params",
    [
        ("exp", {"c": "1"}),
        ("weierstrass", {"g2": "4", "g3": "0"}),
        ("singular2-case4", {"g2": "4", "g3": "0", "epsilon": "1"}),
    ],
)
def test_derivative_recursion_passes_on_seeds_0_to_9(family, params):
    # the Cauchy estimates leave only rounding: every seed's worst gap stays
    # a hundredth of the bound
    for seed in range(10):
        ctx = _derivative_ctx(family, params, seed)
        pipeline._derivative_checks(ctx)
        assert [v["pass"] for v in ctx.verdicts] == [True, True], (seed, ctx.verdicts)
        section = ctx.section["derivative_recursion"]
        assert section["points"] == 20
        assert max(section["worst_order2"], section["worst_order3"]) < pipeline.DERIVATIVE_TOL / 100, (seed, section)


def test_derivative_check_ignores_rejected_points(monkeypatch):
    class FirstPointSingular(pipeline.Recursion):
        calls = 0

        def __call__(self, x, jac):
            d2, d3, singular = super().__call__(x, jac)
            if FirstPointSingular.calls == 0:
                # a rejected point with derivatives far off: it must not feed the worsts
                singular[0] = True
                d2[0] += 1
                d3[0] += 1
            FirstPointSingular.calls += 1
            return d2, d3, singular

    monkeypatch.setattr(pipeline, "Recursion", FirstPointSingular)
    ctx = _derivative_ctx("exp", {"c": "1"}, 42)
    pipeline._derivative_checks(ctx)
    section = ctx.section["derivative_recursion"]
    assert FirstPointSingular.calls >= 1
    assert section["points"] == 20
    assert max(section["worst_order2"], section["worst_order3"]) < pipeline.DERIVATIVE_TOL
    assert all(v["pass"] for v in ctx.verdicts)


def test_derivative_check_runs_in_a_box_around_a_pole(monkeypatch):
    # every draw lies within 0.015 of the pole at 0; the circles shrink with
    # the pole distance, and the check still passes at 20 points
    ctx = _derivative_ctx("weierstrass", {"g2": "4", "g3": "0"}, 42)
    monkeypatch.setattr(ctx.spec.options, "box", 0.01)
    pipeline._derivative_checks(ctx)
    assert not ctx.skipped
    assert [v["pass"] for v in ctx.verdicts] == [True, True], ctx.verdicts
    assert ctx.section["derivative_recursion"]["points"] == 20

    class AllSingular(pipeline.Recursion):
        def __call__(self, x, jac):
            d2, d3, singular = super().__call__(x, jac)
            return d2, d3, singular | True

    # no point is usable: a failure, not a skip
    monkeypatch.setattr(pipeline, "Recursion", AllSingular)
    monkeypatch.setattr(ctx.spec.options, "box", None)
    ctx = _derivative_ctx("weierstrass", {"g2": "4", "g3": "0"}, 42)
    pipeline._derivative_checks(ctx)
    assert not ctx.skipped
    assert [v["pass"] for v in ctx.verdicts] == [False, False]
    assert ctx.section["derivative_recursion"]["points"] == 0


def test_theta_slot_formula_sized_by_samples():
    # fewer samples than the rule's 50 pairs: the `samples` pairs scanned suffice
    spec = load_problem("problems/lemniscatic.aat")
    spec.options.samples = 5
    section = run_problem(spec, ["verify"])
    theta = next(v for v in section["verdicts"] if v["id"] == "theta-slot formula")
    assert theta["pass"] and theta["detail"].endswith("on 5 pairs"), theta
