import json

import pytest

from aat import pipeline
from aat.pipeline import catalog_problem_text, expand_stages, run_problem
from aat.problem import load_problem, parse_problem
from aat.reporting import render_report
from aat.rings import StructuralError


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


def test_family_none_cannot_run_numeric_stages():
    text = """\
[mapping]
n = 1
family = none
[aat]
G1 = L1 - x1*y1
"""
    spec = parse_problem(text)
    with pytest.raises(Exception) as err:
        run_problem(spec, ["derive"])
    assert "family" in str(err.value)


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
