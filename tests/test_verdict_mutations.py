"""Every verdict can fail: one mutation per verdict-id prefix.

Each row takes the seed-42 run context of a bundled or catalog problem,
changes one upstream object (a relation, an eliminant, V, p_ij, E, R, a
period vector or a backend parameter), reruns the one stage that records the
verdict and asserts that the verdict, which passes on the unchanged run, now
fails.  Stages that derive the changed object get it from a stand-in for its
producer in `aat.pipeline`, so each row reruns only the checks downstream of
its mutation.

The table's prefixes must equal the verdict-id prefixes of the seed-42
reports, as `verdict_oracle.json` pins them: a new verdict needs a row, and a
verdict that no mutation of a derived object flips does not belong in the
pipeline.
"""

import dataclasses
import functools
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from aat import pipeline
from aat.backends import make_backend
from aat.parsing import parse_poly
from aat.periods import PeriodCandidate
from aat.problem import load_problem

ROOT = Path(__file__).resolve().parent.parent
ORACLE = Path(__file__).with_name("verdict_oracle.json")

# the stages each problem's base context runs; a row reruns one of them
_PLANS = {
    "problems/lemniscatic.aat": list(pipeline.STAGES),
    "problems/additive.aat": ["period"],
    "catalog:singular2-case5": ["period"],
}


def prefix(vid: str) -> str:
    """A verdict id without its object index: 'residual P_12' -> 'residual P_'."""
    return re.sub(r"(?<=[A-Za-z_])\d+$", "", vid)


@functools.cache
def _base(problem: str) -> pipeline.RunContext:
    if problem.startswith("catalog:"):
        entry = next(e for e in pipeline._CATALOG if e[0] == problem.split(":")[1])
        spec = pipeline.catalog_spec(*entry, seed=42)
    else:
        spec = load_problem(ROOT / problem)
        spec.options.seed = 42
    ctx = pipeline.RunContext(spec=spec, backend=spec.backend)
    for stage in _PLANS[problem]:
        getattr(pipeline, f"stage_{stage}")(ctx)
    return ctx


# -- mutations: each changes `ctx` or, through `patch`, a producer of pipeline ---


def _plus(poly, text):
    return poly + parse_poly(text, poly.ring)


def _first_relation(ctx, change):
    rel = ctx.relations[0]
    return [dataclasses.replace(rel, poly=change(rel.poly)), *ctx.relations[1:]]


def _derive_gives(ctx, patch, relations):
    patch("derive_first_order", lambda *args, **kw: (relations, ctx.trace))


def _variety_gives(ctx, patch, V):
    vspec = dataclasses.replace(ctx.vspec, V=V, h=V.degree_in("theta"))
    patch("find_primitive_element", lambda *args, **kw: vspec)


def _detect_gives(ctx, patch, change):
    found = pipeline.detect_period(ctx.backend, tol=1e-9, seed=42)
    patch("detect_period", lambda *args, **kw: change(found))


def _moved(found, by):
    """The period vectors with the first coordinate of the first moved by `by`."""
    first = found[0]
    return [dataclasses.replace(first, p=(first.p[0] + by, *first.p[1:])), *found[1:]]


def _formula_gives(ctx, slot, change):
    formula = ctx.formula_outcome.formula
    R = list(formula.R)
    R[slot] = change(R[slot])
    ctx.formula_outcome = dataclasses.replace(ctx.formula_outcome, formula=dataclasses.replace(formula, R=R))


def _trace_gives(ctx, field, text):
    key = min(ctx.trace.entries)
    entry = ctx.trace.entries[key]
    entries = {**ctx.trace.entries, key: dataclasses.replace(entry, **{field: _plus(getattr(entry, field), text)})}
    ctx.trace = dataclasses.replace(ctx.trace, entries=entries)


def _g2_five(ctx, patch):
    # G1 and P_11 were built for g2 = 4
    ctx.backend = make_backend("weierstrass", {"g2": Fraction(5), "g3": Fraction(0)})
    _derive_gives(ctx, patch, ctx.relations)


def _negation_gives(ctx, patch):
    derive_negation, outcome = pipeline.derive_negation, ctx.formula_outcome

    def changed(*args, **kw):
        neg = derive_negation(*args, **kw)
        return dataclasses.replace(neg, E=[_plus(neg.E[0], "x1"), *neg.E[1:]])

    patch("derive_negation", changed)
    patch("resolve_addition", lambda *args, **kw: outcome)


def _pij_gives(ctx, patch):
    build_pij = pipeline.build_pij

    def changed(*args, **kw):
        pij = build_pij(*args, **kw)
        return dataclasses.replace(pij, entries=[[e * 2 for e in row] for row in pij.entries])

    patch("build_pij", changed)


def _resolve_on_v(ctx, patch):
    # resolve derives R from V; from V + x1 it derives an R that the backend
    # check rejects
    ctx.vspec = dataclasses.replace(ctx.vspec, V=_plus(ctx.vspec.V, "x1"))


LEM, ADD, CASE5 = "problems/lemniscatic.aat", "problems/additive.aat", "catalog:singular2-case5"
P11_OFF = "-x1^3"  # z1_1^2 - 4*x1^3 + 4*x1 becomes z1_1^2 - 5*x1^3 + 4*x1

# (verdict-id prefix, problem, stage rerun, mutation of one upstream object)
ROWS = [
    ("residual G", LEM, "derive", _g2_five),
    ("residual P_", LEM, "derive",
     lambda ctx, patch: _derive_gives(ctx, patch, _first_relation(ctx, lambda p: _plus(p, P11_OFF)))),
    ("degree bound P_", LEM, "derive",
     lambda ctx, patch: _derive_gives(ctx, patch, _first_relation(ctx, lambda p: p * parse_poly("z1_1^7", p.ring)))),
    ("variety separability", LEM, "variety", lambda ctx, patch: _variety_gives(ctx, patch, ctx.vspec.V ** 2)),
    ("variety degree bound", LEM, "variety",
     lambda ctx, patch: _variety_gives(ctx, patch, ctx.vspec.V * parse_poly("theta - 3", ctx.vspec.V.ring))),
    ("residual V", LEM, "variety", lambda ctx, patch: _variety_gives(ctx, patch, _plus(ctx.vspec.V, "1"))),
    ("adjugate identity", LEM, "variety", _pij_gives),
    ("residual E", LEM, "resolve", _negation_gives),
    ("addition resolved", LEM, "resolve", _resolve_on_v),
    ("residual H_", LEM, "verify", lambda ctx, patch: _trace_gives(ctx, "eliminant", "x1")),
    ("residual h_", LEM, "verify", lambda ctx, patch: _trace_gives(ctx, "specialized", "x1")),
    ("theta-slot formula", LEM, "verify", lambda ctx, patch: _formula_gives(ctx, 0, lambda r: r + 1)),
    ("formula/backend agreement", LEM, "verify", lambda ctx, patch: _formula_gives(ctx, 1, lambda r: r + 1)),
    ("formula closure", LEM, "verify",
     lambda ctx, patch: setattr(ctx, "vspec", dataclasses.replace(ctx.vspec, V=_plus(ctx.vspec.V, "1")))),
    ("derivative recursion order 2", LEM, "verify",
     lambda ctx, patch: setattr(ctx, "relations", _first_relation(ctx, lambda p: _plus(p, P11_OFF)))),
    ("derivative recursion order 3", LEM, "verify",
     lambda ctx, patch: setattr(ctx, "relations", _first_relation(ctx, lambda p: _plus(p, P11_OFF)))),
    ("period lattice recovered", LEM, "period",
     lambda ctx, patch: _detect_gives(ctx, patch, lambda found: _moved(found, 1e-6))),
    ("period lattice recovered", CASE5, "period",
     lambda ctx, patch: _detect_gives(ctx, patch, lambda found: _moved(found, 1e-6))),
    ("uniqueness witness", LEM, "period",
     lambda ctx, patch: _detect_gives(ctx, patch, lambda found: _moved(found, 1e-8))),
    ("no period for rational mapping", ADD, "period",
     lambda ctx, patch: patch("detect_period", lambda *args, **kw: [PeriodCandidate(p=(1 + 0j,), residual=0.0)])),
]


# prefixes whose failing detail must say why, and so differ from the passing one
DETAIL_SAYS_WHY = {"period lattice recovered", "uniqueness witness"}


def _matching(ctx, want):
    return [v for v in ctx.verdicts if prefix(v["id"]) == want]


@pytest.mark.parametrize(
    "want,problem,stage,mutate", ROWS, ids=[f"{row[0]}@{row[1].split('/')[-1]}" for row in ROWS]
)
def test_mutation_flips_the_verdict(want, problem, stage, mutate, monkeypatch):
    base = _base(problem)
    before = _matching(base, want)
    assert before and all(v["pass"] for v in before)
    ctx = dataclasses.replace(base, verdicts=[], skipped=[], residuals=[], section={})
    mutate(ctx, functools.partial(monkeypatch.setattr, pipeline))
    getattr(pipeline, f"stage_{stage}")(ctx)
    after = _matching(ctx, want)
    assert after and not all(v["pass"] for v in after), after
    if want in DETAIL_SAYS_WHY:
        passing = {v["detail"] for v in before}
        assert all(v["detail"] not in passing for v in after if not v["pass"]), (before, after)


def test_every_verdict_has_a_row():
    oracle = json.loads(ORACLE.read_text())
    sections = [s for runs in oracle.values() for s in (runs if isinstance(runs, list) else [runs])]
    reported = {prefix(vid) for s in sections for vid, _ in s["verdicts"]}
    assert {row[0] for row in ROWS} == reported


def test_period_detail_names_the_index_of_a_sublattice(monkeypatch):
    # twice the first generator and the second span a lattice of index 2
    ctx = dataclasses.replace(_base(LEM), verdicts=[], skipped=[], residuals=[], section={})

    def doubled(found):
        first = found[0]
        return [dataclasses.replace(first, p=tuple(2 * c for c in first.p)), *found[1:]]

    _detect_gives(ctx, functools.partial(monkeypatch.setattr, pipeline), doubled)
    pipeline.stage_period(ctx)
    [verdict] = _matching(ctx, "period lattice recovered")
    assert not verdict["pass"]
    assert verdict["detail"].startswith("2 generators found for 2 quasi-period vectors; not covered: (")
    assert verdict["detail"].endswith("; index 2"), verdict


def test_witness_detail_names_the_worst_gap_and_its_shift(monkeypatch):
    ctx = dataclasses.replace(_base(LEM), verdicts=[], skipped=[], residuals=[], section={})
    _detect_gives(ctx, functools.partial(monkeypatch.setattr, pipeline), lambda found: _moved(found, 1e-8))
    pipeline.stage_period(ctx)
    [verdict] = _matching(ctx, "uniqueness witness")
    assert not verdict["pass"]
    shape = r"shifted values of a period pair differ by [\d.e+-]+ > tol 1e-08 at shift \([^,()]+\)"
    assert re.fullmatch(shape, verdict["detail"]), verdict
