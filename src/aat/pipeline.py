"""Stage orchestration: derive -> variety -> resolve -> verify -> period.

Each stage adds artifacts and verdicts to a run context; the report collects
canonical text for every symbolic object plus the residual statistics that
back every claim.  A catalog run executes the built-in family list end to
end with fixed options, its sections spread over forked worker processes.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from . import naming
from .addition import (
    DivisorDegeneracyError,
    derive_negation,
    point_add,
    resolve_addition,
    scan_pairs,
    uniqueness_witness,
    variety_residual,
)
from .backends import FAMILIES, make_backend
from .derivatives import Recursion, cauchy_partials
from .elimination import AATSystem, derive_first_order
from .euclid import squarefree_check
from .periods import detect_period, integer_combinations, lattice_index
from .problem import Options, ProblemSpec, parse_problem
from .reporting import complex_entry, poly_entry, ratfn_entry
from .rings import AlgebraError, PoleError, StructuralError
from .sampling import DEFAULT_BOX, draw_bank, residual_check
from .variety import build_pij, find_primitive_element, differential_system

STAGES = ("derive", "variety", "resolve", "verify", "period")
_DEPS = {
    "derive": (),
    "variety": ("derive",),
    "resolve": ("variety",),
    "verify": ("resolve",),
    "period": ("derive",),
}


def expand_stages(requested) -> list:
    if "all" in requested:
        return list(STAGES)
    wanted = set()

    def add(stage):
        if stage in wanted:
            return
        for dep in _DEPS[stage]:
            add(dep)
        wanted.add(stage)

    for stage in requested:
        if stage not in STAGES:
            raise StructuralError(f"unknown stage {stage!r}")
        add(stage)
    return [s for s in STAGES if s in wanted]


@dataclass
class RunContext:
    spec: ProblemSpec
    backend: object
    verdicts: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    section: dict = field(default_factory=dict)
    sys: object = None
    relations: list = None
    trace: object = None
    vspec: object = None
    formula_outcome: object = None

    def verdict(self, vid: str, ok: bool, detail: str = "") -> bool:
        self.verdicts.append({"id": vid, "pass": bool(ok), "detail": detail})
        return ok

    def skip(self, vid: str, reason: str) -> None:
        """Record a check that does not apply to this problem; it neither
        passes nor fails, so `ok` ignores it."""
        self.skipped.append({"id": vid, "reason": reason})

    def residual(self, relation, relation_id: str, tol: float, **kwargs) -> bool:
        """Check `relation` on the problem's samples, seed and box; record its
        statistics and a verdict.  `kwargs` go on to `residual_check`."""
        opts = self.spec.options
        rep = residual_check(
            relation, self.backend, relation_id=relation_id,
            samples=opts.samples, seed=opts.seed, tol=tol, box=self.box, **kwargs,
        )
        self.residuals.append(rep.to_json())
        return self.verdict(f"residual {rep.relation_id}", rep.ok, f"p95 {rep.p95:.3e} vs tol {rep.tol:.1e}")

    @property
    def box(self) -> float:
        """Half-width of the sampling box: the problem's `box`, else the default."""
        box = self.spec.options.box
        return box if box is not None else DEFAULT_BOX

    @property
    def ok(self) -> bool:
        return all(v["pass"] for v in self.verdicts)


def _spec_echo(ctx: RunContext) -> dict:
    spec = ctx.spec
    options = asdict(spec.options)
    # the boxes actually sampled: the problem's box or the default, and the
    # family's period box
    options["effective_box"] = ctx.box
    options["effective_period_box"] = ctx.backend.period_box()
    return {
        "n": spec.n,
        "family": spec.family,
        "params": {k: str(v) for k, v in sorted(spec.params.items())},
        "aat": [poly_entry(g) for g in spec.aat_polys],
        "options": options,
    }


def stage_derive(ctx: RunContext) -> None:
    spec = ctx.spec
    opts = spec.options
    ctx.sys = AATSystem(n=spec.n, ring=spec.ring, polys=spec.aat_polys)
    vet_tol = max(opts.tol, 1e-9)
    ctx.relations, ctx.trace = derive_first_order(ctx.sys, ctx.backend, seed=opts.seed, tol=vet_tol)
    trace_json = {}
    for (k, p), entry in sorted(ctx.trace.entries.items()):
        trace_json[f"{k}_{p}"] = {
            "cross_difference": poly_entry(entry.delta),
            "shared_factor": poly_entry(entry.shared),
            "eliminant": poly_entry(entry.eliminant) if entry.eliminant is not None else None,
            "specialized": poly_entry(entry.specialized),
            "specialization": asdict(entry.record),
            "relation": poly_entry(entry.relation),
            "degree_bound": entry.degree_bound,
            "notes": entry.notes,
        }
    ctx.section["trace"] = trace_json
    ctx.section["relations"] = {
        f"{rel.k}_{rel.p}": poly_entry(rel.poly) for rel in ctx.relations
    }
    for k, g in enumerate(spec.aat_polys, start=1):
        ctx.residual(g, f"G{k}", max(opts.tol, 1e-9))
    for rel in ctx.relations:
        ctx.residual(rel.poly, f"P_{rel.k}{rel.p}", opts.tol)
        ctx.verdict(
            f"degree bound P_{rel.k}{rel.p}",
            1 <= rel.poly.degree_in(rel.zvar) <= ctx.trace.entry(rel.k, rel.p).degree_bound,
            f"deg {rel.poly.degree_in(rel.zvar)} within [1, {ctx.trace.entry(rel.k, rel.p).degree_bound}]",
        )


def stage_variety(ctx: RunContext) -> None:
    spec = ctx.spec
    opts = spec.options
    ctx.vspec = find_primitive_element(
        ctx.relations, ctx.backend, seed=opts.seed, tol=max(opts.tol, 1e-9)
    )
    pij = build_pij(spec.n, spec.ring.parameters)
    entries, lines = differential_system(ctx.vspec, pij)
    adj_ok = True
    for i in range(1, spec.n + 1):
        for j in range(1, spec.n + 1):
            if not (pij.entries[i - 1][j - 1] - pij.inverse_entry(j, i)).is_zero():
                adj_ok = False
    ctx.section["variety"] = {
        "alpha": [[int(a) for a in row] for row in ctx.vspec.alpha],
        "V": poly_entry(ctx.vspec.V),
        "h": ctx.vspec.h,
        "degree_bound": ctx.vspec.degree_bound,
        "expressions": {
            f"{k}_{p}": ratfn_entry(ctx.vspec.expression(k, p))
            for (k, p) in sorted(ctx.vspec.reps)
        },
        "jacobian_det": poly_entry(pij.jacobian_det),
        "pij": [[ratfn_entry(e) for e in row] for row in pij.entries],
        "differential_system": {
            "lines": lines,
            "entries": [
                [None if e is None else ratfn_entry(e) for e in row] for row in entries
            ],
        },
    }
    separable = squarefree_check(ctx.vspec.V, naming.THETA)
    ctx.verdict(
        "variety separability", separable,
        "gcd(V, dV/dtheta) is theta-free" if separable else "gcd(V, dV/dtheta) involves theta",
    )
    ctx.verdict(
        "variety degree bound", ctx.vspec.h <= ctx.vspec.degree_bound,
        f"h = {ctx.vspec.h} <= {ctx.vspec.degree_bound}",
    )
    ctx.verdict("adjugate identity", adj_ok, "p_ij equals the (j,i) inverse entry exactly")
    ctx.residual(ctx.vspec.V, "V", opts.tol, alpha=ctx.vspec.alpha)


def stage_resolve(ctx: RunContext) -> None:
    spec = ctx.spec
    opts = spec.options
    negation = derive_negation(ctx.sys, ctx.backend, seed=opts.seed, tol=max(opts.tol, 1e-9))
    ctx.section["negation"] = {
        "modes": negation.modes,
        "D": [None if d is None else poly_entry(d) for d in negation.D],
        "E": [None if e is None else poly_entry(e) for e in negation.E],
        "notes": negation.notes,
    }
    for k, e in enumerate(negation.E, start=1):
        if e is not None:
            ctx.residual(e, f"E{k}", opts.tol, y_mode="neg")
    ctx.formula_outcome = resolve_addition(
        ctx.sys, ctx.vspec, ctx.backend, seed=opts.seed, tol=max(opts.tol, 1e-8)
    )
    out = ctx.formula_outcome
    section = {"status": out.status, "reason": out.reason}
    if out.formula is not None:
        section.update(
            {
                "branch": out.formula.branch,
                "R": [ratfn_entry(r) for r in out.formula.R],
                "excluded_divisors": [poly_entry(d) for d in out.formula.excluded],
                "degrees": out.formula.degrees,
            }
        )
    ctx.section["formulas"] = section
    if out.in_scope:
        ctx.verdict("addition resolved", out.status == "resolved", out.reason or "rational formula found")
    else:
        ctx.skip("addition resolved", "outside symbolic scope (numeric verification only)")


def _formula_checks(ctx: RunContext, formula) -> None:
    """Add the report bank's (u, v) pairs through the resolved formula and
    compare each sum with the backend's point over u + v: its theta slot,
    the whole point, and its |V| residual."""
    opts = ctx.spec.options
    vspec = ctx.vspec
    tol = max(opts.tol, 1e-8)

    def gaps(p1, p2, want):
        if not (p1.is_finite() and p2.is_finite() and want.is_finite()):
            return None
        try:
            got = point_add(p1, p2, formula=formula)
        except (DivisorDegeneracyError, PoleError):
            return None
        return abs(got.theta - want.theta) / (1 + abs(want.theta)), got.gap(want), variety_residual(vspec, got)

    bank = draw_bank(ctx.backend, "residual", opts.seed, ctx.box)
    pairs = scan_pairs(bank, vspec, opts.samples, 40 * opts.samples, gaps)
    tried = len(pairs)
    theta_worst, worst, closure_worst = [max(column) for column in zip(*pairs)] or [0.0] * 3
    agree = sum(gap < tol for _, gap, _ in pairs)
    enough = tried >= min(opts.samples, 50)
    ctx.verdict("theta-slot formula", enough and theta_worst < tol, f"worst gap {theta_worst:.3e} on {tried} pairs")
    ok = enough and agree >= int(0.95 * tried)
    ctx.verdict("formula/backend agreement", ok, f"{agree}/{tried} pairs within {tol:.1e}")
    ctx.verdict("formula closure", closure_worst < tol, f"worst |V| residual {closure_worst:.3e}")
    ctx.section["group_law"] = {"formula_agreement": {"agree": agree, "tried": tried, "worst_gap": worst}}


DERIVATIVE_POINTS = 20  # base points of the derivative checks
DERIVATIVE_TOL = 1e-10  # bound on the relative gap of either order


def _derivative_checks(ctx: RunContext) -> None:
    """The recursion's second and third derivatives against `cauchy_partials`
    at the first DERIVATIVE_POINTS usable rows u of the report bank (u off the
    pole set, every circle node accepted, the recursion not singular); a gap
    is the largest relative difference over every (k, p, q[, r])."""
    backend = ctx.backend
    recursion = Recursion(ctx.relations, ctx.spec.n)
    bank = draw_bank(backend, "residual", ctx.spec.options.seed, ctx.box)

    def gaps(rows):
        # u off the pole set, one evaluation per DERIVATIVE_POINTS rows: usually one in all
        candidates = rows.start + np.flatnonzero(~bank.bad[0, rows])
        for start in range(0, len(candidates), DERIVATIVE_POINTS):
            block = candidates[start : start + DERIVATIVE_POINTS]
            val, jac = bank.val[0, block], bank.jac[0, block]
            d2, d3, singular = recursion(val, jac)
            want2, want3, usable = cauchy_partials(backend, bank.u[block], jac)
            with np.errstate(all="ignore"):
                gap2 = (np.abs(d2 - want2) / (1 + np.abs(want2))).reshape(len(block), -1).max(axis=1)
                gap3 = (np.abs(d3 - want3) / (1 + np.abs(want3))).reshape(len(block), -1).max(axis=1)
            for g2, g3, ok in zip(gap2.tolist(), gap3.tolist(), (usable & ~singular).tolist()):
                yield (g2, g3) if ok else None

    # as for a residual, ten skips per point end the check
    found = bank.scan(DERIVATIVE_POINTS, 11 * DERIVATIVE_POINTS - 1, gaps)
    done = len(found)
    worst2, worst3 = [max(g) for g in zip(*found)] or [0.0] * 2
    enough = done == DERIVATIVE_POINTS
    ctx.verdict("derivative recursion order 2", enough and worst2 < DERIVATIVE_TOL, f"worst {worst2:.3e} at {done} points")
    ctx.verdict("derivative recursion order 3", enough and worst3 < DERIVATIVE_TOL, f"worst {worst3:.3e}")
    ctx.section["derivative_recursion"] = {"points": done, "worst_order2": worst2, "worst_order3": worst3}


def stage_verify(ctx: RunContext) -> None:
    opts = ctx.spec.options
    for (k, p), entry in sorted(ctx.trace.entries.items()):
        if entry.eliminant is not None:
            ctx.residual(entry.eliminant, f"H_{k}{p}", max(opts.tol, 1e-8))
        ctx.residual(entry.specialized, f"h_{k}{p}", max(opts.tol, 1e-8))
    formula = ctx.formula_outcome.formula if ctx.formula_outcome else None
    if formula is not None:
        _formula_checks(ctx, formula)
    _derivative_checks(ctx)


def stage_period(ctx: RunContext) -> None:
    opts = ctx.spec.options
    backend = ctx.backend
    candidates = detect_period(backend, tol=max(opts.tol, 1e-9), seed=opts.seed, box=ctx.box)
    expected = backend.expected_periods()
    section = {}
    if expected:
        basis = [c.p for c in candidates]
        missing = [e for e, hit in zip(expected, integer_combinations(expected, basis, tol=1e-7)) if not hit]
        inside = integer_combinations(basis, expected, tol=1e-7)
        ok = len(basis) == len(expected) and not missing and all(inside)
        detail = f"{len(candidates)} generators match the quasi-period vectors up to integer combinations"
        if not ok:
            shown = ", ".join("(" + ", ".join(f"{c:.6g}" for c in e) + ")" for e in missing) or "none"
            detail = f"{len(basis)} generators found for {len(expected)} quasi-period vectors; not covered: {shown}"
            if len(basis) == len(expected) and all(inside):
                detail += f"; index {lattice_index(basis, expected)}"
        ctx.verdict("period lattice recovered", ok, detail)
        section["expected"] = [[complex_entry(c) for c in e] for e in expected]
        for cand, hit in zip(candidates, inside):
            if hit:
                cand.note = "integer combination of the quasi-period vectors"
    else:
        ctx.verdict("no period for rational mapping", not candidates, f"{len(candidates)} candidates")
    section["generators"] = [c.to_json() for c in candidates]
    if candidates and ctx.vspec is not None:
        tol = max(opts.tol, 1e-8)
        try:
            unique, gap, shift = uniqueness_witness(
                backend, ctx.vspec, candidates[0].p, seed=opts.seed, box=ctx.box, tol=tol
            )
        except StructuralError:
            section["uniqueness_witness"] = "no usable witness pair"
        else:
            detail = "shifted values agree on a period pair"
            if not unique:
                at = ", ".join(f"{c:.6g}" for c in shift)
                detail = f"shifted values of a period pair differ by {gap:.3g} > tol {tol:.3g} at shift ({at})"
            ctx.verdict("uniqueness witness", unique, detail)
    ctx.section["periods"] = section


_STAGE_FUNCS = {
    "derive": stage_derive,
    "variety": stage_variety,
    "resolve": stage_resolve,
    "verify": stage_verify,
    "period": stage_period,
}


def run_problem(spec: ProblemSpec, stages, *, timings: bool = False) -> dict:
    return _run_plan(spec, expand_stages(stages), timings=timings)


def _run_plan(spec: ProblemSpec, plan: list, *, timings: bool) -> dict:
    """Run the stages of `plan` in order; a stage error (an algebra or
    sampling error, or a float overflow or zero division) ends the run as a
    failed verdict plus a `failure` section."""
    ctx = RunContext(spec=spec, backend=spec.backend)
    section = {
        "source": spec.source,
        "spec_echo": _spec_echo(ctx),
        "stages": plan,
    }
    ctx.section = section
    stage_times = {}
    failure = None
    for stage in plan:
        t0 = time.monotonic()
        try:
            _STAGE_FUNCS[stage](ctx)
        except (AlgebraError, ArithmeticError) as err:
            failure = {"stage": stage, "error": type(err).__name__, "message": str(err)}
            ctx.verdict(f"stage {stage}", False, str(err))
            break
        finally:
            stage_times[stage] = round(time.monotonic() - t0, 6)
    section["residuals"] = ctx.residuals
    section["verdicts"] = ctx.verdicts
    if ctx.skipped:
        section["skipped"] = ctx.skipped
    section["ok"] = ctx.ok
    if failure is not None:
        section["failure"] = failure
    if timings:
        section["timings"] = stage_times
    return section


_CATALOG = (
    ("exp", {"c": "1"}, STAGES),
    ("rational", {}, STAGES),
    ("weierstrass", {"g2": "4", "g3": "0"}, STAGES),
    ("singular2-case1", {}, STAGES),
    ("singular2-case2", {}, STAGES),
    ("singular2-case3", {}, STAGES),
    ("singular2-case4", {"g2": "4", "g3": "0", "epsilon": "1"}, STAGES),
    ("singular2-case5", {"g2": "4", "g3": "0", "a": "1/2"}, ("period",)),
)


def catalog_problem_text(family: str, params: dict, *, seed: int = 42) -> str:
    n = FAMILIES[family]
    lines = ["[mapping]", f"n = {n}", f"family = {family}"]
    for name, value in params.items():
        lines.append(f"param {name} = {value}")
    lines.append("[aat]")
    for k in range(1, n + 1):
        lines.append(f"G{k} = auto")
    lines.append("[options]")
    lines.append("tol = 1e-9")
    lines.append("samples = 100")
    lines.append(f"seed = {seed}")
    return "\n".join(lines) + "\n"


def catalog_spec(family: str, params: dict, plan, *, seed: int = 42) -> ProblemSpec:
    """The problem of one `_CATALOG` entry at `seed`."""
    if "derive" in plan:
        return parse_problem(catalog_problem_text(family, params, seed=seed), source=f"catalog:{family}")
    # no closed addition polynomials for this family; run the numeric layer
    # only (backend invariants and period detection)
    n = FAMILIES[family]
    exact = {k: Fraction(v) for k, v in params.items()}
    return ProblemSpec(
        n=n,
        family=family,
        params=exact,
        ring=naming.problem_ring(n),
        aat_polys=[],
        options=Options(seed=seed),
        source=f"catalog:{family}",
        backend=make_backend(family, exact),
    )


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _catalog_section(index: int, *, seed: int, timings: bool) -> dict:
    family, params, plan = _CATALOG[index]
    return _run_plan(catalog_spec(family, params, plan, seed=seed), list(plan), timings=timings)


def run_catalog(*, seed: int = 42, timings: bool = False) -> dict:
    """Every `_CATALOG` section at `seed`, in catalog order.

    The sections share no state, so they run on up to one worker process per
    usable CPU; the report does not depend on the worker count.  Workers are
    forked: they start with the parent's modules already imported, and with
    any attribute a caller patched on them.  An exception a section does not
    turn into a verdict reaches the caller with its own type.
    """
    section = functools.partial(_catalog_section, seed=seed, timings=timings)
    indices = range(len(_CATALOG))
    workers = min(len(_CATALOG), _usable_cpus())
    # imported here, not at module level, so that `aat all` does not pay for them
    import multiprocessing

    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            sections = list(pool.map(section, indices))
    else:
        sections = [section(i) for i in indices]
    return {
        "catalog": sections,
        "ok": all(s["ok"] for s in sections),
        "seed": seed,
    }
