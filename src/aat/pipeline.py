"""Stage orchestration: derive -> variety -> resolve -> verify -> period.

Each stage adds artifacts and verdicts to a run context; the report collects
canonical text for every symbolic object plus the residual statistics that
back every claim.  A catalog run executes the built-in family list end to
end with fixed options.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import naming
from .addition import (
    DivisorDegeneracyError,
    backend_point,
    derive_negation,
    point_add,
    point_sub,
    resolve_addition,
    uniqueness_witness,
    variety_residual,
)
from .derivatives import RecursionSingular, higher_derivative, taylor_match_check, third_derivative
from .elimination import AATSystem, DegenerateSystemError, EliminationError, derive_first_order
from .euclid import squarefree_check
from .periods import detect_period, is_integer_combination
from .problem import Options, ProblemSpec, parse_problem
from .reporting import complex_entry, poly_entry, ratfn_entry
from .rings import AlgebraError, PoleError, StructuralError
from .sampling import SamplingError, draw_point, residual_check
from .variety import PrimitiveElementError, build_pij, find_primitive_element, differential_system

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
    negation: object = None
    periods: list = None

    def verdict(self, vid: str, ok: bool, detail: str = "") -> bool:
        self.verdicts.append({"id": vid, "pass": bool(ok), "detail": detail})
        return ok

    def skip(self, vid: str, reason: str) -> None:
        """Record a check that does not apply to this problem; it neither
        passes nor fails, so `ok` ignores it."""
        self.skipped.append({"id": vid, "reason": reason})

    def residual(self, rep) -> bool:
        self.residuals.append(rep.to_json())
        return self.verdict(f"residual {rep.relation_id}", rep.ok, f"p95 {rep.p95:.3e} vs tol {rep.tol:.1e}")

    @property
    def ok(self) -> bool:
        return all(v["pass"] for v in self.verdicts)


def _spec_echo(spec: ProblemSpec, backend) -> dict:
    options = spec.options.to_json()
    # the boxes actually sampled (family defaults unless overridden)
    options["effective_box"] = spec.options.box if spec.options.box is not None else backend.default_box()
    options["effective_period_box"] = (
        spec.options.period_box if spec.options.period_box is not None else backend.period_box()
    )
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
    ctx.relations, ctx.trace = derive_first_order(
        ctx.sys,
        ctx.backend,
        mode=opts.mode,
        retries=opts.retries,
        seed=opts.seed,
        tol=vet_tol,
    )
    trace_json = {}
    for (k, p), entry in sorted(ctx.trace.entries.items()):
        trace_json[f"{k}_{p}"] = {
            "cross_difference": poly_entry(entry.delta),
            "shared_factor": poly_entry(entry.shared),
            "eliminant": poly_entry(entry.eliminant) if entry.eliminant is not None else None,
            "specialized": poly_entry(entry.specialized),
            "specialization": entry.record.to_json(),
            "relation": poly_entry(entry.relation),
            "degree_bound": entry.degree_bound,
            "notes": entry.notes,
        }
    ctx.section["trace"] = trace_json
    ctx.section["relations"] = {
        f"{rel.k}_{rel.p}": poly_entry(rel.poly) for rel in ctx.relations
    }
    for k, g in enumerate(spec.aat_polys, start=1):
        rep = residual_check(
            g,
            ctx.backend,
            relation_id=f"G{k}",
            samples=opts.samples,
            seed=opts.seed,
            tol=max(opts.tol, 1e-9),
            box=opts.box,
        )
        ctx.residual(rep)
    for rel in ctx.relations:
        rep = residual_check(
            rel.poly,
            ctx.backend,
            relation_id=f"P_{rel.k}{rel.p}",
            samples=opts.samples,
            seed=opts.seed,
            tol=opts.tol,
            box=opts.box,
        )
        ctx.residual(rep)
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
    rep = residual_check(
        ctx.vspec.V,
        ctx.backend,
        relation_id="V",
        samples=opts.samples,
        seed=opts.seed,
        tol=opts.tol,
        box=opts.box,
        alpha=ctx.vspec.alpha,
    )
    ctx.residual(rep)


def stage_resolve(ctx: RunContext) -> None:
    spec = ctx.spec
    opts = spec.options
    ctx.negation = derive_negation(ctx.sys, ctx.backend, seed=opts.seed, tol=max(opts.tol, 1e-9))
    ctx.section["negation"] = {
        "modes": ctx.negation.modes,
        "D": [None if d is None else poly_entry(d) for d in ctx.negation.D],
        "E": [None if e is None else poly_entry(e) for e in ctx.negation.E],
        "notes": ctx.negation.notes,
    }
    for k, e in enumerate(ctx.negation.E, start=1):
        if e is None:
            continue
        rep = residual_check(
            e,
            ctx.backend,
            relation_id=f"E{k}",
            samples=opts.samples,
            seed=opts.seed,
            tol=opts.tol,
            box=opts.box,
            y_mode="neg",
        )
        ctx.residual(rep)
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
    if spec.n == 1 and ctx.sys.poly(1).degree_in(naming.L(1)) in (1, 2):
        ctx.verdict("addition resolved", out.status == "resolved", out.reason or "rational formula found")
    else:
        ctx.skip("addition resolved", "outside symbolic scope (numeric verification only)")


def _group_law_checks(ctx: RunContext) -> None:
    spec = ctx.spec
    opts = spec.options
    backend = ctx.backend
    rng = random.Random(naming.stage_seed(opts.seed, "group-law"))
    box = opts.box if opts.box is not None else backend.default_box()
    tol = max(opts.tol, 1e-8)
    worst_comm = worst_assoc = worst_ident = worst_inv = 0.0
    triples = 0
    guard = 0
    while triples < 50 and guard < 2000:
        guard += 1
        us = [draw_point(rng, spec.n, box) for _ in range(3)]
        pts = [backend_point(backend, ctx.vspec, u) for u in us]
        if not all(p.is_finite() for p in pts):
            continue
        ab = point_add(pts[0], pts[1], backend=backend, spec=ctx.vspec)
        ba = point_add(pts[1], pts[0], backend=backend, spec=ctx.vspec)
        a_bc = point_add(
            pts[0], point_add(pts[1], pts[2], backend=backend, spec=ctx.vspec),
            backend=backend, spec=ctx.vspec,
        )
        ab_c = point_add(ab, pts[2], backend=backend, spec=ctx.vspec)
        if not (ab.is_finite() and ba.is_finite() and a_bc.is_finite() and ab_c.is_finite()):
            continue
        sub = point_sub(ab, pts[1], backend=backend, spec=ctx.vspec)
        if not sub.is_finite():
            continue
        worst_comm = max(worst_comm, _point_gap(ab, ba))
        worst_assoc = max(worst_assoc, _point_gap(a_bc, ab_c))
        worst_inv = max(worst_inv, _point_gap(sub, pts[0]))
        back = point_add(
            point_sub(pts[0], pts[1], backend=backend, spec=ctx.vspec),
            pts[1], backend=backend, spec=ctx.vspec,
        )
        if back.is_finite():
            worst_ident = max(worst_ident, _point_gap(back, pts[0]))
        triples += 1
    ctx.verdict("group commutativity", triples >= 50 and worst_comm < tol, f"worst gap {worst_comm:.3e} on {triples} triples")
    ctx.verdict("group associativity", triples >= 50 and worst_assoc < tol, f"worst gap {worst_assoc:.3e}")
    ctx.verdict("group inverse", worst_inv < tol, f"worst gap {worst_inv:.3e}")
    ctx.verdict("group round-trip", worst_ident < tol, f"worst gap {worst_ident:.3e}")
    ctx.section["group_law"] = {
        "triples": triples,
        "commutativity_gap": worst_comm,
        "associativity_gap": worst_assoc,
        "inverse_gap": worst_inv,
        "round_trip_gap": worst_ident,
    }
    formula = ctx.formula_outcome.formula if ctx.formula_outcome else None
    if formula is None:
        return
    agree = 0
    tried = 0
    worst = 0.0
    closure_worst = 0.0
    guard = 0
    while tried < opts.samples and guard < 40 * opts.samples:
        guard += 1
        u = draw_point(rng, spec.n, box)
        v = draw_point(rng, spec.n, box)
        p1 = backend_point(backend, ctx.vspec, u)
        p2 = backend_point(backend, ctx.vspec, v)
        if not (p1.is_finite() and p2.is_finite()):
            continue
        want = point_add(p1, p2, backend=backend, spec=ctx.vspec)
        if not want.is_finite():
            continue
        try:
            got = point_add(p1, p2, formula=formula)
        except (DivisorDegeneracyError, PoleError):
            continue
        tried += 1
        gap = _point_gap(got, want)
        worst = max(worst, gap)
        closure_worst = max(closure_worst, variety_residual(ctx.vspec, got))
        if gap < tol:
            agree += 1
    ok = tried >= min(opts.samples, 50) and agree >= int(0.95 * tried)
    ctx.verdict("formula/backend agreement", ok, f"{agree}/{tried} pairs within {tol:.1e}")
    ctx.verdict("formula closure", closure_worst < tol, f"worst |V| residual {closure_worst:.3e}")
    ctx.section["group_law"]["formula_agreement"] = {"agree": agree, "tried": tried, "worst_gap": worst}


def _point_gap(a, b) -> float:
    gaps = []
    pairs = [(a.theta, b.theta), *zip(a.x, b.x)]
    for ca, cb in pairs:
        if ca is None or cb is None:
            gaps.append(0.0 if ca is cb else float("inf"))
        else:
            gaps.append(abs(ca - cb) / (1 + abs(ca) + abs(cb)))
    return max(gaps)


def _derivative_checks(ctx: RunContext) -> None:
    spec = ctx.spec
    opts = spec.options
    backend = ctx.backend
    rng = random.Random(naming.stage_seed(opts.seed, "derivative-check"))
    box = min(opts.box if opts.box is not None else backend.default_box(), 0.95)
    h = 1e-5
    worst2 = worst3 = 0.0
    done = 0
    guard = 0
    while done < 20 and guard < 800:
        guard += 1
        u = draw_point(rng, spec.n, box)
        if backend.is_pole(u):
            continue
        # the difference quotients divide by h^2; stay well clear of poles so
        # the evaluator's noise floor cannot swamp the 1e-6 comparison
        lat = getattr(backend, "lattice", None)
        if lat is not None and lat.lattice_distance(u[0]) < 0.5:
            continue
        try:
            for k in range(1, spec.n + 1):
                for p in range(1, spec.n + 1):
                    for q in range(1, spec.n + 1):
                        got = higher_derivative(ctx.relations, backend, k, p, q, u)
                        want = _fd2(backend, k, p, q, u, h)
                        worst2 = max(worst2, abs(got - want) / (1 + abs(want)))
                        for r in range(1, spec.n + 1):
                            got3 = third_derivative(ctx.relations, backend, k, p, q, r, u)
                            want3 = _fd3(backend, k, p, q, r, u, h)
                            worst3 = max(worst3, abs(got3 - want3) / (1 + abs(want3)))
        except (RecursionSingular, PoleError):
            continue
        done += 1
    ctx.verdict("derivative recursion order 2", done >= 20 and worst2 < 1e-6, f"worst {worst2:.3e} at {done} points")
    ctx.verdict("derivative recursion order 3", done >= 20 and worst3 < 1e-6, f"worst {worst3:.3e}")
    ctx.section["derivative_recursion"] = {"points": done, "worst_order2": worst2, "worst_order3": worst3}


def _fd2(backend, k, p, q, u, h):
    up = list(u)
    um = list(u)
    up[q - 1] += h
    um[q - 1] -= h
    return (backend.jacobian(up)[k - 1][p - 1] - backend.jacobian(um)[k - 1][p - 1]) / (2 * h)


def _fd3(backend, k, p, q, r, u, h):
    def j_at(sq, sr):
        w = list(u)
        w[q - 1] += sq
        w[r - 1] += sr
        return backend.jacobian(w)[k - 1][p - 1]

    return (j_at(h, h) - j_at(h, -h) - j_at(-h, h) + j_at(-h, -h)) / (4 * h * h)


def stage_verify(ctx: RunContext) -> None:
    spec = ctx.spec
    opts = spec.options
    for (k, p), entry in sorted(ctx.trace.entries.items()):
        if entry.eliminant is not None:
            rep = residual_check(
                entry.eliminant,
                ctx.backend,
                relation_id=f"H_{k}{p}",
                samples=opts.samples,
                seed=opts.seed,
                tol=max(opts.tol, 1e-8),
                box=opts.box,
            )
            ctx.residual(rep)
        rep = residual_check(
            entry.specialized,
            ctx.backend,
            relation_id=f"h_{k}{p}",
            samples=opts.samples,
            seed=opts.seed,
            tol=max(opts.tol, 1e-8),
            box=opts.box,
        )
        ctx.residual(rep)
    formula = ctx.formula_outcome.formula if ctx.formula_outcome else None
    if formula is not None:
        rng = random.Random(naming.stage_seed(opts.seed, "theta-slot"))
        box = opts.box if opts.box is not None else ctx.backend.default_box()
        worst = 0.0
        done = 0
        guard = 0
        while done < min(50, opts.samples) and guard < 2000:
            guard += 1
            u = draw_point(rng, spec.n, box)
            v = draw_point(rng, spec.n, box)
            p1 = backend_point(ctx.backend, ctx.vspec, u)
            p2 = backend_point(ctx.backend, ctx.vspec, v)
            uv = tuple(a + b for a, b in zip(u, v))
            p3 = backend_point(ctx.backend, ctx.vspec, uv)
            if not (p1.is_finite() and p2.is_finite() and p3.is_finite()):
                continue
            values = {"x0": p1.theta, "y0": p2.theta}
            for i, c in enumerate(p1.x, start=1):
                values[naming.x(i)] = c
            for i, c in enumerate(p2.x, start=1):
                values[naming.y(i)] = c
            if formula.excluded_hit(values, tol=1e-6):
                continue
            try:
                got = formula.R[0].eval_numeric(values)
            except PoleError:
                continue
            worst = max(worst, abs(got - p3.theta) / (1 + abs(p3.theta)))
            done += 1
        ctx.verdict(
            "theta-slot formula", done >= 25 and worst < max(opts.tol, 1e-8),
            f"worst gap {worst:.3e} on {done} pairs",
        )
    _group_law_checks(ctx)
    _derivative_checks(ctx)


def stage_period(ctx: RunContext) -> None:
    spec = ctx.spec
    opts = spec.options
    backend = ctx.backend
    candidates = detect_period(
        backend,
        box=opts.period_box,
        grid=opts.grid,
        tol=max(opts.tol, 1e-9),
        seed=opts.seed,
    )
    ctx.periods = candidates
    section = {"generators": [c.to_json() for c in candidates]}
    lat = getattr(backend, "lattice", None)
    if lat is not None:
        shift_worst = 0.0
        rng = random.Random(naming.stage_seed(opts.seed, "zeta-shift"))
        for _ in range(10):
            u = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if lat.lattice_distance(u) < 0.25:
                continue
            for omega, eta in ((lat.omega1, lat.eta1), (lat.omega2, lat.eta2)):
                got = lat.zeta(u + 2 * omega) - lat.zeta(u)
                shift_worst = max(shift_worst, abs(got - 2 * eta) / (1 + abs(2 * eta)))
        ctx.verdict("zeta quasi-periodicity", shift_worst < 1e-9, f"worst {shift_worst:.3e}")
        section["zeta_shift_worst"] = shift_worst
        if spec.family == "weierstrass":
            expected = [(2 * lat.omega1,), (2 * lat.omega2,)]
        elif spec.family == "singular2-case4":
            expected = [(2 * lat.omega1, 2 * lat.eta1), (2 * lat.omega2, 2 * lat.eta2)]
        else:
            expected = None
        if expected is not None:
            basis = [c.p for c in candidates]
            ok = len(basis) == len(expected)
            ok = ok and all(is_integer_combination(e, basis, tol=1e-7) for e in expected)
            ok = ok and all(is_integer_combination(g, expected, tol=1e-7) for g in basis)
            ctx.verdict(
                "period lattice recovered", ok,
                f"{len(candidates)} generators match the quasi-period vectors up to integer combinations",
            )
            section["expected"] = [[complex_entry(c) for c in e] for e in expected]
            for cand in candidates:
                if is_integer_combination(cand.p, expected, tol=1e-7):
                    cand.note = "integer combination of the quasi-period vectors"
            section["generators"] = [c.to_json() for c in candidates]
    if spec.family == "rational" or (spec.family == "singular2-case1"):
        ctx.verdict("no period for rational mapping", not candidates, f"{len(candidates)} candidates")
    for cand in candidates:
        ctx.verdict(
            f"period residual {_fmt_vec(cand.p)}", cand.residual < max(opts.tol, 1e-9),
            f"residual {cand.residual:.3e}",
        )
    if candidates and ctx.relations is not None:
        witness = candidates[0]
        a = witness.witness[0]
        b = tuple(x + y for x, y in zip(a, witness.p))
        check = taylor_match_check(ctx.relations, backend, a, b, order=3, tol=max(opts.tol, 1e-7))
        section["taylor_witness"] = check.to_json()
        if check.applicable:
            ctx.verdict("taylor expansion witness", bool(check.matched), check.detail)
    if candidates and ctx.vspec is not None:
        try:
            unique = uniqueness_witness(
                backend, ctx.vspec, candidates[0].p, seed=opts.seed, tol=max(opts.tol, 1e-8)
            )
            ctx.verdict("uniqueness witness", unique, "shifted values agree on a period pair")
        except StructuralError:
            section["uniqueness_witness"] = "no usable witness pair"
    ctx.section["periods"] = section


def _fmt_vec(p) -> str:
    return "(" + ", ".join(f"{c.real:+.4f}{c.imag:+.4f}j" for c in p) + ")"


_STAGE_FUNCS = {
    "derive": stage_derive,
    "variety": stage_variety,
    "resolve": stage_resolve,
    "verify": stage_verify,
    "period": stage_period,
}


def run_problem(spec: ProblemSpec, stages, *, timings: bool = False) -> dict:
    backend = spec.make_backend()
    ctx = RunContext(spec=spec, backend=backend)
    plan = expand_stages(stages)
    section = {
        "source": spec.source,
        "spec_echo": _spec_echo(spec, backend),
        "stages": plan,
    }
    ctx.section = section
    stage_times = {}
    failure = None
    for stage in plan:
        t0 = time.monotonic()
        try:
            _STAGE_FUNCS[stage](ctx)
        except (AlgebraError, SamplingError, EliminationError, PrimitiveElementError,
                DegenerateSystemError) as err:
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
    ("exp", {"c": "1"}, "all"),
    ("rational", {}, "all"),
    ("weierstrass", {"g2": "4", "g3": "0"}, "all"),
    ("singular2-case1", {}, "all"),
    ("singular2-case2", {}, "all"),
    ("singular2-case3", {}, "all"),
    ("singular2-case4", {"g2": "4", "g3": "0", "epsilon": "1"}, "all"),
    ("singular2-case5", {"g2": "4", "g3": "0", "a": "1/2"}, "period-only"),
)


def catalog_problem_text(family: str, params: dict, *, seed: int = 42) -> str:
    n = 2 if family.startswith("singular2") else 1
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


def run_catalog(*, seed: int = 42, timings: bool = False) -> dict:
    sections = []
    for family, params, scope in _CATALOG:
        if scope == "period-only":
            # no closed addition polynomials for this family; run the numeric
            # layer only (backend invariants and period detection)
            n = 2
            from .backends import make_backend

            backend = make_backend(family, {k: Fraction(v) for k, v in params.items()})
            spec = ProblemSpec(
                n=n,
                family=family,
                params={k: Fraction(v) for k, v in params.items()},
                ring=naming.problem_ring(n),
                aat_texts=[],
                aat_polys=[],
                options=Options(seed=seed),
                source=f"catalog:{family}",
            )
            ctx = RunContext(spec=spec, backend=backend)
            ctx.section = {
                "source": spec.source,
                "spec_echo": _spec_echo(spec, backend),
                "stages": ["period"],
            }
            t0 = time.monotonic()
            stage_period(ctx)
            ctx.section["residuals"] = ctx.residuals
            ctx.section["verdicts"] = ctx.verdicts
            ctx.section["ok"] = ctx.ok
            if timings:
                ctx.section["timings"] = {"period": round(time.monotonic() - t0, 6)}
            sections.append(ctx.section)
            continue
        text = catalog_problem_text(family, params, seed=seed)
        spec = parse_problem(text, source=f"catalog:{family}")
        sections.append(run_problem(spec, ["all"], timings=timings))
    return {
        "catalog": sections,
        "ok": all(s["ok"] for s in sections),
        "seed": seed,
    }
