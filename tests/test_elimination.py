import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from aat import backends, elimination, euclid, naming
from aat.backends import make_backend
from aat.cli import run
from aat.elimination import (
    AATSystem,
    DegenerateSystemError,
    EliminationError,
    cross_difference,
    derive_first_order,
    gcd_and_eliminant,
    specialize_v,
)
from aat.parsing import parse_poly
from aat.pipeline import catalog_problem_text, run_problem
from aat.problem import parse_problem
from aat.rings import StructuralError
from aat.sampling import residual_check

from exact_oracles import is_associate

REPO = Path(__file__).resolve().parent.parent


def _system(n, texts, params=()):
    ring = naming.problem_ring(n, params)
    return AATSystem(n=n, ring=ring, polys=[parse_poly(t, ring) for t in texts])


@pytest.fixture(scope="module")
def exp_sys():
    return _system(1, ["L1 - x1*y1"])


@pytest.fixture(scope="module")
def exp_backend():
    return make_backend("exp", {"c": Fraction(1)})


@pytest.fixture(scope="module")
def wp_backend():
    return make_backend("weierstrass", {"g2": Fraction(4), "g3": Fraction(0)})


@pytest.fixture(scope="module")
def wp_sys(wp_backend):
    ring = naming.problem_ring(1)
    polys = wp_backend.addition_polys(ring, seed=0)
    return AATSystem(n=1, ring=ring, polys=polys)


def test_cross_difference_exp(exp_sys):
    delta = cross_difference(exp_sys, 1, 1)
    assert str(delta.normalized()) == "x1*w1_1 - y1*z1_1"


def test_cross_difference_additive():
    sys = _system(1, ["L1 - x1 - y1"])
    delta = cross_difference(sys, 1, 1)
    assert str(delta.normalized()) == "z1_1 - w1_1"


def test_cross_difference_degenerate():
    sys = _system(1, ["L1 - 7"])  # value-free addition polynomial: constant map
    with pytest.raises(DegenerateSystemError):
        cross_difference(sys, 1, 1)


def test_eliminant_passthrough_when_delta_is_l_free(exp_sys):
    g = exp_sys.poly(1)
    delta = cross_difference(exp_sys, 1, 1)
    shared, h = gcd_and_eliminant(g, delta, 1)
    assert shared.is_constant()
    assert h == delta.normalized()


def test_eliminant_strips_shared_factor(exp_sys):
    # composite: (L1 - x1*y1) * (L1 - 1); the second factor is value-free, so
    # the cross-difference keeps it as a factor and the gcd must strip it
    ring = exp_sys.ring
    f = parse_poly("L1 - x1*y1", ring)
    k = parse_poly("L1 - 1", ring)
    sys = AATSystem(n=1, ring=ring, polys=[f * k])
    delta = cross_difference(sys, 1, 1)
    assert delta == cross_difference(exp_sys, 1, 1) * k
    shared, h = gcd_and_eliminant(sys.poly(1), delta, 1)
    assert shared == parse_poly("L1 - 1", ring)
    assert h == parse_poly("x1*w1_1 - y1*z1_1", ring)


def test_specialize_exp_at_zero(exp_sys, exp_backend):
    entry = specialize_v(exp_sys, exp_backend, 1, 1, seed=3)
    assert (entry.record.mode, entry.record.point) == ("exact-point", "v=0")
    assert is_associate(entry.eliminant, parse_poly("x1 - z1_1", exp_sys.ring))


def test_specialize_keeps_the_sqrt_d_part_of_a_curve_point(wp_sys, wp_backend, monkeypatch):
    # an L-free cross-difference is its own eliminant.  H = w*C + (w^2 - fy)
    # vanishes on the image; at y1 = 2, w1_1 = sqrt(24) its w-free part A is
    # 0 and the relation C is the part B beside w
    ring = wp_sys.ring
    curve = parse_poly("z1_1^2 - 4*x1^3 + 4*x1", ring)
    H = ring.var("w1_1") * curve + parse_poly("w1_1^2 - 4*y1^3 + 4*y1", ring)
    monkeypatch.setattr(elimination, "cross_difference", lambda sys, k, p: H)
    entry = specialize_v(wp_sys, wp_backend, 1, 1, seed=3)
    assert (entry.record.mode, entry.record.point) == ("exact-point", "y1 = 2, w1_1 = sqrt(24)")
    assert is_associate(entry.eliminant, curve)


def test_no_exact_point_fails_the_run_naming_the_relation(exp_sys, exp_backend, monkeypatch, tmp_path):
    monkeypatch.setattr(exp_backend, "exact_points", lambda: [])
    with pytest.raises(EliminationError, match=r"\(k=1, p=1\)"):
        specialize_v(exp_sys, exp_backend, 1, 1, seed=3)
    # the whole run exits 1, and its report names (k, p)
    monkeypatch.setattr(backends.ElementaryBackend, "exact_points", lambda self: [])
    out = tmp_path / "exp.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["all", str(REPO / "problems" / "exp.aat"), "-o", str(out)]) == 1
    failure = json.loads(out.read_text())["problem"]["failure"]
    assert failure["stage"] == "derive" and failure["error"] == "EliminationError"
    assert "(k=1, p=1)" in failure["message"]


def test_derive_exp(exp_sys, exp_backend):
    relations, trace = derive_first_order(exp_sys, exp_backend, seed=42)
    assert len(relations) == 1
    assert str(relations[0].poly) == "z1_1 - x1"
    entry = trace.entry(1, 1)
    assert entry.relation == relations[0].poly
    assert entry.degree_bound >= 1


def test_derive_exp_with_rate_two(exp_sys):
    backend = make_backend("exp", {"c": Fraction(2)})
    relations, _ = derive_first_order(exp_sys, backend, seed=42)
    assert str(relations[0].poly) == "z1_1 - 2*x1"


def test_derive_additive():
    sys = _system(1, ["L1 - x1 - y1"])
    backend = make_backend("rational", {})
    relations, _ = derive_first_order(sys, backend, seed=42)
    assert str(relations[0].poly) == "z1_1 - 1"


def test_derive_weierstrass(wp_sys, wp_backend):
    relations, trace = derive_first_order(wp_sys, wp_backend, seed=42)
    assert len(relations) == 1
    assert str(relations[0].poly) == "z1_1^2 - 4*x1^3 + 4*x1"
    rep = residual_check(
        relations[0].poly, wp_backend, relation_id="P11", samples=100, seed=9, tol=1e-9
    )
    assert rep.ok


_FOUND = (Fraction(11603921581, 322346116), Fraction(-1615785, 322346116))


@pytest.mark.parametrize(
    "family,g2,g3",
    [
        ("weierstrass", Fraction(3), Fraction(0)),  # g3 = 0
        ("weierstrass", Fraction(-2), Fraction(1)),  # complex roots
        ("weierstrass", Fraction(-5), Fraction(-3)),  # negative invariants
        ("weierstrass", Fraction(7), Fraction(-3)),  # three rational roots
        ("weierstrass", *_FOUND),  # denominators past 10^6
        ("singular2-case4", Fraction(6), Fraction(1)),  # no rational root
    ],
)
def test_lattice_relations_come_from_exact_curve_points(family, g2, g3):
    backend = make_backend(family, {"g2": g2, "g3": g3})
    ring = naming.problem_ring(backend.n)
    sys = AATSystem(n=backend.n, ring=ring, polys=backend.addition_polys(ring, seed=0))
    relations, trace = derive_first_order(sys, backend, seed=42)
    for rel in relations:
        entry = trace.entry(rel.k, rel.p)
        # case 4's 2_1 is the one relation found from samples (the sample nullspace)
        numeric = family == "singular2-case4" and (rel.k, rel.p) == (2, 1)
        assert entry.record.mode == ("numeric-reconstruct" if numeric else "exact-point"), (rel.k, rel.p)
        if not numeric:  # v is fixed before L_k goes: no y or w slot is left
            kinds = {naming.classify(v)[0] for v in entry.eliminant.variables_present() if naming.classify(v)}
            assert kinds <= {"x", "z"}, (rel.k, rel.p, str(entry.eliminant))
        r = rel.poly.ring
        z, x1 = r.var(rel.zvar), r.var("x1")
        closed = {
            (1, 1): z * z - 4 * x1**3 + r.const(g2) * x1 + r.const(g3),
            (1, 2): z,
            (2, 1): z - x1,  # d/du1 of u2 - zeta(u1) is p(u1)
            (2, 2): z - 1,
        }[rel.k, rel.p]
        assert is_associate(rel.poly, closed), (rel.k, rel.p, str(rel.poly))


def test_found_lattice_addition_resolves_from_an_exact_relation():
    # the continued-fraction lift once gave this lattice a wrong P_11 that
    # still passed its residual; the exact curve point gives the curve itself
    g2, g3 = _FOUND
    section = run_problem(parse_problem(catalog_problem_text("weierstrass", {"g2": g2, "g3": g3})), ["resolve"])
    entry = section["trace"]["1_1"]
    assert entry["specialization"]["mode"] == "exact-point"
    assert section["relations"]["1_1"]["poly"] == "322346116*z1_1^2 - 1289384464*x1^3 + 11603921581*x1 - 1615785"
    verdicts = {v["id"]: v["pass"] for v in section["verdicts"]}
    assert verdicts["addition resolved"] is True


def test_lemniscatic_squarefree_probes_skip_the_prs(wp_sys, monkeypatch):
    # GCDHEU on the whole pair settles gcd(H, dH/dv) = 1 on the eliminant;
    # the PRS never runs to prove coprimality (seconds on this H)
    _, H = gcd_and_eliminant(wp_sys.poly(1), cross_difference(wp_sys, 1, 1), 1)
    prs = euclid._prs_gcd

    def guarded(a, b, v):
        g = prs(a, b, v)
        if g.is_constant():
            raise AssertionError(f"subresultant PRS ran on a coprime pair in {v}")
        return g

    monkeypatch.setattr(euclid, "_prs_gcd", guarded)
    for v in ("x1", "y1"):
        assert H.degree_in(v) >= 2
        assert euclid.gcd(H, H.diff(v)) == H.ring.one()


def test_eliminant_symmetry_invariant(exp_sys, wp_sys):
    # swapping u-side and v-side slots fixes the eliminant up to sign
    for sys in (exp_sys, wp_sys):
        delta = cross_difference(sys, 1, 1)
        _, h = gcd_and_eliminant(sys.poly(1), delta, 1)
        swap = {"x1": sys.ring.var("y1"), "y1": sys.ring.var("x1"),
                "z1_1": sys.ring.var("w1_1"), "w1_1": sys.ring.var("z1_1")}
        swapped = h.subs_exact(swap)
        assert is_associate(swapped, h)


def test_eliminant_soundness_residual(wp_sys, wp_backend):
    delta = cross_difference(wp_sys, 1, 1)
    _, h = gcd_and_eliminant(wp_sys.poly(1), delta, 1)
    rep = residual_check(h, wp_backend, relation_id="H11", samples=80, seed=5, tol=1e-8)
    assert rep.ok


def test_derive_case3_all_four():
    sys = _system(2, ["L1 - x1*y1", "L2 - x2*y2"])
    backend = make_backend("singular2-case3", {})
    relations, _ = derive_first_order(sys, backend, seed=42)
    got = {(r.k, r.p): str(r.poly) for r in relations}
    assert got == {
        (1, 1): "z1_1 - x1",
        (2, 1): "z2_1",
        (1, 2): "z1_2",
        (2, 2): "z2_2 - x2",
    }


def test_determinism_of_derivation(wp_sys, wp_backend):
    r1, _ = derive_first_order(wp_sys, wp_backend, seed=42)
    r2, _ = derive_first_order(wp_sys, wp_backend, seed=42)
    assert [str(r.poly) for r in r1] == [str(r.poly) for r in r2]


def test_derive_rejects_three_components():
    ring = naming.problem_ring(3)
    polys = [parse_poly(f"L{k} - x{k} - y{k}", ring) for k in (1, 2, 3)]
    sys = AATSystem(n=3, ring=ring, polys=polys)
    backend = make_backend("rational", {})
    with pytest.raises(StructuralError):
        derive_first_order(sys, backend, seed=1)


@pytest.mark.parametrize("g2,g3", [(Fraction(4), Fraction(0)), (Fraction(6), Fraction(1))])
def test_heavy_relation_tries_no_point_whose_curve_slot_it_holds(g2, g3, monkeypatch):
    # case 4's G2 has degree 4 in L2 and its (2, 1) cross-difference holds
    # w1_1, which is sqrt(d) or 0 at every curve point: no point is tried,
    # on (4, 0) with its three rational roots as on (6, 1) without one
    backend = make_backend("singular2-case4", {"g2": g2, "g3": g3})
    ring = naming.problem_ring(2)
    sys = AATSystem(n=2, ring=ring, polys=backend.addition_polys(ring, seed=0))
    tried = []
    real = elimination.gcd_and_eliminant
    monkeypatch.setattr(elimination, "gcd_and_eliminant", lambda *args: tried.append(args) or real(*args))
    entry = specialize_v(sys, backend, 2, 1, seed=42)
    assert not tried
    assert entry.record.mode == "numeric-reconstruct"
    assert entry.notes[0].startswith("no exact point tried: G2 has degree 4 in L2")
    assert is_associate(entry.specialized, ring.var("z2_1") - ring.var("x1"))
