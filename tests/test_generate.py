from fractions import Fraction

import pytest

from aat import euclid, generate, naming
from aat.backends import make_backend
from aat.rings import StructuralError
from aat.sampling import residual_check

from test_backends import FAMILIES


@pytest.mark.parametrize(
    "build, family, lvar, g2, g3",
    [
        (generate.weierstrass_addition_poly, "weierstrass", "L1", Fraction(8, 3), Fraction(-7)),
        (generate.zeta_drift_addition_poly, "singular2-case4", "L2", Fraction(4), Fraction(0)),
    ],
)
def test_addition_poly_generation_skips_the_prs(build, family, lvar, g2, g3, monkeypatch):
    # GCDHEU answers every gcd of factor_candidates on the eliminated relation;
    # the subresultant PRS, seconds per call on such operands, is never needed
    def guarded(a, b, v):
        raise AssertionError(f"subresultant PRS ran in {v}")

    monkeypatch.setattr(euclid, "_prs_gcd", guarded)
    g = build(g2, g3, make_backend(family, {"g2": g2, "g3": g3}))
    assert g.degree_in(lvar) > 0


# (g2, g3): g3 = 0, g2 = 0, complex roots (g2^3 < 27*g3^2), negative
# invariants, and a lattice whose invariants have nine-digit denominators
LATTICES = [
    (Fraction(4), Fraction(0)),
    (Fraction(0), Fraction(1)),
    (Fraction(1), Fraction(1)),
    (Fraction(-7), Fraction(7, 3)),
    (Fraction(-1), Fraction(-17)),
    (Fraction(8, 3), Fraction(-7)),
    (Fraction(11603921581, 322346116), Fraction(-1615785, 322346116)),
]


def _classical_p(ring, g2, g3):
    L1, x1, y1 = ring.var("L1"), ring.var("x1"), ring.var("y1")
    return (x1 + y1 + L1) * (4 * x1 * y1 * L1 - g3) - (x1 * y1 + y1 * L1 + L1 * x1 + g2 / 4) ** 2


def _classical_zeta_drift(ring, g2, g3):
    x1, y1 = ring.var("x1"), ring.var("y1")
    s = ring.var("L2") - ring.var("x2") - ring.var("y2")
    return (4 * (x1 - y1) * s**2 - 4 * (x1**2 + x1 * y1 + y1**2) + g2) ** 2 - 16 * s**2 * (
        4 * y1**3 - g2 * y1 - g3
    )


@pytest.mark.parametrize("g2, g3", LATTICES)
@pytest.mark.parametrize(
    "build, family, classical",
    [
        (generate.weierstrass_addition_poly, "weierstrass", _classical_p),
        (generate.zeta_drift_addition_poly, "singular2-case4", _classical_zeta_drift),
    ],
)
def test_auto_addition_polys_are_the_classical_forms(build, family, classical, g2, g3, monkeypatch):
    def no_resultant(a, b, v):
        raise AssertionError("G = auto took a generic resultant")

    monkeypatch.setattr(euclid, "resultant", no_resultant)
    monkeypatch.setattr(generate, "resultant", no_resultant, raising=False)
    g = build(g2, g3, make_backend(family, {"g2": g2, "g3": g3}))
    assert g == classical(g.ring, g2, g3).normalized()
    # canonical term order: numeric evaluation sums in it
    assert list(g.terms) == sorted(g.terms, reverse=True)


@pytest.mark.parametrize("family,params", FAMILIES)
def test_auto_addition_polys_vanish_on_their_backend(family, params):
    # G = auto comes from the backend; every family but case 5 has closed G
    backend = make_backend(family, params)
    ring = naming.problem_ring(backend.n)
    if family == "singular2-case5":
        with pytest.raises(StructuralError, match="singular2-case5"):
            backend.addition_polys(ring, seed=0)
        return
    polys = backend.addition_polys(ring, seed=0)
    assert len(polys) == backend.n
    for k, g in enumerate(polys, start=1):
        assert g.degree_in(naming.L(k)) > 0
        rep = residual_check(g, backend, relation_id=f"G{k}", samples=40, seed=5, tol=1e-9)
        assert rep.ok and rep.samples == 40, rep
