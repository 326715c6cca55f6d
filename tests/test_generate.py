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
    # GCDHEU answers every gcd of factor_candidates on the double resultant;
    # the subresultant PRS, seconds per call on these operands, is never needed
    def guarded(a, b, v):
        raise AssertionError(f"subresultant PRS ran in {v}")

    monkeypatch.setattr(generate, "_WP_CACHE", {})
    monkeypatch.setattr(euclid, "_prs_gcd", guarded)
    g = build(g2, g3, make_backend(family, {"g2": g2, "g3": g3}))
    assert g.degree_in(lvar) > 0


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
