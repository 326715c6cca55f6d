from fractions import Fraction

import pytest

from aat import euclid, generate
from aat.backends import make_backend


@pytest.mark.parametrize(
    "build, family, lvar, g2, g3",
    [
        (generate.weierstrass_addition_poly, "weierstrass", "L1", Fraction(8, 3), Fraction(-7)),
        (generate.zeta_drift_addition_poly, "singular2-case4", "L2", Fraction(4), Fraction(0)),
    ],
)
def test_addition_poly_generation_skips_the_prs(build, family, lvar, g2, g3, monkeypatch):
    # the gcds of factor_candidates on the double resultant are either coprime
    # (certificate) or share a real factor (GCDHEU); the subresultant PRS,
    # seconds per call on these operands, is never needed
    def guarded(a, b, v):
        raise AssertionError(f"subresultant PRS ran in {v}")

    monkeypatch.setattr(generate, "_WP_CACHE", {})
    monkeypatch.setattr(euclid, "_prs_gcd", guarded)
    g = build(g2, g3, make_backend(family, {"g2": g2, "g3": g3}))
    assert g.degree_in(lvar) > 0
