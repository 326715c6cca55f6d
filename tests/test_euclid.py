import random
from fractions import Fraction

import pytest

from aat import euclid
from aat.euclid import (
    divides,
    exact_div,
    factor_candidates,
    gcd,
    poly_sqrt,
    prem,
    resultant,
    resultant_sylvester,
    squarefree_check,
    squarefree_in,
)
from aat.rings import DomainError, VarRing

from conftest import random_poly


def test_gcd_examples():
    r = VarRing(("x1", "y1"))
    x1, y1 = r.var("x1"), r.var("y1")
    assert gcd(x1**2 - 1, x1**2 - 2 * x1 + 1) == x1 - 1
    p = (x1 + y1).scale(Fraction(3, 2))
    assert gcd(p, r.zero()) == x1 + y1
    assert gcd(x1 * y1, x1 * y1 + x1) == x1


def test_gcd_multiplicative_property(ring3):
    rng = random.Random(31)
    done = 0
    while done < 25:
        a = random_poly(rng, ring3, max_degree=2, max_terms=3)
        b = random_poly(rng, ring3, max_degree=2, max_terms=3)
        c = random_poly(rng, ring3, max_degree=2, max_terms=3)
        if a.is_zero() or b.is_zero() or c.is_zero():
            continue
        lhs = gcd(a * c, b * c)
        rhs = (gcd(a, b) * c).normalized()
        assert lhs == rhs
        done += 1


def test_gcd_divides_both(ring3):
    rng = random.Random(32)
    for _ in range(30):
        a = random_poly(rng, ring3, max_degree=3, max_terms=4)
        b = random_poly(rng, ring3, max_degree=3, max_terms=4)
        g = gcd(a, b)
        if g.is_zero():
            assert a.is_zero() and b.is_zero()
            continue
        assert divides(g, a) and divides(g, b)


def _prs_only_gcd(monkeypatch, a, b):
    with monkeypatch.context() as m:
        m.setattr(euclid, "_coprime_mod_p", lambda a, b, v: False)
        return gcd(a, b)


def test_gcd_certificate_matches_prs_route(pring, monkeypatch):
    rng = random.Random(35)
    certified = []
    real = euclid._coprime_mod_p

    def spy(a, b, v):
        ok = real(a, b, v)
        certified.append(ok)
        return ok

    monkeypatch.setattr(euclid, "_coprime_mod_p", spy)
    done = 0
    while done < 60:
        a = random_poly(rng, pring, max_degree=3, max_terms=4)
        b = random_poly(rng, pring, max_degree=3, max_terms=4)
        if a.is_zero() or b.is_zero():
            continue
        pairs = [(a, b)]
        c = random_poly(rng, pring, max_degree=2, max_terms=3)
        if not c.is_zero() and not c.is_constant():
            pairs.append((a * c, b * c))
        for x, y in pairs:
            fast = gcd(x, y)
            assert fast.is_associate(_prs_only_gcd(monkeypatch, x, y))
            assert divides(fast, x) and divides(fast, y)
        done += 1
    # both outcomes of the certificate were exercised
    assert True in certified and False in certified


def test_gcd_certificate_steps_aside_on_denominator_divisible_by_p(pring):
    theta, x1 = pring.var("theta"), pring.var("x1")
    a = theta**2 + x1.scale(Fraction(1, euclid._P))
    b = theta + 1
    assert not euclid._coprime_mod_p(a, b, "theta")
    assert euclid._coprime_mod_p(theta**2 + x1.scale(Fraction(1, 3)), b, "theta")
    assert gcd(a, b) == pring.one()
    assert gcd(a * (theta - x1), b * (theta - x1)) == theta - x1


def test_gcd_certificate_steps_aside_on_vanishing_leading_coefficient(pring):
    theta, x1, g2 = pring.var("theta"), pring.var("x1"), pring.var("g2")
    c = euclid._eval_point(pring)[pring.index("x1")]
    g = (x1 - c) * theta + 1  # its image at the point drops to the constant 1
    a, b = g * (theta + 2), g * (theta + g2)
    assert not euclid._coprime_mod_p(a, b, "theta")
    assert gcd(a, b).is_associate(g)
    assert gcd((x1 - c) * theta + 1, theta + g2) == pring.one()


def test_exact_div_and_prem():
    r = VarRing(("x", "y"))
    x, y = r.var("x"), r.var("y")
    q = exact_div((x + y) * (x - y), x + y)
    assert q == x - y
    with pytest.raises(DomainError):
        exact_div(x * x + 1, x + y)
    rem = prem(x**2 - 1, x - 2, "x")
    assert rem == r.const(3)


def test_resultant_examples():
    r = VarRing(("x", "y1"))
    x, y1 = r.var("x"), r.var("y1")
    assert resultant(x**2 - 1, x - 2, "x") == r.const(3)
    assert resultant(x - y1, x - y1, "x").is_zero()
    with pytest.raises(DomainError):
        resultant(x - y1, y1 + 1, "x")


def test_resultant_matches_sylvester_oracle(ring3):
    rng = random.Random(33)
    done = 0
    while done < 25:
        a = random_poly(rng, ring3, max_degree=4, max_terms=4)
        b = random_poly(rng, ring3, max_degree=4, max_terms=4)
        if a.degree_in("x1") <= 0 or b.degree_in("x1") <= 0:
            continue
        assert resultant(a, b, "x1") == resultant_sylvester(a, b, "x1")
        done += 1


def test_resultant_vanishes_iff_common_factor(ring3):
    rng = random.Random(34)
    done = 0
    while done < 20:
        a = random_poly(rng, ring3, max_degree=2, max_terms=3)
        b = random_poly(rng, ring3, max_degree=2, max_terms=3)
        if a.degree_in("x1") <= 0 or b.degree_in("x1") <= 0:
            continue
        res = resultant(a, b, "x1")
        has_common = gcd(a, b).degree_in("x1") > 0
        assert res.is_zero() == has_common
        done += 1
        # also exercise a pair with a forced common factor
        c = random_poly(rng, ring3, max_degree=1, max_terms=2)
        if c.degree_in("x1") == 1:
            assert resultant(a * c, b * c, "x1").is_zero()


def test_squarefree_examples(pring):
    theta, x1 = pring.var("theta"), pring.var("x1")
    g2, g3 = pring.var("g2"), pring.var("g3")
    assert squarefree_check(theta**2 - x1, "theta")
    assert not squarefree_check((theta - x1) ** 2, "theta")
    assert squarefree_check(theta**2 - 4 * x1**3 + g2 * x1 + g3, "theta")
    with pytest.raises(DomainError):
        squarefree_check(x1 + 1, "theta")
    assert squarefree_in((theta - x1) ** 3 * (theta + x1), "theta") == (theta - x1) * (theta + x1)


def test_poly_sqrt():
    r = VarRing(("x", "y"))
    x, y = r.var("x"), r.var("y")
    p = (x + 2 * y) ** 2
    assert poly_sqrt(p) == x + 2 * y
    assert poly_sqrt(p.scale(Fraction(9, 4))) == (x + 2 * y).scale(Fraction(3, 2))
    assert poly_sqrt(x**2 + y) is None
    assert poly_sqrt(x**2 + y**2) is None


def test_factor_candidates_splits_content_and_powers():
    r = VarRing(("z", "x"))
    z, x = r.var("z"), r.var("x")
    p = z**2 * (x**2 + 1) * (z - x) ** 2
    cands = [str(c) for c in factor_candidates(p)]
    assert "z" in cands
    assert "x^2 + 1" in cands
    assert "z - x" in cands
