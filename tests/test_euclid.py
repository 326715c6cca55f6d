import math
import random
from fractions import Fraction

import pytest

from aat import euclid
from aat.euclid import (
    content_in,
    exact_div,
    factor_candidates,
    gcd,
    poly_sqrt,
    prem,
    resultant,
    squarefree_check,
    squarefree_in,
)
from aat.rings import DomainError, VarRing

from conftest import random_poly
from exact_oracles import (
    content_in_reference,
    divides,
    factor_candidates_reference,
    is_associate,
    resultant_sylvester,
)


def test_gcd_examples():
    r = VarRing(("x1", "y1"))
    x1, y1 = r.var("x1"), r.var("y1")
    assert gcd(x1**2 - 1, x1**2 - 2 * x1 + 1) == x1 - 1
    p = (x1 + y1).scale(Fraction(3, 2))
    assert gcd(p, r.zero()) == x1 + y1
    assert gcd(x1 * y1, x1 * y1 + x1) == x1


def test_gcd_with_a_constant_is_one_without_a_gcd_route(monkeypatch):
    r = VarRing(("x1", "y1"))
    x1, y1 = r.var("x1"), r.var("y1")

    def no_route(a, b):
        raise AssertionError("a gcd route ran on a constant operand")

    monkeypatch.setattr(euclid, "_heu_gcd", no_route)
    monkeypatch.setattr(euclid, "_gcd_rec", no_route)
    for a, b in [(x1**2 - y1, r.const(Fraction(-2, 3))), (r.const(7), x1 * y1), (r.const(3), r.const(5))]:
        assert gcd(a, b) == r.one() and gcd(b, a) == r.one()
    assert gcd(r.const(Fraction(-5, 2)), r.zero()) == r.one()
    assert gcd(r.zero(), x1.scale(-3)) == x1


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
    # GCDHEU off: every non-trivial gcd runs the content split and the PRS
    with monkeypatch.context() as m:
        m.setattr(euclid, "_heu_gcd", lambda a, b: None)
        return gcd(a, b)


def _no_prs(a, b, v):
    raise AssertionError(f"subresultant PRS ran in {v}")


def _canonical(p):
    return list(p.terms) == sorted(p.terms, reverse=True)


def test_gcd_with_a_denominator_divisible_by_a_large_prime(pring):
    theta, x1 = pring.var("theta"), pring.var("x1")
    a = theta**2 + x1.scale(Fraction(1, (1 << 61) - 1))
    b = theta + 1
    assert gcd(a, b) == pring.one()
    assert gcd(a * (theta - x1), b * (theta - x1)) == theta - x1


def test_gcd_with_a_leading_coefficient_vanishing_at_a_point(pring):
    theta, x1, g2 = pring.var("theta"), pring.var("x1"), pring.var("g2")
    c = 0x9E3779B97F4A7C15 * 2 % ((1 << 61) - 1)
    g = (x1 - c) * theta + 1  # drops to the constant 1 at x1 = c
    a, b = g * (theta + 2), g * (theta + g2)
    assert is_associate(gcd(a, b), g)
    assert gcd((x1 - c) * theta + 1, theta + g2) == pring.one()


def _planted_pairs(rng, ring, count):
    """(a*c, b*c, c) with random rational a, b and a non-constant planted c."""
    out = []
    while len(out) < count:
        a, b, c = (random_poly(rng, ring, max_degree=3, max_terms=4) for _ in range(3))
        if a.is_zero() or b.is_zero() or c.is_constant():
            continue
        out.append((a * c, b * c, c))
    return out


@pytest.mark.parametrize(
    "variables, parameters",
    [(("x1", "x2", "x3"), ()), (("theta", "x1"), ("g2", "g3")), (("L1", "x1", "y1"), ("g2",))],
)
def test_gcd_heuristic_matches_prs_route(variables, parameters, monkeypatch):
    ring = VarRing(variables, parameters)
    answered = []
    real = euclid._heu_gcd

    def spy(a, b):
        g = real(a, b)
        answered.append(g is not None)
        return g

    monkeypatch.setattr(euclid, "_heu_gcd", spy)
    for x, y, c in _planted_pairs(random.Random(36), ring, 20):
        fast = gcd(x, y)
        assert is_associate(fast, _prs_only_gcd(monkeypatch, x, y))
        assert divides(c, fast) and divides(fast, x) and divides(fast, y)
        assert _canonical(fast)
    assert answered and all(answered)


def _whole_pair_off(monkeypatch):
    """Stub off the whole-pair GCDHEU step of gcd() only: GCDHEU still runs
    in the gcd() calls of the content split inside the fallback.  Returns
    the list of fallback entries."""
    real_heu, real_rec = euclid._heu_gcd, euclid._gcd_rec
    depth, entered = [0], []

    def rec(a, b):
        entered.append(depth[0])
        depth[0] += 1
        try:
            return real_rec(a, b)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(euclid, "_gcd_rec", rec)
    monkeypatch.setattr(euclid, "_heu_gcd", lambda a, b: real_heu(a, b) if depth[0] else None)
    return entered


def _double_resultant(g2, g3):
    """The p addition relation with both tangents eliminated by generic
    resultants: the square of the relation times contents, a large operand
    whose repeated factors only gcd(q, dq/dv) splits off."""
    r = VarRing(("L1", "x1", "y1", "tx", "ty"))
    L1, x1, y1, tx, ty = (r.var(n) for n in r.names)
    c = 4 * (x1 - y1) ** 2 * (L1 + x1 + y1) - (tx - ty) ** 2
    fx = 4 * x1**3 - r.const(g2) * x1 - r.const(g3)
    fy = 4 * y1**3 - r.const(g2) * y1 - r.const(g3)
    return resultant(resultant(c, tx**2 - fx, "tx"), ty**2 - fy, "ty").normalized()


def test_gcd_answers_by_the_whole_pair_step(pring, monkeypatch):
    r2 = _double_resultant(Fraction(8, 3), Fraction(-7))
    on = factor_candidates(r2)

    def no_split(a, b):
        raise AssertionError("gcd() fell back to the content split")

    with monkeypatch.context() as m:
        m.setattr(euclid, "_gcd_rec", no_split)
        for x, y, c in _planted_pairs(random.Random(38), pring, 20):
            assert divides(c, gcd(x, y))
    # the candidate pool does not depend on the route: same list, same order
    entered = _whole_pair_off(monkeypatch)
    off = factor_candidates(r2)
    assert 0 in entered  # the stubbed-off run took the content split
    assert [str(q) for q in off] == [str(q) for q in on] and len(on) > 1


def test_gcd_heuristic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    ring = VarRing(("x1", "x2", "y1"), ("g2",))
    gens = sympy.symbols(ring.names)
    names = dict(zip(ring.names, gens))

    def to_sympy(p):
        return sympy.Poly(sympy.sympify(str(p).replace("^", "**"), locals=names), *gens, domain="QQ")

    for x, y, _ in _planted_pairs(random.Random(37), ring, 15):
        expected = sympy.gcd(to_sympy(x), to_sympy(y)).monic()
        assert to_sympy(gcd(x, y)).monic() == expected


def test_gcd_heuristic_keeps_integer_content_of_inner_images(monkeypatch):
    # y is evaluated first, at an even xi, where the common factor's image
    # xi*x + xi + 2 has integer content 2; the inner level must hand it back
    r = VarRing(("x", "y"))
    x, y = r.var("x"), r.var("y")
    g = y * x + y + 2
    inner = []
    real = euclid._heu_rec

    def spy(A, B):
        out = real(A, B)
        if out and any(out):  # a nonzero packed key: not a constant
            inner.append(math.gcd(*out.values()))
        return out

    monkeypatch.setattr(euclid, "_heu_rec", spy)
    monkeypatch.setattr(euclid, "_prs_gcd", _no_prs)  # the heuristic must answer
    assert gcd(g * (x + 3), g * (x - y + 1)) == g
    assert 2 in inner
    # the univariate level returns the gcd with its content, not its primitive part
    pack = lambda terms: r.poly(terms)._packed  # noqa: E731
    assert real(pack({(1, 0): 4, (0, 0): 6}), pack({(1, 0): 8, (0, 0): 12})) == pack({(1, 0): 4, (0, 0): 6})


def test_gcd_heuristic_gives_up_to_the_prs(monkeypatch):
    r = VarRing(("x", "y"))
    x, y = r.var("x"), r.var("y")
    g = x * y + 1
    calls = []
    real = euclid._prs_gcd

    def spy(a, b, v):
        calls.append(v)
        return real(a, b, v)

    monkeypatch.setattr(euclid, "_prs_gcd", spy)
    # every evaluation point would give images beyond the size limit
    big = 1 << euclid._HEU_MAX_BITS
    a, b = g * (x + big), g * (x - big)
    assert euclid._heu_gcd(a, b) is None
    assert gcd(a, b) == g and calls
    # and with no tries left the PRS answers what the heuristic would have
    calls.clear()
    monkeypatch.setattr(euclid, "_HEU_TRIES", 0)
    assert gcd(g * (x + 3), g * (x - y + 1)) == g and calls


def test_gcd_emits_canonical_term_order_on_every_route(monkeypatch):
    r = VarRing(("x", "y"), ("g2",))
    x, y, g2 = r.var("x"), r.var("y"), r.var("g2")
    g = y * x + g2 + 2
    unsorted = 1 + y + x
    assert not _canonical(unsorted)
    pairs = [
        (r.zero(), unsorted),  # a zero operand
        (x + 1, x + y),  # coprime
        (g * (x + 3), g * (x - y)),  # a common factor
        ((y + 1) * (x + 1) * (x + 2), (y + 1) * (x + 1) * (x + 3)),  # content times gcd
    ]
    for a, b in pairs:
        assert _canonical(gcd(a, b))
        assert _canonical(_prs_only_gcd(monkeypatch, a, b))


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


def _planted_square_draws(rng, ring, count):
    """(q, a) with q = a^2 * b * c, deg a >= 1, and c a product of two
    contents, each free of one name."""
    names = ring.names
    out = []
    while len(out) < count:
        a, b, c1, c2 = (random_poly(rng, ring, max_degree=2, max_terms=3) for _ in range(4))
        c1 = c1.subs_exact({rng.choice(names): 0})
        c2 = c2.subs_exact({rng.choice(names): 0})
        if a.is_constant() or b.is_zero() or c1.is_zero() or c2.is_zero():
            continue
        out.append((a * a * b * c1 * c2, a))
    return out


def _with_terms(pool):
    return [(str(q), list(q.terms)) for q in pool]


@pytest.mark.parametrize(
    "variables, parameters, seed",
    [(("x1", "x2", "x3"), (), 40), (("L1", "x1", "y1"), ("g2",), 41)],
)
def test_factor_candidates_matches_the_reference_pool(variables, parameters, seed, monkeypatch):
    ring = VarRing(variables, parameters)
    verdicts = []
    real = euclid._squarefree_image

    def spy(q, v):
        verdicts.append(real(q, v))
        return verdicts[-1]

    monkeypatch.setattr(euclid, "_squarefree_image", spy)
    rng = random.Random(seed)
    draws = [q for q, _ in _planted_square_draws(rng, ring, 8)]
    draws += [a * b for a, b, _ in _planted_pairs(rng, ring, 4)]
    for q in draws:
        assert _with_terms(factor_candidates(q)) == _with_terms(factor_candidates_reference(q))
        for v in ring.names:
            assert _with_terms([content_in(q, v)]) == _with_terms([content_in_reference(q, v)])
    # both outcomes of the certificate were exercised
    assert True in verdicts and False in verdicts


def test_squarefree_certificate_never_passes_a_square(pring):
    rings = [pring, VarRing(("x1", "x2", "x3")), VarRing(("L1", "x1", "y1"), ("g2",))]
    rng = random.Random(42)
    tried = 0
    for ring in rings:
        for q, a in _planted_square_draws(rng, ring, 25):
            for v in a.names_present():
                tried += 1
                assert not euclid._squarefree_image(q, v), (q, v)
    assert tried > 50
    theta, x1, g2 = pring.var("theta"), pring.var("x1"), pring.var("g2")
    assert euclid._squarefree_image(theta**2 - x1, "theta")
    # a square in the content is no repeated v-factor
    assert euclid._squarefree_image((theta**2 - x1) * (x1 + g2) ** 2, "theta")
    assert not euclid._squarefree_image((theta - x1) ** 2, "theta")
    # an image that loses the leading coefficient, or a coefficient with no image, proves nothing
    point = euclid._POINT * (pring.index("x1") + 1) % euclid._P
    assert not euclid._squarefree_image((x1 - point) * theta**2 + theta + 1, "theta")
    assert not euclid._squarefree_image(theta**2 + x1.scale(Fraction(1, euclid._P)), "theta")
