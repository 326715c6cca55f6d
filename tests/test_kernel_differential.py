"""Differential tests of the exact kernel, with inputs drawn by hypothesis.

`gcd` is checked against the PRS-only route of the same module and against
sympy up to associates; `resultant` against the Sylvester-determinant oracle
(not against sympy, which negates some resultants: 1.14 gives the wrong sign
for 2/3*x1^2*x2 + 4 and -4*x2^3 - 2 in x2).  Inputs have rational
coefficients, ring parameters, planted common factors, and zero or constant
operands.  The runs are derandomized and capped, so the suite is repeatable
and cheap.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings, strategies as st  # noqa: E402

from aat import euclid  # noqa: E402
from aat.euclid import (  # noqa: E402
    content_in,
    divides,
    exact_div,
    gcd,
    resultant,
    squarefree_check,
    squarefree_in,
)
from aat.rings import VarRing  # noqa: E402

from exact_oracles import resultant_sylvester  # noqa: E402

RINGS = (
    VarRing(("x1", "x2", "x3")),
    VarRing(("theta", "x1"), ("g2", "g3")),
    VarRing(("L1", "x1", "y1"), ("g2",)),
)

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

coefficients = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 3))


@st.composite
def polys(draw, ring, max_degree=3, max_terms=4):
    width = len(ring.names)
    exps = st.lists(st.integers(0, width - 1), max_size=max_degree).map(
        lambda picks: tuple(picks.count(i) for i in range(width))
    )
    return ring.poly(draw(st.dictionaries(exps, coefficients, min_size=1, max_size=max_terms)))


@st.composite
def operands(draw, ring):
    """A random polynomial, or in one draw in five a zero or nonzero constant."""
    kind = draw(st.sampled_from(("poly",) * 8 + ("zero", "const")))
    if kind == "zero":
        return ring.zero()
    if kind == "const":
        return ring.const(draw(coefficients))
    return draw(polys(ring))


@st.composite
def gcd_cases(draw):
    """(a*c, b*c, c): c is a planted factor, the constant 1 in some draws."""
    ring = draw(st.sampled_from(RINGS))
    a, b = draw(operands(ring)), draw(operands(ring))
    c = draw(st.one_of(st.just(ring.one()), polys(ring, max_degree=2, max_terms=3)))
    assume(not c.is_zero())
    return a * c, b * c, c


def _prs_only_gcd(a, b):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(euclid, "_coprime_mod_p", lambda a, b, v: False)
        m.setattr(euclid, "_heu_gcd", lambda a, b: None)
        return gcd(a, b)


@SETTINGS
@given(gcd_cases())
def test_gcd_matches_prs_route(case):
    a, b, c = case
    g = gcd(a, b)
    assert g == _prs_only_gcd(a, b)
    assert list(g.terms) == sorted(g.terms, reverse=True)
    if a.is_zero() and b.is_zero():
        assert g.is_zero()
        return
    assert divides(g, a) and divides(g, b)
    assert divides(c, g)


@SETTINGS
@given(gcd_cases())
def test_gcd_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    a, b, _ = case
    ring = a.ring
    gens = sympy.symbols(ring.names)
    names = dict(zip(ring.names, gens))

    def to_sympy(p):
        return sympy.Poly(sympy.sympify(str(p).replace("^", "**"), locals=names), *gens, domain="QQ")

    g = gcd(a, b)
    expected = sympy.gcd(to_sympy(a), to_sympy(b))
    if g.is_zero():
        assert expected.is_zero
    else:
        assert to_sympy(g).monic() == expected.monic()


@st.composite
def resultant_cases(draw, parameters=True):
    """(a, b, v) with positive degree in v on both sides, sometimes with a
    planted common factor of positive v-degree; v is a ring parameter in some
    draws unless parameters is False."""
    ring = draw(st.sampled_from(RINGS))
    v = draw(st.sampled_from(ring.names if parameters else ring.variables))
    x = ring.var(v)
    a, b = (draw(polys(ring, max_degree=2)) + ring.const(draw(coefficients)) * x ** draw(st.integers(1, 2)) for _ in range(2))
    if draw(st.booleans()):
        c = draw(polys(ring, max_degree=2, max_terms=2)) + x
        a, b = a * c, b * c
    assume(a.degree_in(v) > 0 and b.degree_in(v) > 0)
    return a, b, v


@SETTINGS
@given(resultant_cases())
def test_resultant_matches_sylvester_oracle(case):
    a, b, v = case
    res = resultant(a, b, v)
    assert res == resultant_sylvester(a, b, v)
    assert res.degree_in(v) <= 0
    assert res.is_zero() == (gcd(a, b).degree_in(v) > 0)


@SETTINGS
@given(st.sampled_from(RINGS).flatmap(lambda r: st.tuples(polys(r), polys(r))))
def test_exact_div_inverts_multiplication(pair):
    a, b = pair
    assume(not b.is_zero())
    assert exact_div(a * b, b) == a


@SETTINGS
@given(resultant_cases(parameters=False))
def test_squarefree_in_keeps_each_v_factor_once(case):
    # s is squarefree in v, divides p and has no v-free content, and each
    # factor of positive v-degree that squarefree_in removed from p is still
    # in s: peeling gcds with s off the removed part leaves it v-free
    a, b, v = case
    p = a * a * b
    s = squarefree_in(p, v)
    assert squarefree_check(s, v)
    assert divides(s, p)
    assert content_in(s, v).is_constant()
    removed = exact_div(p, s)
    while removed.degree_in(v) > 0:
        g = gcd(removed, s)
        assert g.degree_in(v) > 0
        removed = exact_div(removed, g)
