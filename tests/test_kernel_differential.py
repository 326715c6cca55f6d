"""Differential tests of the exact kernel, with inputs drawn by hypothesis.

`gcd` is checked against the PRS-only route of the same module and against
sympy up to associates; the packed-monomial integer quotient against the
generic rational division; `subs_exact` against a term-by-term sum;
`resultant` against the Sylvester-determinant oracle (not against sympy,
which negates some resultants: 1.14 gives the wrong sign for
2/3*x1^2*x2 + 4 and -4*x2^3 - 2 in x2); and every operation on packed
monomials against the term maps of `exact_oracles`, keyed by exponent
tuples, in value and in term order, with no integral Fraction stored.
Inputs have rational or mixed integer and rational coefficients, ring
parameters, planted common factors, and zero or constant operands.  The
runs are derandomized and capped, so the suite is repeatable and cheap.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings, strategies as st  # noqa: E402

from aat import euclid  # noqa: E402
from aat.euclid import (  # noqa: E402
    content_in,
    exact_div,
    gcd,
    resultant,
    squarefree_check,
    squarefree_in,
)
from aat.rings import DomainError, VarRing, rename  # noqa: E402

from exact_oracles import (  # noqa: E402
    divides,
    ref_add,
    ref_coeffs_in,
    ref_diff,
    ref_exact_div,
    ref_mul,
    ref_rename,
    resultant_sylvester,
    subs_term_by_term,
    terms_of,
)

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
def polys(draw, ring, max_degree=3, max_terms=4, coefficients=coefficients):
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


def _generic_div(a, b):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(euclid, "_exact_div_int", lambda a, b: None)
        return exact_div(a, b)


def _outcome(div, a, b):
    """The quotient's terms in order, or DomainError."""
    try:
        return list(div(a, b).terms.items())
    except DomainError:
        return DomainError


def int_polys(ring):
    return polys(ring, coefficients=st.integers(-6, 6).filter(bool))


@st.composite
def int_division_cases(draw):
    """(kind, a, b) with integer coefficients: an exact quotient, a division
    that is inexact over Q, or an exact one whose quotient is not integral."""
    ring = draw(st.sampled_from(RINGS))
    q, b = draw(int_polys(ring)), draw(int_polys(ring))
    kind = draw(st.sampled_from(("exact", "inexact", "non-integral")))
    if kind == "inexact":
        assume(not b.is_constant())
        return kind, q * b + 1, b
    if kind == "non-integral":
        d = draw(st.sampled_from((2, 3)))
        assume(any(c.numerator % d for _, c in q.terms.items()))
        return kind, q * b, b.scale(d)
    return kind, q * b, b


@SETTINGS
@given(int_division_cases())
def test_packed_quotient_matches_generic_division(case):
    kind, a, b = case
    fast = _outcome(exact_div, a, b)
    assert fast == _outcome(_generic_div, a, b)
    assert (fast is DomainError) == (kind == "inexact")
    packed = euclid._exact_div_int(a, b) if kind != "inexact" else None
    assert (packed is None) == (kind != "exact")
    if packed is not None:
        assert list(packed.terms) == sorted(packed.terms, reverse=True)


def test_packed_quotient_guards_and_limit():
    r = VarRing(("x", "y"))
    x, y = r.var("x"), r.var("y")
    # the remainder's y-degree passes the guard bit before the division ends
    with pytest.raises(DomainError):
        euclid._exact_div_int(x**12000, x - y**3)
    # an exponent at the packing limit takes the generic route
    big = x**euclid._LIMIT * (x + y)
    assert euclid._exact_div_int(big, x + y) is None
    assert exact_div(big, x + y) == x**euclid._LIMIT


def test_gcd_past_the_packing_limit_takes_the_fallback(monkeypatch):
    r = VarRing(("x", "y"))
    x, y = r.var("x"), r.var("y")
    routes = []
    real = euclid._prs_gcd

    def spy(a, b, v):
        routes.append(v)
        return real(a, b, v)

    monkeypatch.setattr(euclid, "_prs_gcd", spy)
    assert euclid._heu_gcd(x**20000 * (x + y), x + y) is None
    assert gcd(x**20000 * (x + y), x**3 * (x + y) * (y + 1)) == x**3 * (x + y)
    assert routes == ["x"]


def _trial_divisors(monkeypatch):
    divisors = []
    real = euclid._packed_divides

    def spy(b, a):
        divisors.append(b)
        return real(b, a)

    monkeypatch.setattr(euclid, "_packed_divides", spy)
    return divisors


def test_constant_lift_makes_no_trial_division(monkeypatch):
    r = VarRing(("x", "y"))
    x, y = r.var("x"), r.var("y")
    divisors = _trial_divisors(monkeypatch)
    assert gcd(x + 1, y + 2) == r.one()
    assert gcd((x + 1) * (y + 3), 2 * (y + 2)) == r.one()
    assert divisors == []


@SETTINGS
@given(gcd_cases())
def test_gcd_trial_divides_only_by_nonconstant_lifts(case):
    a, b, _ = case
    with pytest.MonkeyPatch.context() as m:
        divisors = _trial_divisors(m)
        gcd(a, b)
    assert all(any(divisor) for divisor in divisors)


@st.composite
def substitutions(draw):
    """(p, bindings) where terms cancel and reappear: p lists the terms of a
    polynomial A, then those of -A with the first name's power moved to the
    second, then some other terms B, then A's with that power moved to the
    third.  The second and third names are bound to the first, so the middle
    block cancels A's images and the last brings them back after B's.  Any
    further name gets a polynomial or a rational."""
    ring = draw(st.sampled_from(RINGS))
    unit = st.sampled_from((1, -1))
    first = ring.var(ring.names[0])
    a = draw(polys(ring, max_degree=3, max_terms=4, coefficients=unit)) * first
    b = draw(polys(ring, max_degree=3, max_terms=4, coefficients=unit))

    def moved(to, sign):
        return [(tuple(e[0] + x if i == to else 0 if i == 0 else x for i, x in enumerate(e)), sign * c)
                for e, c in a.terms.items()]

    terms: dict = {}
    for e, c in [*a.terms.items(), *moved(1, -1), *b.terms.items(), *moved(2, 1)]:
        terms[e] = terms.get(e, 0) + c
    bindings = {ring.names[1]: first, ring.names[2]: first}
    for name in ring.names[3:]:
        if draw(st.booleans()):
            bindings[name] = draw(st.one_of(st.just(0), coefficients, polys(ring, max_degree=2, max_terms=3)))
    return ring.poly(terms), bindings


@SETTINGS
@given(substitutions())
def test_subs_exact_matches_term_by_term_sum(case):
    p, bindings = case
    out = p.subs_exact(bindings)
    ref = subs_term_by_term(p, bindings)
    assert list(out.terms.items()) == list(ref.terms.items())


def test_subs_exact_cancels_and_reinserts_in_order():
    r = VarRing(("x", "y", "z"))
    x, y, z = r.var("x"), r.var("y"), r.var("z")
    # with y = z = x: x^2 enters, x^3 enters, x^2 cancels, x^2 comes back last
    p = x**2 + x**3 - x * y + 5 * x * z
    out = p.subs_exact({"y": x, "z": x})
    assert list(out.terms.items()) == [((3, 0, 0), 1), ((2, 0, 0), 5)]
    assert list(out.terms.items()) == list(subs_term_by_term(p, {"y": x, "z": x}).terms.items())


@st.composite
def differences(draw):
    """(a, b) with integer or rational coefficients; in some draws b shares
    monomials with a, so that terms of a - b cancel or change."""
    ring = draw(st.sampled_from(RINGS))
    terms = draw(st.sampled_from((int_polys(ring), polys(ring))))
    a = draw(st.one_of(terms, operands(ring)))
    b = draw(st.one_of(terms, operands(ring)))
    if draw(st.booleans()):
        b = b + a.scale(draw(st.sampled_from((1, 1, 2, Fraction(1, 2)))))
    return a, b


@SETTINGS
@given(differences())
def test_sub_matches_adding_the_negation(case):
    a, b = case
    assert list((a - b).terms.items()) == list((a + (-b)).terms.items())


mixed = st.one_of(st.integers(-6, 6).filter(bool), coefficients)


def stored(p):
    """p's terms in order, after checking that no integral Fraction is stored."""
    for _, c in p.terms.items():
        assert type(c) is int or c.denominator != 1, (p, c)
    return list(p.terms.items())


@st.composite
def mixed_pairs(draw):
    """(a, b) with mixed integer and rational coefficients; in some draws b
    shares monomials with a, so that sums and products cancel terms."""
    ring = draw(st.sampled_from(RINGS))
    a = draw(st.one_of(polys(ring, coefficients=mixed), operands(ring)))
    b = draw(polys(ring, coefficients=mixed))
    if draw(st.booleans()):
        b = b - a.scale(draw(st.sampled_from((1, -1, 2, Fraction(1, 2)))))
    return a, b


@SETTINGS
@given(mixed_pairs())
def test_arithmetic_matches_term_maps(pair):
    a, b = pair
    ta, tb = terms_of(a), terms_of(b)
    assert stored(a * b) == list(ref_mul(ta, tb).items())
    assert stored(a + b) == list(ref_add(ta, tb).items())
    assert stored(a - b) == list(ref_add(ta, tb, -1).items())


def test_product_keeps_the_first_slot_of_a_returning_monomial():
    r = VarRing(("x", "y"))
    x, y = r.var("x"), r.var("y")
    a = x + y + 1
    b = y - x + x * y
    # x*y enters first, cancels at y*(-x) and comes back at 1*(x*y)
    assert list((a * b).terms) == [(1, 1), (2, 0), (2, 1), (0, 2), (1, 2), (0, 1), (1, 0)]
    assert list((a * b).terms.items()) == list(ref_mul(terms_of(a), terms_of(b)).items())


@SETTINGS
@given(st.sampled_from(RINGS).flatmap(lambda r: polys(r, max_degree=4, max_terms=6, coefficients=mixed)))
def test_diff_coeffs_in_and_rename_match_term_maps(p):
    ring = p.ring
    tp = terms_of(p)
    for i, name in enumerate(ring.variables):
        assert stored(p.diff(name)) == list(ref_diff(tp, i).items())
    for i, name in enumerate(ring.names):
        got = {d: stored(c) for d, c in p.coeffs_in(name).items()}
        assert list(got.items()) == [(d, list(c.items())) for d, c in ref_coeffs_in(tp, i).items()]
    mapping = {ring.names[0]: "r0"}
    target = VarRing(("extra",) + tuple(reversed(("r0",) + ring.variables[1:])), ring.parameters)
    assert stored(rename(p, mapping, target)) == list(ref_rename(tp, ring.names, mapping, target.names).items())


@SETTINGS
@given(st.sampled_from(RINGS).flatmap(lambda r: st.tuples(polys(r, coefficients=mixed), polys(r, coefficients=mixed))))
def test_exact_div_matches_term_map_division(pair):
    q, b = pair
    a = q * b
    assert stored(exact_div(a, b)) == list(ref_exact_div(terms_of(a), terms_of(b)).items())
    if not b.is_constant():
        with pytest.raises(DomainError):
            exact_div(a + 1, b)
        assert ref_exact_div(terms_of(a + 1), terms_of(b)) is None


@st.composite
def mixed_substitutions(draw):
    """(p, value): a mixed polynomial and a rational or polynomial value for its second name."""
    ring = draw(st.sampled_from(RINGS))
    value = draw(st.one_of(mixed, polys(ring, max_degree=2, coefficients=mixed)))
    return draw(polys(ring, coefficients=mixed)), value


@SETTINGS
@given(mixed_substitutions())
def test_subs_exact_with_mixed_coefficients_matches_term_by_term_sum(case):
    p, value = case
    bindings = {p.ring.names[1]: value}
    assert stored(p.subs_exact(bindings)) == list(subs_term_by_term(p, bindings).terms.items())


@SETTINGS
@given(st.sampled_from(RINGS).flatmap(lambda r: st.tuples(*(polys(r, coefficients=mixed) for _ in range(3)))))
def test_gcd_of_mixed_inputs_is_stored_in_canonical_order(case):
    a, b, c = (p.scale(Fraction(k, 3)) for p, k in zip(case, (1, 2, 4)))
    a, b = a * c, b * c
    g = gcd(a, b)
    terms = stored(g)
    assert [e for e, _ in terms] == sorted(g.terms, reverse=True)
    assert all(type(k) is int for _, k in terms)
    for p in (a, b):
        cofactor = ref_exact_div(terms_of(p), dict(terms))
        assert cofactor is not None and ref_mul(dict(terms), cofactor) == terms_of(p)


def test_an_exponent_reaching_the_guard_raises():
    r = VarRing(("x", "y"), ("g2",))
    x, y, g2 = r.var("x"), r.var("y"), r.var("g2")
    top = 2**15 - 1  # the largest exponent a field stores
    assert (y**top).degree_in("y") == top
    assert (y**top * x).terms.items() == [((1, top, 0), 1)]
    # a carry out of y's field would read as x; it raises instead
    for build in (
        lambda: y**top * y,
        lambda: y ** (top + 1),
        lambda: (g2 ** 20000) * (g2 ** 20000 + x),
        lambda: (x**top * y).subs_exact({"y": x}),
        lambda: r.poly({(0, top + 1, 0): 1}),
    ):
        with pytest.raises(DomainError):
            build()
