import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from aat.rings import DomainError, StructuralError, VarRing, rename

from conftest import random_poly
from exact_oracles import is_associate


def test_ring_declaration_validation():
    with pytest.raises(StructuralError):
        VarRing(())
    with pytest.raises(StructuralError):
        VarRing(("x", "x"))
    with pytest.raises(StructuralError):
        VarRing(("x",), ("x",))


def test_basic_identities(ring3):
    x1, x2 = ring3.var("x1"), ring3.var("x2")
    assert (x1 + 1) * (x1 - 1) == x1**2 - 1
    p = 3 * x1 * x2 - x2**2
    assert p + ring3.zero() == p
    assert (x1 + x2) ** 2 == x1**2 + 2 * x1 * x2 + x2**2


def test_canonical_text_matches_documented_form(pring):
    theta, x1 = pring.var("theta"), pring.var("x1")
    g2, g3 = pring.var("g2"), pring.var("g3")
    v = theta**2 - 4 * x1**3 + g2 * x1 + g3
    assert str(v) == "theta^2 - 4*x1^3 + g2*x1 + g3"
    assert str(pring.zero()) == "0"
    assert str(pring.const(Fraction(-7, 2))) == "-7/2"
    assert str(x1.scale(Fraction(7, 2)) - theta) == "-theta + 7/2*x1"


def test_ring_axioms_on_random_triples(ring3):
    rng = random.Random(101)
    for _ in range(60):
        a = random_poly(rng, ring3)
        b = random_poly(rng, ring3)
        c = random_poly(rng, ring3)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_pow_and_errors(ring3):
    x1 = ring3.var("x1")
    assert x1**0 == ring3.one()
    with pytest.raises(DomainError):
        x1 ** (-1)
    other = VarRing(("y",))
    with pytest.raises(StructuralError):
        x1 + other.var("y")


def test_differentiate_examples(pring):
    theta, x1 = pring.var("theta"), pring.var("x1")
    g2, g3 = pring.var("g2"), pring.var("g3")
    assert (x1**3).diff("x1") == 3 * x1**2
    assert (theta**2).diff("x1") == pring.zero()
    v = theta**2 - 4 * x1**3 + g2 * x1 + g3
    assert v.diff("theta") == 2 * theta
    with pytest.raises(StructuralError):
        v.diff("g2")  # parameters are constants
    with pytest.raises(StructuralError):
        v.diff("nope")


def test_differentiate_is_linear_and_leibniz(ring3):
    rng = random.Random(7)
    for _ in range(40):
        a = random_poly(rng, ring3)
        b = random_poly(rng, ring3)
        assert (a + b).diff("x1") == a.diff("x1") + b.diff("x1")
        assert (a * b).diff("x2") == a.diff("x2") * b + a * b.diff("x2")


def test_degree_drop_under_differentiation(ring3):
    rng = random.Random(8)
    for _ in range(40):
        p = random_poly(rng, ring3)
        d = p.degree_in("x1")
        if d <= 0:
            assert p.diff("x1").is_zero()
        else:
            assert p.diff("x1").degree_in("x1") == d - 1


def test_eval_numeric_binds_parameters(pring):
    theta, x1 = pring.var("theta"), pring.var("x1")
    g2, g3 = pring.var("g2"), pring.var("g3")
    v = theta**2 - 4 * x1**3 + g2 * x1 + g3
    val = v.eval_numeric({"theta": 0.0, "x1": 1.0, "g2": 4.0, "g3": 0.0})
    assert abs(val) == 0.0  # e-value root of the lemniscatic cubic
    with pytest.raises(StructuralError):
        v.eval_numeric({"theta": 1.0, "x1": 1.0})  # parameters unbound in numeric mode


def test_numeric_matches_exact_then_eval(ring3):
    rng = random.Random(12)
    for _ in range(30):
        p = random_poly(rng, ring3)
        b1 = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        b2 = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        exact = p.subs_exact({"x1": b1, "x2": b2})
        sym = exact.eval_numeric({"x3": 0.7}) if not exact.is_zero() else 0.0
        direct = p.eval_numeric({"x1": complex(b1), "x2": complex(b2), "x3": 0.7})
        assert abs(sym - direct) <= 1e-12 * (1 + abs(direct))


def test_normalized_and_associate(ring3):
    x1, x2 = ring3.var("x1"), ring3.var("x2")
    p = (x1 - x2).scale(Fraction(-6, 4))
    assert p.normalized() == x1 - x2
    assert is_associate(p, x1 - x2)
    assert not is_associate(p, x1 + x2)


def test_transport_between_rings():
    big = VarRing(("a", "b", "c"), ("t",))
    small = VarRing(("b", "a"), ("t",))
    p = big.var("a") * big.var("b") + big.var("t")
    q = rename(p, {}, small)
    assert str(q) == "b*a + t"
    with pytest.raises(StructuralError):
        rename(big.var("c"), {}, small)


def test_rename_refuses_to_merge_names():
    big = VarRing(("a", "b"), ("t",))
    small = VarRing(("b", "a"), ("t",))
    p = big.var("a") * big.var("b") ** 2
    with pytest.raises(StructuralError):
        rename(p, {"b": "a"}, small)
    assert str(rename(big.var("b"), {"b": "a"}, small)) == "a"


def test_polynomials_pickle():
    ring = VarRing(("x", "y"), ("g2",))
    x, y = ring.var("x"), ring.var("y")
    p = x**3 * y - Fraction(2, 3) * ring.var("g2") + 5
    q = pickle.loads(pickle.dumps(p))
    assert q == p and q.ring == ring and list(q.terms.items()) == list(p.terms.items())
    assert q * x == p * x


def test_numeric_evaluation_ignores_term_order():
    # one polynomial, built with its terms in two orders, sums its monomials
    # in one order: same digits, bit for bit
    ring = VarRing(("z", "x"))
    terms = {(2, 0): 1, (0, 3): -4, (0, 1): Fraction(7, 3)}
    p, q = ring.poly(terms), ring.poly(dict(reversed(list(terms.items()))))
    assert p == q and list(p.terms) != list(q.terms)
    rng = np.random.default_rng(5)
    values = {name: rng.normal(size=200) + 1j * rng.normal(size=200) for name in ring.names}
    (pt, pb), (qt, qb) = p.eval_terms(values), q.eval_terms(values)
    assert pt.tobytes() == qt.tobytes() and pb.tobytes() == qb.tobytes()
