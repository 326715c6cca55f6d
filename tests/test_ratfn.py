import pytest

from aat.ratfn import RatFn
from aat.rings import DomainError, PoleError, VarRing


@pytest.fixture
def ring():
    return VarRing(("x1", "y1"))


def test_normalization(ring):
    x1, y1 = ring.var("x1"), ring.var("y1")
    r = RatFn((x1**2 - 1) * y1, (x1 - 1).scale(2))
    # common factor cancelled, then scaled so the denominator is monic
    assert r.den == ring.one()
    assert str(r) == "1/2*x1*y1 + 1/2*y1"
    s = RatFn(y1, (x1 + 1).scale(3))
    assert str(s.den) == "x1 + 1"  # monic denominator
    assert str(s) == "1/3*y1/(x1 + 1)"


def parts(r):
    """(numerator, denominator): equal for equal rational functions, since
    both are normalized."""
    return r.num, r.den


def test_arithmetic(ring):
    x1, y1 = ring.var("x1"), ring.var("y1")
    a = RatFn(ring.one(), x1)
    b = RatFn(ring.one(), y1)
    assert parts(a + b) == (x1 + y1, x1 * y1)
    assert parts(a * b) == (ring.one(), x1 * y1)
    assert parts(a / b) == (y1, x1)
    assert parts(a - a) == (ring.zero(), ring.one())
    with pytest.raises(DomainError):
        a / RatFn(ring.zero())
    with pytest.raises(DomainError):
        RatFn(x1, ring.zero())


def test_diff_quotient_rule(ring):
    x1, y1 = ring.var("x1"), ring.var("y1")
    r = RatFn(x1, y1)
    assert parts(r.diff("x1")) == (ring.one(), y1)
    assert parts(r.diff("y1")) == (-x1, y1**2)


def test_eval_and_pole(ring):
    x1 = ring.var("x1")
    r = RatFn(x1 - 1, x1 + 1)
    assert abs(r.eval_numeric({"x1": 3.0}) - 0.5) < 1e-15
    with pytest.raises(PoleError):
        r.eval_numeric({"x1": -1.0})
