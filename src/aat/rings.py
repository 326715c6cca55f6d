"""Exact sparse multivariate polynomials over the rationals.

A ring declares an ordered alphabet of *variables* (the symbols that are
differentiated and eliminated) and *parameters* (symbols treated as
transcendental constants, e.g. ``g2``, ``g3``).  Internally a polynomial is a
map from exponent tuples (variables first, parameters last) to ``Fraction``
coefficients; no zero coefficient is ever stored.

The canonical term order is lexicographic in the declared name order,
descending.  This is the order used for leading terms, for the canonical
textual form (see ``MPoly.__str__``), and for all unit normalizations, so
every derived polynomial serializes byte-stably.

``MPoly.terms`` always keys by exponent tuple; the gcd and division routines
of ``euclid`` pack the tuples into ints for the length of one call and
unpack their results.  Term order still matters to numeric evaluation (see
``MPoly``), so ``subs_exact`` accumulates into one dict in exactly the order
a running sum of ``MPoly`` additions would leave, and ``normalized`` returns
a polynomial that is already canonical unchanged.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, lcm
from operator import add
from typing import Iterable, Mapping, Union

import numpy as np

Coeff = Union[int, Fraction]


class AlgebraError(Exception):
    """Base class for exact-kernel errors."""


class StructuralError(AlgebraError):
    """Mismatched rings, unknown names, malformed inputs."""


class DomainError(AlgebraError):
    """Operation applied outside its mathematical domain."""


class PoleError(AlgebraError):
    """Numeric evaluation hit a vanishing denominator."""


class VarRing:
    """Ordered alphabet of variable and parameter names.

    The order is fixed for the ring's lifetime; it determines the canonical
    term order of every polynomial owned by the ring.
    """

    __slots__ = ("variables", "parameters", "names", "_index")

    def __init__(self, variables: Iterable[str], parameters: Iterable[str] = ()):
        self.variables = tuple(variables)
        self.parameters = tuple(parameters)
        if not self.variables:
            raise StructuralError("a ring needs at least one variable")
        names = self.variables + self.parameters
        if len(set(names)) != len(names):
            raise StructuralError(f"duplicate names in ring declaration: {names}")
        for name in names:
            if not name or not name[0].isalpha():
                raise StructuralError(f"invalid name {name!r}")
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}

    @property
    def arity(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise StructuralError(f"unknown name {name!r} in ring {self.names}") from None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VarRing)
            and self.variables == other.variables
            and self.parameters == other.parameters
        )

    def __hash__(self) -> int:
        return hash((self.variables, self.parameters))

    def __repr__(self) -> str:
        if self.parameters:
            return f"VarRing({list(self.variables)}, params={list(self.parameters)})"
        return f"VarRing({list(self.variables)})"

    # -- constructors -----------------------------------------------------

    def zero(self) -> "MPoly":
        return MPoly(self, {})

    def one(self) -> "MPoly":
        return self.const(1)

    def const(self, c: Coeff) -> "MPoly":
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return MPoly(self, {(0,) * len(self.names): c})

    def var(self, name: str) -> "MPoly":
        exps = [0] * len(self.names)
        exps[self.index(name)] = 1
        return MPoly(self, {tuple(exps): Fraction(1)})

    def poly(self, terms: Mapping[tuple, Coeff]) -> "MPoly":
        """Build a polynomial from {exponent tuple: coefficient}."""
        width = len(self.names)
        out = {}
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != width or any(e < 0 for e in exps):
                raise StructuralError(f"bad exponent tuple {exps} for ring of width {width}")
            c = Fraction(c)
            if c:
                out[exps] = out.get(exps, Fraction(0)) + c
        return MPoly(self, {e: c for e, c in out.items() if c})


def _check_same_ring(a: "MPoly", b: "MPoly") -> None:
    if a.ring != b.ring:
        raise StructuralError(f"ring mismatch: {a.ring!r} vs {b.ring!r}")


class MPoly:
    """Immutable sparse polynomial with exact rational coefficients.

    Equality and the canonical text ignore the order of ``terms``, but numeric
    evaluation (``eval_terms``) sums in dict insertion order, so its last
    digits depend on it.  Kernel routes that can compute one result in
    several ways (the gcd routes in ``euclid``) must therefore emit canonical
    (descending lex) order, or reports would change with the route taken.
    """

    __slots__ = ("ring", "terms", "_allint", "_numeric")

    def __init__(self, ring: VarRing, terms: dict):
        self.ring = ring
        self.terms = terms  # {exponent tuple: nonzero Fraction}; treated as frozen
        self._allint = None
        self._numeric = None

    def _is_int(self) -> bool:
        # integer-coefficient polynomials take a fast arithmetic path
        if self._allint is None:
            self._allint = all(c.denominator == 1 for c in self.terms.values())
        return self._allint

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise DomainError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def degree_in(self, name: str) -> int:
        """Degree in one name; -1 for the zero polynomial."""
        i = self.ring.index(name)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def names_present(self) -> tuple:
        present = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    present.add(i)
        return tuple(self.ring.names[i] for i in sorted(present))

    def variables_present(self) -> tuple:
        arity = self.ring.arity
        return tuple(n for n in self.names_present() if self.ring.index(n) < arity)

    def leading(self) -> tuple:
        """(exponent tuple, coefficient) of the canonical leading term."""
        if not self.terms:
            raise DomainError("zero polynomial has no leading term")
        exps = max(self.terms)
        return exps, self.terms[exps]

    def sorted_terms(self):
        return [(e, self.terms[e]) for e in sorted(self.terms, reverse=True)]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        _check_same_ring(self, other)
        if self._is_int() and other._is_int():
            acc = {e: c.numerator for e, c in self.terms.items()}
            for exps, c in other.terms.items():
                s = acc.get(exps, 0) + c.numerator
                if s:
                    acc[exps] = s
                else:
                    acc.pop(exps, None)
            return MPoly(self.ring, {e: Fraction(v) for e, v in acc.items()})
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, Fraction(0)) + c
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return MPoly(self.ring, out)

    def __neg__(self):
        return MPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        # term by term, without negating other first; the terms come in the
        # order of self + (-other)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        _check_same_ring(self, other)
        if self._is_int() and other._is_int():
            acc = {e: c.numerator for e, c in self.terms.items()}
            for exps, c in other.terms.items():
                s = acc.get(exps, 0) - c.numerator
                if s:
                    acc[exps] = s
                else:
                    acc.pop(exps)
            return MPoly(self.ring, {e: Fraction(v) for e, v in acc.items()})
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out[exps] - c if exps in out else -c
            if s:
                out[exps] = s
            else:
                out.pop(exps)
        return MPoly(self.ring, out)

    def __mul__(self, other):
        other = self._coerce(other)
        _check_same_ring(self, other)
        if not self.terms or not other.terms:
            return self.ring.zero()
        if self._is_int() and other._is_int():
            acc: dict = {}
            right = [(e, c.numerator) for e, c in other.terms.items()]
            for e1, c1 in self.terms.items():
                n1 = c1.numerator
                for e2, n2 in right:
                    exps = tuple(map(add, e1, e2))
                    acc[exps] = acc.get(exps, 0) + n1 * n2
            return MPoly(self.ring, {e: Fraction(v) for e, v in acc.items() if v})
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(map(add, e1, e2))
                s = out.get(exps, Fraction(0)) + c1 * c2
                if s:
                    out[exps] = s
                else:
                    out.pop(exps, None)
        return MPoly(self.ring, out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise DomainError(f"polynomial power must be a nonnegative integer, got {n!r}")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def _coerce(self, other):
        if isinstance(other, MPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented

    def scale(self, c: Coeff) -> "MPoly":
        c = Fraction(c)
        if c == 0:
            return self.ring.zero()
        return MPoly(self.ring, {e: k * c for e, k in self.terms.items()})

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return isinstance(other, MPoly) and self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    # -- calculus and substitution ------------------------------------------

    def diff(self, name: str) -> "MPoly":
        """Formal partial derivative with respect to a ring variable."""
        i = self.ring.index(name)
        if i >= self.ring.arity:
            raise StructuralError(f"{name!r} is a parameter, not a variable")
        out = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e:
                nexps = exps[:i] + (e - 1,) + exps[i + 1 :]
                s = out.get(nexps, Fraction(0)) + c * e
                if s:
                    out[nexps] = s
                else:
                    out.pop(nexps, None)
        return MPoly(self.ring, out)

    def coeffs_in(self, name: str) -> dict:
        """View as univariate in `name`: {degree: coefficient MPoly}."""
        i = self.ring.index(name)
        out: dict = {}
        for exps, c in self.terms.items():
            d = exps[i]
            nexps = exps[:i] + (0,) + exps[i + 1 :]
            bucket = out.setdefault(d, {})
            bucket[nexps] = bucket.get(nexps, Fraction(0)) + c
        return {d: MPoly(self.ring, {e: c for e, c in bucket.items() if c}) for d, bucket in out.items()}

    def coeff_of(self, name: str, degree: int) -> "MPoly":
        i = self.ring.index(name)
        bucket = {}
        for exps, c in self.terms.items():
            if exps[i] == degree:
                nexps = exps[:i] + (0,) + exps[i + 1 :]
                bucket[nexps] = bucket.get(nexps, Fraction(0)) + c
        return MPoly(self.ring, {e: c for e, c in bucket.items() if c})

    def leading_coeff_in(self, name: str) -> "MPoly":
        d = self.degree_in(name)
        if d < 0:
            return self.ring.zero()
        return self.coeff_of(name, d)

    def subs_exact(self, bindings: Mapping[str, "MPoly | Coeff"]) -> "MPoly":
        """Substitute polynomials or rationals for names; exact result.

        Names not mentioned stay symbolic.  Values given as rationals are
        promoted to constant polynomials of this ring.
        """
        ring = self.ring
        vals = {}
        for name, v in bindings.items():
            i = ring.index(name)
            if isinstance(v, MPoly):
                _check_same_ring(self, v)
            else:
                v = ring.const(v)
            vals[i] = v
        # one accumulator, updated term by term as `out = out + term * factor`
        # would be: a new monomial is appended, a cancelled one is removed
        out: dict = {}
        pow_cache: dict = {}
        for exps, c in self.terms.items():
            rest = list(exps)
            factor = None
            for i, v in vals.items():
                e = exps[i]
                rest[i] = 0
                if e:
                    key = (i, e)
                    if key not in pow_cache:
                        pow_cache[key] = v**e
                    factor = pow_cache[key] if factor is None else factor * pow_cache[key]
            rest = tuple(rest)
            products = [(rest, c)] if factor is None else [
                (tuple(map(add, rest, e2)), c * c2) for e2, c2 in factor.terms.items()
            ]
            for t, tc in products:
                s = out.get(t, 0) + tc
                if s:
                    out[t] = s
                else:
                    out.pop(t, None)
        return MPoly(ring, out)

    def eval_numeric(self, values: Mapping[str, complex]) -> complex:
        """Evaluate in complex double precision; every present name must be bound."""
        total, _ = self.eval_terms(values)
        return total

    def eval_terms(self, values: Mapping[str, complex]) -> tuple:
        """(value, largest absolute monomial value) - the scale used by residual checks.

        `values` binds names to numbers for one point, or to equal-length
        complex arrays for many points at once (numbers then act as constants
        on every row); the results are then arrays too.  Either way the
        monomials are summed in term order.
        """
        ring = self.ring
        used, monomials = self._numeric_form()
        vals = [None] * len(ring.names)
        bigger = max
        for name, v in values.items():
            if isinstance(v, np.ndarray):
                bigger = np.fmax  # skips nan magnitudes, as max(biggest, nan) does
            else:
                v = complex(v)
            vals[ring.index(name)] = v
        missing = [ring.names[i] for i in used if vals[i] is None]
        if missing:
            raise StructuralError(f"unbound names in numeric evaluation: {sorted(missing)}")
        powers = {}
        total = 0 + 0j
        biggest = 0.0
        for c, factors in monomials:
            term = c
            for key in factors:
                power = powers.get(key)
                if power is None:
                    power = powers[key] = vals[key[0]] ** key[1]
                term = term * power
            total = total + term
            biggest = bigger(biggest, abs(term))
        return total, biggest

    def _numeric_form(self) -> tuple:
        """(indices of the names present, [(coefficient, ((index, exponent), ...))])."""
        if self._numeric is None:
            monomials = [
                (complex(c), tuple((i, e) for i, e in enumerate(exps) if e)) for exps, c in self.terms.items()
            ]
            used = sorted({i for _, factors in monomials for i, _ in factors})
            self._numeric = (used, monomials)
        return self._numeric

    # -- normal forms ---------------------------------------------------------

    def content_rational(self) -> Fraction:
        """Positive rational content: gcd of numerators over lcm of denominators."""
        if not self.terms:
            return Fraction(0)
        coeffs = self.terms.values()
        return Fraction(_int_gcd(*(c.numerator for c in coeffs)), lcm(*(c.denominator for c in coeffs)))

    def normalized(self) -> "MPoly":
        """Canonical associate: integer-primitive with positive leading
        coefficient; the polynomial itself when it is one already."""
        if not self.terms:
            return self
        content = self.content_rational()
        _, lead = self.leading()
        if content == 1 and lead > 0:
            return self
        scale = 1 / content
        if lead < 0:
            scale = -scale
        return self.scale(scale)

    # -- canonical text --------------------------------------------------------

    def _monomial_str(self, exps) -> str:
        ring = self.ring
        arity = ring.arity
        factors = []
        # parameters read as coefficients, so they print before the variables
        for i in range(arity, len(exps)):
            if exps[i]:
                n = ring.names[i]
                factors.append(n if exps[i] == 1 else f"{n}^{exps[i]}")
        for i in range(arity):
            if exps[i]:
                n = ring.names[i]
                factors.append(n if exps[i] == 1 else f"{n}^{exps[i]}")
        return "*".join(factors)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for pos, (exps, c) in enumerate(self.sorted_terms()):
            mono = self._monomial_str(exps)
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            if pos == 0:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"MPoly({self})"


def rename(p: MPoly, mapping: Mapping[str, str], ring: VarRing) -> MPoly:
    """Re-home a polynomial into another ring containing every name it uses,
    renaming the names in `mapping` on the way; StructuralError when a name
    is absent."""
    out = {}
    width = len(ring.names)
    for exps, c in p.terms.items():
        nexps = [0] * width
        for i, e in enumerate(exps):
            if e:
                name = p.ring.names[i]
                j = ring.index(mapping.get(name, name))
                nexps[j] = e
        out[tuple(nexps)] = c
    return MPoly(ring, out)
