"""Exact sparse multivariate polynomials over the rationals.

A ring declares an ordered alphabet of *variables* (the symbols that are
differentiated and eliminated) and *parameters* (symbols treated as
transcendental constants, e.g. ``g2``, ``g3``).  Every name of the ring owns
one 16-bit field of a packed monomial key, the first name in the most
significant field, so int order is the canonical descending lex order and a
monomial product is one integer addition (Monagan & Pearce, CASC 2007).  A
polynomial stores one dict from packed keys to coefficients: a Python int
when the coefficient is integral, a ``Fraction`` only otherwise, and never
zero.  Every operation keeps that form, so the integer coefficients that
most of the kernel handles never pay for ``Fraction`` arithmetic.

The top bit of each field is a guard: a stored exponent is below
``_EXP_LIMIT`` = 2^15, so the sum of two fields never carries into the next
one, and a product whose exponent would reach the guard raises
``DomainError`` instead of being stored.  ``MPoly(ring, {exponent tuple: c})``
and ``VarRing.poly`` pack their input, and ``MPoly.terms`` is a read-only
view of (exponent tuple, coefficient) items for callers outside the kernel.

The canonical term order is used for leading terms, for the canonical
textual form (see ``MPoly.__str__``), and for all unit normalizations, so
every derived polynomial serializes byte-stably.  Term order still matters to
numeric evaluation (see ``MPoly``): a product keeps each monomial in the slot
where it first appeared, ``subs_exact`` accumulates into one dict in exactly
the order a running sum of ``MPoly`` additions would leave, and
``normalized`` returns a polynomial that is already canonical unchanged.
"""

from __future__ import annotations

import struct
from collections.abc import Mapping
from fractions import Fraction
from functools import reduce
from math import gcd as _int_gcd, lcm
from operator import or_
from typing import Iterable, Union

import numpy as np

Coeff = Union[int, Fraction]

# Packed monomials: one field of _FIELD bits per ring name, its top bit a guard.
_FIELD = 16
_MASK = (1 << _FIELD) - 1
_EXP_LIMIT = 1 << (_FIELD - 1)  # the first exponent a ring cannot store


class AlgebraError(Exception):
    """Base class for exact-kernel errors."""


class StructuralError(AlgebraError):
    """Mismatched rings, unknown names, malformed inputs."""


class DomainError(AlgebraError):
    """Operation applied outside its mathematical domain."""


class PoleError(AlgebraError):
    """Numeric evaluation hit a vanishing denominator."""


def _coeff(c) -> Coeff:
    """A coefficient in stored form: an int when integral, else a Fraction."""
    if type(c) is not int:
        c = Fraction(c)
        if c.denominator == 1:
            return c.numerator
    return c


def _canon(acc: dict) -> dict:
    """acc without its zero values, its integral Fractions stored as ints."""
    return {k: c if type(c) is int or c.denominator != 1 else c.numerator for k, c in acc.items() if c}


class VarRing:
    """Ordered alphabet of variable and parameter names.

    The order is fixed for the ring's lifetime; it determines the canonical
    term order of every polynomial owned by the ring and the layout of its
    packed monomial keys.
    """

    __slots__ = ("variables", "parameters", "names", "_index", "_shifts", "_guards", "_struct", "_nbytes")

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
        width = len(names)
        self._shifts = tuple(_FIELD * (width - 1 - i) for i in range(width))
        self._guards = sum(_EXP_LIMIT << s for s in self._shifts)
        self._struct = struct.Struct(f">{width}H")  # big-endian fields of _FIELD bits
        self._nbytes = 2 * width

    @property
    def arity(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise StructuralError(f"unknown name {name!r} in ring {self.names}") from None

    def pack(self, exps) -> int:
        """The packed key of an exponent tuple; DomainError at an exponent
        of _EXP_LIMIT or more."""
        exps = tuple(exps)
        if len(exps) != len(self.names) or min(exps) < 0:
            raise StructuralError(f"bad exponent tuple {exps} for ring of width {len(self.names)}")
        if max(exps) >= _EXP_LIMIT:
            name = self.names[exps.index(max(exps))]
            raise DomainError(f"exponent {max(exps)} of {name} reaches the limit {_EXP_LIMIT}")
        return int.from_bytes(self._struct.pack(*exps), "big")

    def unpack(self, key: int) -> tuple:
        return self._struct.unpack(key.to_bytes(self._nbytes, "big"))

    def _fits(self, packed: dict) -> dict:
        """packed itself, or DomainError when a key has a guard bit set: an
        exponent sum reached _EXP_LIMIT (fields are below it, so no sum of
        two of them carries into the next field)."""
        over = reduce(or_, packed, 0) & self._guards
        if over:
            name = next(n for n, s in zip(self.names, self._shifts) if over >> s & _MASK)
            raise DomainError(f"an exponent of {name} reaches the limit {_EXP_LIMIT}")
        return packed

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VarRing)
            and self.variables == other.variables
            and self.parameters == other.parameters
        )

    def __hash__(self) -> int:
        return hash((self.variables, self.parameters))

    def __reduce__(self):
        return VarRing, (self.variables, self.parameters)  # the packing struct does not pickle

    def __repr__(self) -> str:
        if self.parameters:
            return f"VarRing({list(self.variables)}, params={list(self.parameters)})"
        return f"VarRing({list(self.variables)})"

    # -- constructors -----------------------------------------------------

    def zero(self) -> "MPoly":
        return _poly(self, {})

    def one(self) -> "MPoly":
        return _poly(self, {0: 1})

    def const(self, c: Coeff) -> "MPoly":
        c = _coeff(c)
        return _poly(self, {0: c} if c else {})

    def var(self, name: str) -> "MPoly":
        return _poly(self, {1 << self._shifts[self.index(name)]: 1})

    def poly(self, terms: Mapping[tuple, Coeff]) -> "MPoly":
        """Build a polynomial from {exponent tuple: coefficient}."""
        return MPoly(self, terms)


def _check_same_ring(a: "MPoly", b: "MPoly") -> None:
    if a.ring != b.ring:
        raise StructuralError(f"ring mismatch: {a.ring!r} vs {b.ring!r}")


class _Terms:
    """Read-only view of a polynomial's terms: their count, their exponent
    tuples and their (exponent tuple, coefficient) items, in the
    polynomial's term order."""

    __slots__ = ("_ring", "_packed")

    def __init__(self, ring: VarRing, packed: dict):
        self._ring = ring
        self._packed = packed

    def __len__(self) -> int:
        return len(self._packed)

    def __iter__(self):
        return map(self._ring.unpack, self._packed)

    def items(self):
        return list(zip(self, self._packed.values()))


class MPoly:
    """Immutable sparse polynomial with exact rational coefficients.

    Equality and the canonical text ignore the order of the terms, but
    numeric evaluation (``eval_terms``) sums in dict insertion order, so its
    last digits depend on it.  Kernel routes that can compute one result in
    several ways (the gcd routes in ``euclid``) must therefore emit canonical
    (descending lex) order, or reports would change with the route taken.
    """

    __slots__ = ("ring", "_packed", "_numeric")

    def __init__(self, ring: VarRing, terms: Mapping[tuple, Coeff]):
        """The polynomial of {exponent tuple: coefficient}; equal tuples add."""
        pack = ring.pack
        acc: dict = {}
        for exps, c in terms.items():
            k = pack(exps)
            acc[k] = acc.get(k, 0) + _coeff(c)
        self.ring = ring
        self._packed = _canon(acc)  # {packed key: int or non-integral Fraction}; frozen
        self._numeric = None

    @property
    def terms(self) -> _Terms:
        """The terms, read-only, in term order."""
        return _Terms(self.ring, self._packed)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._packed

    def is_constant(self) -> bool:
        return not any(self._packed)

    def constant_value(self) -> Coeff:
        if self.is_zero():
            return 0
        if not self.is_constant():
            raise DomainError("polynomial is not constant")
        return self._packed[0]

    def degree_in(self, name: str) -> int:
        """Degree in one name; -1 for the zero polynomial."""
        s = self.ring._shifts[self.ring.index(name)]
        if not self._packed:
            return -1
        return max(k >> s & _MASK for k in self._packed)

    def total_degree(self) -> int:
        if not self._packed:
            return -1
        return max(map(sum, map(self.ring.unpack, self._packed)))

    def names_present(self) -> tuple:
        used = reduce(or_, self._packed, 0)
        return tuple(n for n, s in zip(self.ring.names, self.ring._shifts) if used >> s & _MASK)

    def variables_present(self) -> tuple:
        arity = self.ring.arity
        return tuple(n for n in self.names_present() if self.ring.index(n) < arity)

    def leading(self) -> tuple:
        """(exponent tuple, coefficient) of the canonical leading term."""
        if not self._packed:
            raise DomainError("zero polynomial has no leading term")
        k = max(self._packed)
        return self.ring.unpack(k), self._packed[k]

    def sorted_terms(self):
        unpack = self.ring.unpack
        return [(unpack(k), self._packed[k]) for k in sorted(self._packed, reverse=True)]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        _check_same_ring(self, other)
        out = dict(self._packed)
        for k, c in other._packed.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s if type(s) is int or s.denominator != 1 else s.numerator
            else:
                del out[k]
        return _poly(self.ring, out)

    def __neg__(self):
        return _poly(self.ring, {k: -c for k, c in self._packed.items()})

    def __sub__(self, other):
        # term by term, without negating other first; the terms come in the
        # order of self + (-other)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        _check_same_ring(self, other)
        out = dict(self._packed)
        for k, c in other._packed.items():
            s = out.get(k, 0) - c
            if s:
                out[k] = s if type(s) is int or s.denominator != 1 else s.numerator
            else:
                del out[k]
        return _poly(self.ring, out)

    def __mul__(self, other):
        # a monomial that cancels and comes back keeps its first slot
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        _check_same_ring(self, other)
        acc: dict = {}
        get = acc.get
        right = list(other._packed.items())
        for k1, c1 in self._packed.items():
            for k2, c2 in right:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
        return _poly(self.ring, self.ring._fits(_canon(acc)))

    __radd__ = __add__
    __rmul__ = __mul__

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
        c = _coeff(c)
        if not c:
            return self.ring.zero()
        out = {}
        for k, v in self._packed.items():
            v *= c
            out[k] = v if type(v) is int or v.denominator != 1 else v.numerator
        return _poly(self.ring, out)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return isinstance(other, MPoly) and self.ring == other.ring and self._packed == other._packed

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self._packed.items()))))

    # -- calculus and substitution ------------------------------------------

    def diff(self, name: str) -> "MPoly":
        """Formal partial derivative with respect to a ring variable."""
        i = self.ring.index(name)
        if i >= self.ring.arity:
            raise StructuralError(f"{name!r} is a parameter, not a variable")
        s = self.ring._shifts[i]
        one = 1 << s
        out = {}
        for k, c in self._packed.items():
            e = k >> s & _MASK
            if e:
                c *= e
                out[k - one] = c if type(c) is int or c.denominator != 1 else c.numerator
        return _poly(self.ring, out)

    def coeffs_in(self, name: str) -> dict:
        """View as univariate in `name`: {degree: coefficient MPoly}."""
        s = self.ring._shifts[self.ring.index(name)]
        out: dict = {}
        for k, c in self._packed.items():
            d = k >> s & _MASK
            out.setdefault(d, {})[k - (d << s)] = c
        return {d: _poly(self.ring, bucket) for d, bucket in out.items()}

    def coeff_of(self, name: str, degree: int) -> "MPoly":
        s = self.ring._shifts[self.ring.index(name)]
        low = degree << s
        return _poly(self.ring, {k - low: c for k, c in self._packed.items() if k >> s & _MASK == degree})

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
            vals[ring._shifts[i]] = v
        # one accumulator, updated term by term as `out = out + term * factor`
        # would be: a new monomial is appended, a cancelled one is removed
        out: dict = {}
        pow_cache: dict = {}
        for k, c in self._packed.items():
            rest = k
            factor = None
            for s, v in vals.items():
                e = k >> s & _MASK
                if e:
                    rest -= e << s
                    key = (s, e)
                    if key not in pow_cache:
                        pow_cache[key] = v**e
                    factor = pow_cache[key] if factor is None else factor * pow_cache[key]
            products = [(rest, c)] if factor is None else [(rest + k2, c * c2) for k2, c2 in factor._packed.items()]
            for t, tc in products:
                s = out.get(t, 0) + tc
                if s:
                    out[t] = s if type(s) is int or s.denominator != 1 else s.numerator
                else:
                    out.pop(t, None)
        return _poly(ring, ring._fits(out))

    def eval_numeric(self, values: Mapping[str, complex]) -> complex:
        """Evaluate in complex double precision; every present name must be bound."""
        total, _ = self.eval_terms(values)
        return total

    def eval_terms(self, values: Mapping[str, complex]) -> tuple:
        """(value, largest absolute monomial value) - the scale used by residual checks.

        `values` binds names to numbers for one point, or to equal-length
        complex arrays for many points at once (numbers then act as constants
        on every row); the results are then arrays too.  Either way the
        monomials are summed in packed-key order, so one polynomial gives the
        same digits however its terms were built.
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
            unpack = self.ring.unpack
            monomials = [
                (complex(c), tuple((i, e) for i, e in enumerate(unpack(k)) if e))
                for k, c in sorted(self._packed.items())
            ]
            used = sorted({i for _, factors in monomials for i, _ in factors})
            self._numeric = (used, monomials)
        return self._numeric

    # -- normal forms ---------------------------------------------------------

    def normalized(self) -> "MPoly":
        """Canonical associate: integer-primitive with positive leading
        coefficient; the polynomial itself when it is one already."""
        if not self._packed:
            return self
        coeffs = self._packed.values()
        num = _int_gcd(*(c.numerator for c in coeffs))
        den = lcm(*(c.denominator for c in coeffs))
        if self._packed[max(self._packed)] < 0:
            num = -num
        elif num == 1 and den == 1:
            return self
        # c / (num / den), exactly: num divides every numerator
        return _poly(self.ring, {k: c.numerator * (den // c.denominator) // num for k, c in self._packed.items()})

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
        if not self._packed:
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


_new = object.__new__


def _poly(ring: VarRing, packed: dict) -> MPoly:
    """An MPoly on a dict already in stored form, which it takes over."""
    p = _new(MPoly)
    p.ring = ring
    p._packed = packed
    p._numeric = None
    return p


def rename(p: MPoly, mapping: Mapping[str, str], ring: VarRing) -> MPoly:
    """Re-home a polynomial into another ring containing every name it uses,
    renaming the names in `mapping` on the way; StructuralError when a name
    is absent or two names land on one."""
    src = p.ring
    used = reduce(or_, p._packed, 0)
    moves = []
    for name, s in zip(src.names, src._shifts):
        if used >> s & _MASK:
            moves.append((s, ring._shifts[ring.index(mapping.get(name, name))]))
    if len({t for _, t in moves}) != len(moves):
        raise StructuralError(f"renaming {src.names} into {ring.names} merges two names")
    out = {}
    for k, c in p._packed.items():
        nk = 0
        for s, t in moves:
            nk |= (k >> s & _MASK) << t
        out[nk] = c
    return _poly(ring, out)
