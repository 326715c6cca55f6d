"""GCDs, resultants and squarefree machinery for the exact kernel.

`gcd` has two routes.  The first takes the whole pair: the heuristic gcd
GCDHEU (Char, Geddes & Gonnet, JSC 1989).  The integer-primitive inputs are
evaluated at a large integer xi one name at a time, the integer gcd at the
bottom is lifted back xi-adically with symmetric digits, and the primitive
part of the lift is the gcd exactly when it divides both inputs.  That gcd
carries the contents in every name, so no content splitting is needed first.
A few growing points are tried before it gives up; on the bundled problems,
the catalog and the benchmark inputs it has not given up once.

Only when it gives up does the second route run: it splits off the contents
in the main variable v (their gcd by recursion on variable count) and takes
the gcd of the two v-primitive parts from the primitive-part subresultant
remainder sequence in v.  It answers every case, past _LIMIT below too,
and is the reference the tests hold GCDHEU to.

GCDHEU and `exact_div` work on the packed monomial keys that `rings`
stores: one 16-bit field per name, the first name in the most significant
one, so int order is descending lex order and a monomial product is one
addition.  The top bit of every field is a guard bit, clear in every
stored key; one subtraction with every guard set tests divisibility, since
a field that would go negative clears its guard, and a remainder term with
a guard bit set proves a division inexact.  The quotient loop stops at the
first quotient coefficient that is not an integer; `exact_div` then hands
it the pair again as an integral dividend and an integer-primitive divisor
(by Gauss's lemma their quotient is integral when it exists) and scales
the result back.  The integer routes take only exponents below
_LIMIT = 2^14, a quarter of the field range: past it `exact_div` takes the
rescaled route and `gcd` its content-split fallback, and a lifted GCDHEU
digit past it rejects that evaluation point.  A unit lift needs no trial division: it
divides both inputs, so the gcd is their common content.

Both routes emit the gcd in canonical (descending lex) term order, so that
numeric evaluation, which sums in insertion order, does not depend on the
route taken.  A constant operand needs neither route: the gcd is 1.  The
resultant follows the classical subresultant algorithm, returning the exact
resultant with all sign and content factors restored.

`factor_candidates` splits off each name's content and then tries
gcd(q, dq/dv) for repeated factors.  A certificate skips that gcd when it
can only return the v-content: q is mapped into GF(P)[v], P = 2^61 - 1,
with every other name at a fixed point.  If the image keeps deg_v q and is
coprime to its derivative, the v-primitive part of q is squarefree, since a
factor a^2 with deg_v a >= 1 would keep its degree in the image and square
it there.  The gcd is then the content already visited, and the pool and
its order are what the gcd would have given.  When the certificate fails (a
repeated factor, an unlucky point, a denominator divisible by P) the gcd
runs.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import reduce
from math import gcd as _int_gcd, isqrt, lcm
from operator import or_

from .rings import _FIELD, _MASK, DomainError, MPoly, _check_same_ring, _poly


def exact_div(a: MPoly, b: MPoly) -> MPoly:
    """Exact polynomial division; raises DomainError if b does not divide a."""
    _check_same_ring(a, b)
    if b.is_zero():
        raise DomainError("division by the zero polynomial")
    if a.is_zero():
        return a
    fast = _exact_div_int(a, b)
    if fast is not None:
        return fast
    # the rational route: a = A / den and b = cb * B with A integral and B
    # integer-primitive, so by Gauss's lemma A / B is integral when it exists
    den = lcm(*(c.denominator for c in a._packed.values()))
    A = {k: c.numerator * (den // c.denominator) for k, c in a._packed.items()}
    B = _int_primitive(b._packed)
    k = next(iter(B))
    q = _packed_quo(A, B)
    if q is None:
        raise DomainError("inexact polynomial division")
    return _poly(a.ring, q).scale(Fraction(B[k], den * b._packed[k]))


def _exact_div_int(a: MPoly, b: MPoly):
    """The quotient when its coefficients are integers and no exponent of a
    or b reaches _LIMIT, else None; DomainError when b does not divide a."""
    if _reaches_limit(a.ring, a._packed, b._packed):
        return None
    q = _packed_quo(a._packed, b._packed)
    return None if q is None else _poly(a.ring, q)


# Exponents at _LIMIT (a field's bit below the guard) or past it take the
# rational quotient and the content-split gcd (see the module docstring).
_LIMIT = 1 << (_FIELD - 2)


def _reaches_limit(ring, a: dict, b: dict) -> bool:
    """Whether a key of a or b has an exponent of _LIMIT or more: stored
    exponents are below 2 * _LIMIT, so the field's bit for _LIMIT tells."""
    return bool((reduce(or_, a) | reduce(or_, b)) & ring._guards >> 1)


def _packed_quo(a: dict, b: dict):
    """Quotient of packed term maps in descending order when each of its
    coefficients is an integer; None when one is not, DomainError when b
    does not divide a over Q.

    A monomial divides another when subtracting it from the other with every
    guard bit set clears none of them.  A remainder term with a guard bit set
    has an exponent past any a ring stores, which an exact quotient never
    makes.
    """
    blead = max(b)
    bc = b[blead]
    fields = max(max(a), blead).bit_length() // _FIELD + 1  # those a and b use, and one more
    guards = ((1 << (_FIELD * fields)) - 1) // _MASK << (_FIELD - 1)
    # keys are negated in the heap, so its smallest entry is the remainder's
    # leading term; entries of cancelled terms are skipped lazily
    bterms = list(b.items())
    out = {}
    rem = dict(a)
    heap = [-k for k in rem]
    heapq.heapify(heap)
    while rem:
        k = -heapq.heappop(heap)
        if k not in rem:
            continue
        d = (k | guards) - blead
        if k & guards or d & guards != guards:
            raise DomainError("inexact polynomial division")
        q = d ^ guards
        qc, leftover = divmod(rem[k], bc)
        if leftover:
            return None  # quotient leaves the integers; retry generically
        out[q] = qc
        for e2, c2 in bterms:
            t = q + e2
            prod = qc * c2
            old = rem.get(t)
            if old is None:
                rem[t] = -prod
                heapq.heappush(heap, -t)
            elif old == prod:
                del rem[t]
            else:
                rem[t] = old - prod
    return out


def prem(a: MPoly, b: MPoly, v: str) -> MPoly:
    """Pseudo-remainder of a by b with respect to v: lc(b)^(da-db+1) * a mod b."""
    _check_same_ring(a, b)
    da, db = a.degree_in(v), b.degree_in(v)
    if db < 0:
        raise DomainError("pseudo-division by zero")
    if da < db:
        lcb = b.leading_coeff_in(v)
        return a * lcb ** (da - db + 1) if da - db + 1 >= 0 else a
    ring = a.ring
    lcb = b.leading_coeff_in(v)
    xv = ring.var(v)
    r = a
    steps = 0
    while not r.is_zero() and r.degree_in(v) >= db:
        dr = r.degree_in(v)
        lcr = r.leading_coeff_in(v)
        r = r * lcb - lcr * xv ** (dr - db) * b
        steps += 1
    need = da - db + 1
    if steps < need:
        r = r * lcb ** (need - steps)
    return r


def content_in(a: MPoly, v: str) -> MPoly:
    """GCD of the coefficients of a viewed as univariate in v."""
    coeffs = sorted(a.coeffs_in(v).values(), key=lambda c: len(c._packed))
    if not coeffs:
        return a.ring.zero()
    if any(c.is_constant() for c in coeffs):
        return a.ring.one()
    g = coeffs[0].normalized()
    for c in coeffs[1:]:
        if g.is_constant():
            break
        g = gcd(g, c)
    return g


def primitive_in(a: MPoly, v: str) -> MPoly:
    c = content_in(a, v)
    if c.is_zero():
        return a
    return exact_div(a, c)


def gcd(a: MPoly, b: MPoly) -> MPoly:
    """Multivariate gcd, normalized (integer content 1, positive leading
    coefficient), with its terms in canonical order whatever the route:
    GCDHEU on the whole pair, or the content split and the PRS when GCDHEU
    gives up."""
    _check_same_ring(a, b)
    if a.is_zero():
        g = b.normalized()
    elif b.is_zero():
        g = a.normalized()
    elif a.is_constant() or b.is_constant():
        return a.ring.one()
    else:
        g = _heu_gcd(a, b)
        if g is None:
            g = _gcd_rec(a, b)
        g = g.normalized()
    return _poly(g.ring, {k: g._packed[k] for k in sorted(g._packed, reverse=True)})


def _gcd_rec(a: MPoly, b: MPoly) -> MPoly:
    """The fallback: contents in the main variable v by recursion, the
    v-primitive parts by the subresultant PRS."""
    ring = a.ring
    present = [n for n in ring.names if a.degree_in(n) > 0 or b.degree_in(n) > 0]
    if not present:
        return ring.one()
    v = present[0]
    da, db = a.degree_in(v), b.degree_in(v)
    if da == 0:
        return _gcd_rec(a, content_in(b, v))
    if db == 0:
        return _gcd_rec(content_in(a, v), b)
    ca, cb = content_in(a, v), content_in(b, v)
    return _gcd_rec(ca, cb) * _prs_gcd(exact_div(a, ca), exact_div(b, cb), v)


_HEU_TRIES = 6  # evaluation points GCDHEU tries before the fallback takes over
_HEU_MAX_BITS = 1 << 20  # give up before image coefficients pass a megabit


def _heu_gcd(a: MPoly, b: MPoly):
    """Integer-primitive gcd of two polynomials by GCDHEU, or None when it
    gives up; the fallback returns an associate of it.  It gives up on
    exponents at _LIMIT or past it."""
    A, B = _int_primitive(a._packed), _int_primitive(b._packed)
    if _reaches_limit(a.ring, A, B):
        return None
    g = _heu_rec(A, B)
    return None if g is None else _poly(a.ring, g)


def _int_primitive(terms: dict) -> dict:
    """Integer-primitive associate of a term map with rational or integer values."""
    den = lcm(*(c.denominator for c in terms.values()))
    ints = {e: c.numerator * (den // c.denominator) for e, c in terms.items()}
    cont = _int_gcd(*ints.values())
    return {e: k // cont for e, k in ints.items()}


def _heu_rec(A: dict, B: dict):
    """gcd(A, B) in Z[names] of packed term maps, integer content included,
    or None.

    The last present name (the lowest nonzero field) is evaluated at xi; the
    recursion must return the full gcd of the images, content included, for
    the divisibility test to prove the lifted candidate is the gcd and not a
    proper divisor of it.  A unit candidate divides everything, so it is
    accepted without a trial division.
    """
    if not A or not B:
        return dict(A or B)
    ca, cb = _int_gcd(*A.values()), _int_gcd(*B.values())
    cont = _int_gcd(ca, cb)
    used_a, used_b = reduce(or_, A), reduce(or_, B)
    if not used_a or not used_b:
        return {0: cont}
    low = used_a | used_b
    shift = ((low & -low).bit_length() - 1) // _FIELD * _FIELD
    deg = max(max(k >> shift & _MASK for k in A), max(k >> shift & _MASK for k in B))
    A = {e: k // ca for e, k in A.items()}
    B = {e: k // cb for e, k in B.items()}
    xi = 2 * min(max(map(abs, A.values())), max(map(abs, B.values()))) + 2
    for _ in range(_HEU_TRIES):
        if xi.bit_length() * deg > _HEU_MAX_BITS:
            return None
        gamma = _heu_rec(_eval_int(A, shift, xi), _eval_int(B, shift, xi))
        if gamma is None:
            return None
        G = _xi_adic(gamma, shift, xi)
        if G:
            G = _int_primitive(G)
            if len(G) == 1 and 0 in G:
                return {0: cont * G[0]}
            if _packed_divides(G, A) and _packed_divides(G, B):
                return {e: cont * k for e, k in G.items()}
        xi = xi * 73794 // 27011
    return None


def _eval_int(A: dict, shift: int, xi: int) -> dict:
    """Packed integer term map of A with the field at `shift` set to xi."""
    powers = [1]
    out: dict = {}
    for e, k in A.items():
        d = e >> shift & _MASK
        if d:
            while len(powers) <= d:
                powers.append(powers[-1] * xi)
            k *= powers[d]
            e -= d << shift
        out[e] = out.get(e, 0) + k
    return {e: k for e, k in out.items() if k}


def _xi_adic(gamma: dict, shift: int, xi: int) -> dict:
    """Lift an image back to the field at `shift`: symmetric base-xi digits of
    each coefficient become the coefficients of its powers 0, 1, ...  An empty
    map when a digit lands past the packing limit, where no gcd can have one."""
    half = xi // 2
    out = {}
    for e, k in gamma.items():
        d = 0
        while k:
            if d >= _LIMIT:
                return {}
            r = k % xi
            if r > half:
                r -= xi
            if r:
                out[e + (d << shift)] = r
            k = (k - r) // xi
            d += 1
    return out


def _packed_divides(b: dict, a: dict) -> bool:
    """Whether the integer-primitive b divides a in Z[names] (Gauss's lemma:
    a quotient over Q is then integral)."""
    try:
        return _packed_quo(a, b) is not None
    except DomainError:
        return False


def _prs_gcd(a: MPoly, b: MPoly, v: str) -> MPoly:
    """Primitive gcd of two v-primitive polynomials via the subresultant PRS."""
    ring = a.ring
    if a.degree_in(v) < b.degree_in(v):
        a, b = b, a
    g = ring.one()
    h = ring.one()
    while True:
        delta = a.degree_in(v) - b.degree_in(v)
        r = prem(a, b, v)
        if r.is_zero():
            break
        if r.degree_in(v) == 0:
            return ring.one()
        a, b = b, exact_div(r, g * h**delta)
        g = a.leading_coeff_in(v)
        if delta > 1:
            h = exact_div(g**delta, h ** (delta - 1))
        elif delta == 1:
            h = g
    return primitive_in(b, v).normalized()


def resultant(a: MPoly, b: MPoly, v: str) -> MPoly:
    """Resultant with respect to v via the subresultant PRS; exact, v-free."""
    _check_same_ring(a, b)
    if a.degree_in(v) <= 0 or b.degree_in(v) <= 0:
        raise DomainError(f"resultant needs positive degree in {v!r} on both sides")
    ring = a.ring
    ca, cb = content_in(a, v), content_in(b, v)
    A, B = exact_div(a, ca), exact_div(b, cb)
    s = 1
    da, db = A.degree_in(v), B.degree_in(v)
    t = ca**db * cb**da
    if da < db:
        A, B = B, A
        if da % 2 == 1 and db % 2 == 1:
            s = -s
    g = ring.one()
    h = ring.one()
    while True:
        da, db = A.degree_in(v), B.degree_in(v)
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            s = -s
        r = prem(A, B, v)
        A = B
        if r.is_zero():
            return ring.zero()
        B = exact_div(r, g * h**delta)
        g = A.leading_coeff_in(v)
        if delta >= 1:
            h = exact_div(g**delta, h ** (delta - 1)) if delta > 1 else g
        if B.degree_in(v) <= 0:
            break
    dA = A.degree_in(v)
    res = exact_div(B**dA, h ** (dA - 1)) if dA > 1 else (B if dA == 1 else h)
    out = t * res
    return out if s > 0 else -out


def squarefree_check(p: MPoly, v: str) -> bool:
    """True iff gcd(p, dp/dv) is v-free."""
    if p.degree_in(v) <= 0:
        raise DomainError(f"squarefree check needs positive degree in {v!r}")
    return gcd(p, p.diff(v)).degree_in(v) == 0


def squarefree_in(p: MPoly, v: str) -> MPoly:
    """Squarefree part with respect to v (p with repeated v-factors collapsed)."""
    if p.degree_in(v) <= 0:
        return p.normalized()
    g = gcd(p, p.diff(v))
    if g.degree_in(v) == 0:
        return p.normalized()
    return exact_div(p, g).normalized()


def _fraction_sqrt(c: Fraction):
    if c < 0:
        return None
    n, d = isqrt(c.numerator), isqrt(c.denominator)
    if n * n != c.numerator or d * d != c.denominator:
        return None
    return Fraction(n, d)


def poly_sqrt(p: MPoly):
    """Exact square root of a polynomial, or None if p is not a perfect square."""
    if p.is_zero():
        return p
    exps, c = p.leading()
    if any(e % 2 for e in exps):
        return None
    c_root = _fraction_sqrt(c)
    if c_root is None:
        return None
    ring = p.ring
    root = MPoly(ring, {tuple(e // 2 for e in exps): c_root})
    rem = p - root * root
    lead2 = root.scale(2)
    while not rem.is_zero():
        rexps, rc = rem.leading()
        lexps, lc = lead2.leading()
        texps = tuple(a - b for a, b in zip(rexps, lexps))
        if any(e < 0 for e in texps):
            return None
        term = MPoly(ring, {texps: Fraction(rc, lc)})
        root = root + term
        rem = rem - lead2 * term - term * term
        lead2 = root.scale(2)
    return root


# The squarefree certificate maps a polynomial into GF(_P)[v] at these
# fixed points of the other names (the name at ring index i goes to
# _POINT * (i + 1) mod _P).
_P = (1 << 61) - 1
_POINT = 0x9E3779B97F4A7C15


def _squarefree_image(q: MPoly, v: str) -> bool:
    """Whether q mod _P, with every name but v at its fixed point, keeps
    deg_v q and is squarefree; the v-primitive part of q is then squarefree.
    False when a denominator is divisible by _P."""
    i = q.ring.index(v)
    points = [_POINT * (j + 1) % _P for j in range(len(q.ring.names))]
    image = [0] * (q.degree_in(v) + 1)
    for exps, c in q.terms.items():
        if c.denominator % _P == 0:
            return False
        x = c.numerator * pow(c.denominator, -1, _P)
        for j, e in enumerate(exps):
            if e and j != i:
                x = x * pow(points[j], e, _P) % _P
        image[exps[i]] += x
    image = [x % _P for x in image]
    if not image[-1]:
        return False
    return _coprime_mod_p(image, [k * image[k] % _P for k in range(1, len(image))])


def _coprime_mod_p(a: list, b: list) -> bool:
    """Whether two dense polynomials over GF(_P), constant term first and a
    nonzero leading coefficient, are coprime: Euclid's algorithm."""
    while b:
        inv = pow(b[-1], -1, _P)
        a = list(a)
        while len(a) >= len(b):
            q = a[-1] * inv % _P
            shift = len(a) - len(b)
            for k, bk in enumerate(b):
                a[shift + k] = (a[shift + k] - q * bk) % _P
            a.pop()
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


def factor_candidates(p: MPoly, depth: int = 3) -> list:
    """Pool of normalized potential factors found by content/squarefree splitting.

    Full factorization into irreducibles is out of scope; this splits off
    rational content, per-variable contents and repeated-factor parts, which
    is enough for the elimination pipeline's vanishing-factor selection.
    """
    seen: dict = {}

    def visit(q: MPoly, d: int):
        q = q.normalized()
        if q.is_zero() or q.is_constant():
            return
        key = frozenset(q._packed.items())
        if key in seen:
            return
        seen[key] = q
        if d <= 0:
            return
        for v in q.names_present():
            dv = q.degree_in(v)
            if dv <= 0:
                continue
            c = content_in(q, v)
            if not c.is_constant():
                visit(c, d - 1)
                visit(exact_div(q, c), d - 1)
            if dv < 2 or v in q.ring.parameters or _squarefree_image(q, v):
                # no repeated v-factors possible or sought, or none present:
                # gcd(q, dq/dv) is then the v-content just visited, or 1
                continue
            g = gcd(q, q.diff(v))
            if not g.is_constant():
                visit(g, d - 1)
                visit(exact_div(q, g), d - 1)

    visit(p, depth)
    out = sorted(seen.values(), key=lambda q: (q.total_degree(), len(q._packed), str(q)))
    return out
