"""GCDs, resultants and squarefree machinery for the exact kernel.

The multivariate gcd recurses on variable count: it splits off the contents
in the main variable v and then settles the gcd of the two v-primitive parts
by the first of three routes that answers.

1. A modular coprimality certificate (Brown's modular gcd, JACM 1971, used
   one-sidedly): every name except v is sent to a fixed point mod the prime
   2^61 - 1.  When neither leading coefficient in v vanishes there and the
   univariate images have a degree-0 gcd mod p, the true gcd is v-free, hence
   1, because its image keeps its v-degree and divides both images.
2. The heuristic gcd GCDHEU (Char, Geddes & Gonnet, JSC 1989) for pairs with
   a real common factor: the integer-primitive inputs are evaluated at a large
   integer xi one name at a time, the integer gcd at the bottom is lifted back
   xi-adically with symmetric digits, and the primitive part of the lift is
   the gcd exactly when it divides both inputs.  A few growing points are
   tried before the route gives up.
3. The primitive-part subresultant remainder sequence in v, which answers
   every case and stays the reference the other two routes are tested
   against.

Every route emits the gcd in canonical (descending lex) term order, so that
numeric evaluation, which sums in insertion order, does not depend on the
route taken.  The resultant follows the classical subresultant algorithm,
returning the exact resultant with all sign and content factors restored.  A
Sylvester-determinant evaluation (via fraction-free Bareiss elimination) is
kept as an independent oracle for the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, isqrt, lcm

from .rings import DomainError, MPoly, _check_same_ring


def exact_div(a: MPoly, b: MPoly) -> MPoly:
    """Exact polynomial division; raises DomainError if b does not divide a."""
    _check_same_ring(a, b)
    if b.is_zero():
        raise DomainError("division by the zero polynomial")
    if a.is_zero():
        return a
    if a._is_int() and b._is_int():
        fast = _exact_div_int(a, b)
        if fast is not None:
            return fast
    ring = a.ring
    bexps, bc = b.leading()
    out = {}
    rem = dict(a.terms)
    while rem:
        exps = max(rem)
        c = rem[exps]
        qexps = tuple(e - f for e, f in zip(exps, bexps))
        if any(e < 0 for e in qexps):
            raise DomainError("inexact polynomial division")
        qc = c / bc
        out[qexps] = qc
        # rem -= (qc * x^qexps) * b
        for e2, c2 in b.terms.items():
            t = tuple(x + y for x, y in zip(qexps, e2))
            s = rem.get(t, Fraction(0)) - qc * c2
            if s:
                rem[t] = s
            else:
                rem.pop(t, None)
    return MPoly(ring, out)


def _exact_div_int(a: MPoly, b: MPoly):
    """Integer-coefficient fast path; None when the quotient is not integral."""
    q = _int_quo({e: c.numerator for e, c in a.terms.items()}, {e: c.numerator for e, c in b.terms.items()})
    return None if q is None else MPoly(a.ring, {e: Fraction(v) for e, v in q.items()})


def _int_quo(a: dict, b: dict):
    """Quotient of integer term maps {exps: int} in descending order; None when
    it leaves the integers, DomainError when b does not divide a over Q."""
    bexps = max(b)
    bc = b[bexps]
    bterms = list(b.items())
    out = {}
    rem = dict(a)
    while rem:
        exps = max(rem)
        qexps = tuple(e - f for e, f in zip(exps, bexps))
        if any(e < 0 for e in qexps):
            raise DomainError("inexact polynomial division")
        qc, leftover = divmod(rem[exps], bc)
        if leftover:
            return None  # quotient leaves the integers; retry generically
        out[qexps] = qc
        for e2, c2 in bterms:
            t = tuple(x + y for x, y in zip(qexps, e2))
            s = rem.get(t, 0) - qc * c2
            if s:
                rem[t] = s
            else:
                rem.pop(t, None)
    return out


def divides(b: MPoly, a: MPoly) -> bool:
    try:
        exact_div(a, b)
        return True
    except DomainError:
        return False


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
    coeffs = list(a.coeffs_in(v).values())
    if not coeffs:
        return a.ring.zero()
    g = coeffs[0].normalized()
    for c in coeffs[1:]:
        if g.is_constant():
            break
        g = gcd(g, c)
    return g.normalized() if not g.is_zero() else g


def primitive_in(a: MPoly, v: str) -> MPoly:
    c = content_in(a, v)
    if c.is_zero():
        return a
    return exact_div(a, c)


def gcd(a: MPoly, b: MPoly) -> MPoly:
    """Multivariate gcd, normalized (integer content 1, positive leading
    coefficient), with its terms in canonical order whatever the route."""
    _check_same_ring(a, b)
    if a.is_zero():
        g = b.normalized()
    elif b.is_zero():
        g = a.normalized()
    else:
        g = _gcd_rec(a, b).normalized()
    return MPoly(g.ring, dict(g.sorted_terms()))


def _gcd_rec(a: MPoly, b: MPoly) -> MPoly:
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
    pa, pb = exact_div(a, ca), exact_div(b, cb)
    cg = _gcd_rec(ca, cb)
    if _coprime_mod_p(pa, pb, v):
        return cg
    g = _heu_gcd(pa, pb)
    if g is None:
        g = _prs_gcd(pa, pb, v)
    return cg * g


_P = (1 << 61) - 1  # Mersenne prime modulus of the coprimality certificate


def _eval_point(ring) -> list:
    """The fixed evaluation point mod _P, one nonzero residue per ring name."""
    return [(0x9E3779B97F4A7C15 * (i + 1)) % _P for i in range(len(ring.names))]


def _image_mod_p(a: MPoly, iv: int, point: list):
    """Coefficients (low degree first) of a mod _P at the point, univariate in
    name index iv; None when a coefficient denominator is divisible by _P."""
    out = [0] * (max(e[iv] for e in a.terms) + 1)
    for exps, c in a.terms.items():
        den = c.denominator % _P
        if not den:
            return None
        val = c.numerator * pow(den, -1, _P)
        for i, e in enumerate(exps):
            if e and i != iv:
                val = val * pow(point[i], e, _P) % _P
        out[exps[iv]] = (out[exps[iv]] + val) % _P
    return out


def _trim(f: list) -> list:
    while f and not f[-1]:
        f.pop()
    return f


def _gcd_degree_mod_p(f: list, g: list) -> int:
    """Degree of gcd(f, g) in GF(_P)[v]; coefficient lists low degree first."""
    f, g = _trim(list(f)), _trim(list(g))
    while g:
        inv = pow(g[-1], -1, _P)
        dg = len(g) - 1
        while len(f) > dg:
            q = f[-1] * inv % _P
            off = len(f) - 1 - dg
            for j in range(dg):
                f[off + j] = (f[off + j] - q * g[j]) % _P
            f.pop()
            _trim(f)
        f, g = g, f
    return len(f) - 1


def _coprime_mod_p(a: MPoly, b: MPoly, v: str) -> bool:
    """True only if gcd(a, b) is certainly v-free; False means "run the PRS".

    Both images must keep their v-degree: then the image of the true gcd has
    the true v-degree and divides both images, so a degree-0 image gcd shows
    the true gcd has v-degree 0.
    """
    iv = a.ring.index(v)
    point = _eval_point(a.ring)
    fa = _image_mod_p(a, iv, point)
    if fa is None or not fa[-1]:
        return False
    fb = _image_mod_p(b, iv, point)
    if fb is None or not fb[-1]:
        return False
    return _gcd_degree_mod_p(fa, fb) == 0


_HEU_TRIES = 6  # evaluation points GCDHEU tries before the PRS takes over
_HEU_MAX_BITS = 1 << 20  # give up before image coefficients pass a megabit


def _heu_gcd(a: MPoly, b: MPoly):
    """Integer-primitive gcd of two polynomials by GCDHEU, or None when it
    gives up; for v-primitive inputs the PRS route returns an associate."""
    g = _heu_rec(_int_primitive(a.terms), _int_primitive(b.terms))
    if g is None:
        return None
    return MPoly(a.ring, {e: Fraction(k) for e, k in g.items()})


def _int_primitive(terms: dict) -> dict:
    """Integer-primitive associate of a term map with rational or integer values."""
    den = lcm(*(c.denominator for c in terms.values()))
    ints = {e: c.numerator * (den // c.denominator) for e, c in terms.items()}
    cont = _int_gcd(*ints.values())
    return {e: k // cont for e, k in ints.items()}


def _heu_rec(A: dict, B: dict):
    """gcd(A, B) in Z[names], integer content included, or None.

    The last present name is evaluated at xi; the recursion must return the
    full gcd of the images, content included, for the divisibility test to
    prove the lifted candidate is the gcd and not a proper divisor of it.
    """
    if not A or not B:
        return dict(A or B)
    ca, cb = _int_gcd(*A.values()), _int_gcd(*B.values())
    cont = _int_gcd(ca, cb)
    da, db = [max(col) for col in zip(*A)], [max(col) for col in zip(*B)]
    if not any(da) or not any(db):
        return {(0,) * len(da): cont}
    iv = max(i for i, (x, y) in enumerate(zip(da, db)) if x or y)
    A = {e: k // ca for e, k in A.items()}
    B = {e: k // cb for e, k in B.items()}
    xi = 2 * min(max(map(abs, A.values())), max(map(abs, B.values()))) + 2
    for _ in range(_HEU_TRIES):
        if xi.bit_length() * max(da[iv], db[iv]) > _HEU_MAX_BITS:
            return None
        gamma = _heu_rec(_eval_int(A, iv, xi), _eval_int(B, iv, xi))
        if gamma is None:
            return None
        G = _xi_adic(gamma, iv, xi)
        if G:
            G = _int_primitive(G)
            if _int_divides(G, A) and _int_divides(G, B):
                return {e: cont * k for e, k in G.items()}
        xi = xi * 73794 // 27011
    return None


def _eval_int(A: dict, iv: int, xi: int) -> dict:
    """Integer term map of A with name index iv set to xi."""
    powers = [1]
    out: dict = {}
    for e, k in A.items():
        d = e[iv]
        if d:
            while len(powers) <= d:
                powers.append(powers[-1] * xi)
            k *= powers[d]
            e = e[:iv] + (0,) + e[iv + 1 :]
        out[e] = out.get(e, 0) + k
    return {e: k for e, k in out.items() if k}


def _xi_adic(gamma: dict, iv: int, xi: int) -> dict:
    """Lift an image back to name index iv: symmetric base-xi digits of each
    coefficient become the coefficients of iv^0, iv^1, ..."""
    half = xi // 2
    out = {}
    for e, k in gamma.items():
        d = 0
        while k:
            r = k % xi
            if r > half:
                r -= xi
            if r:
                out[e[:iv] + (d,) + e[iv + 1 :]] = r
            k = (k - r) // xi
            d += 1
    return out


def _int_divides(b: dict, a: dict) -> bool:
    """Whether the integer-primitive b divides a in Z[names] (Gauss's lemma:
    a quotient over Q is then integral)."""
    try:
        return _int_quo(a, b) is not None
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


def sylvester_matrix(a: MPoly, b: MPoly, v: str) -> list:
    """Sylvester matrix of a, b with respect to v, entries v-free MPolys."""
    da, db = a.degree_in(v), b.degree_in(v)
    if da <= 0 or db <= 0:
        raise DomainError("sylvester matrix needs positive degrees")
    ring = a.ring
    ac = a.coeffs_in(v)
    bc = b.coeffs_in(v)
    size = da + db
    rows = []
    for i in range(db):
        row = [ring.zero()] * size
        for d, c in ac.items():
            row[i + (da - d)] = c
        rows.append(row)
    for i in range(da):
        row = [ring.zero()] * size
        for d, c in bc.items():
            row[i + (db - d)] = c
        rows.append(row)
    return rows


def det_bareiss(rows: list) -> MPoly:
    """Fraction-free determinant of a square MPoly matrix."""
    n = len(rows)
    if n == 0:
        raise DomainError("empty matrix")
    ring = rows[0][0].ring
    m = [list(r) for r in rows]
    sign = 1
    prev = ring.one()
    for i in range(n - 1):
        if m[i][i].is_zero():
            for r in range(i + 1, n):
                if not m[r][i].is_zero():
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return ring.zero()
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = exact_div(m[i][i] * m[r][c] - m[r][i] * m[i][c], prev)
            m[r][i] = ring.zero()
        prev = m[i][i]
    det = m[n - 1][n - 1]
    return det if sign > 0 else -det


def resultant_sylvester(a: MPoly, b: MPoly, v: str) -> MPoly:
    """Resultant as a Sylvester determinant; test oracle for small degrees."""
    return det_bareiss(sylvester_matrix(a, b, v))


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
        term = MPoly(ring, {texps: rc / lc})
        root = root + term
        rem = rem - lead2 * term - term * term
        lead2 = root.scale(2)
    return root


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
        key = str(q)
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
            if dv < 2:
                continue  # no repeated v-factors possible
            if v in q.ring.parameters:
                g = q.ring.one()
            else:
                g = gcd(q, q.diff(v))
            if not g.is_constant():
                visit(g, d - 1)
                visit(exact_div(q, g), d - 1)

    visit(p, depth)
    out = sorted(seen.values(), key=lambda q: (q.total_degree(), len(q.terms), str(q)))
    return out
