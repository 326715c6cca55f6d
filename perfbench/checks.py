"""Independent checks of `aat` reports.

Nothing here imports `aat` or compares against stored reports.  Polynomials
are re-parsed from the report text by a parser of this file, compared with
closed forms written out below, and period lattices are compared with bases
computed by mpmath from the invariants alone (DLMF 23.6 for the half-periods,
with the Eisenstein q-series of DLMF 23.9 confirming that the basis has the
given invariants, and Legendre's relation DLMF 23.2.14 for the quasi-periods).

Every check returns a list of problems found; an empty list means the report
passed.
"""

from __future__ import annotations

import cmath
import itertools
import re
from fractions import Fraction

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(.))")


class Poly:
    """Sparse polynomial over Q: {((name, exponent), ...): Fraction}."""

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @staticmethod
    def const(c) -> "Poly":
        return Poly({(): Fraction(c)})

    @staticmethod
    def var(name: str) -> "Poly":
        return Poly({((name, 1),): Fraction(1)})

    def __add__(self, other):
        other = _as_poly(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Poly(out)

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __mul__(self, other):
        other = _as_poly(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                exps = dict(m1)
                for name, e in m2:
                    exps[name] = exps.get(name, 0) + e
                key = tuple(sorted(exps.items()))
                out[key] = out.get(key, 0) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = Poly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def constant(self):
        if not self.terms:
            return Fraction(0)
        if set(self.terms) != {()}:
            return None
        return self.terms[()]


def _as_poly(x) -> Poly:
    return x if isinstance(x, Poly) else Poly.const(x)


def parse(text: str) -> Poly:
    """Parse `+ - * / ^ ( )`, integer literals and identifiers."""
    tokens = []
    for num, ident, op in _TOKEN.findall(text):
        if num:
            tokens.append(("num", int(num)))
        elif ident:
            tokens.append(("id", ident))
        elif op.strip():
            tokens.append(("op", op))
    tokens.append(("end", None))
    pos = 0

    def peek():
        return tokens[pos]

    def take(value=None):
        nonlocal pos
        tok = tokens[pos]
        if value is not None and tok != ("op", value):
            raise ValueError(f"expected {value!r} at token {pos} of {text!r}")
        pos += 1
        return tok

    def expr():
        out = term()
        while peek() in (("op", "+"), ("op", "-")):
            out = out + term() if take()[1] == "+" else out - term()
        return out

    def term():
        out = unary()
        while peek() in (("op", "*"), ("op", "/")):
            if take()[1] == "*":
                out = out * unary()
            else:
                d = unary().constant()
                if not d:
                    raise ValueError(f"division by a non-constant or zero in {text!r}")
                out = out * Poly.const(1 / d)
        return out

    def unary():
        if peek() == ("op", "-"):
            take()
            return -unary()
        return power()

    def power():
        base = atom()
        if peek() == ("op", "^"):
            take()
            kind, n = take()
            if kind != "num":
                raise ValueError(f"exponent must be an integer literal in {text!r}")
            return base**n
        return base

    def atom():
        kind, value = take()
        if kind == "num":
            return Poly.const(value)
        if kind == "id":
            return Poly.var(value)
        if (kind, value) == ("op", "("):
            out = expr()
            take(")")
            return out
        raise ValueError(f"unexpected token {value!r} in {text!r}")

    out = expr()
    if peek()[0] != "end":
        raise ValueError(f"trailing input in {text!r}")
    return out


def proportional(a: Poly, b: Poly) -> bool:
    """a = c*b for a nonzero rational c."""
    if not a.terms or set(a.terms) != set(b.terms):
        return False
    m0 = next(iter(a.terms))
    ratio = a.terms[m0] / b.terms[m0]
    return all(a.terms[m] == ratio * b.terms[m] for m in a.terms)


# -- closed forms ---------------------------------------------------------------

def weierstrass_g(g2: Fraction, g3: Fraction) -> Poly:
    """(x1+y1+L1)(4*x1*y1*L1 - g3) - (x1*y1 + y1*L1 + L1*x1 + g2/4)^2."""
    L, x, y = Poly.var("L1"), Poly.var("x1"), Poly.var("y1")
    return (x + y + L) * (4 * x * y * L - g3) - (x * y + y * L + L * x + g2 / 4) ** 2


def _cubic(z: str, x: str, g2, g3) -> Poly:
    zz, xx = Poly.var(z), Poly.var(x)
    return zz**2 - (4 * xx**3 - g2 * xx - g3)


def expected_relations(family: str, params: dict) -> dict:
    """Closed-form first-order relations P_kp, keyed like the report."""
    z = Poly.var
    if family == "exp":
        return {"1_1": z("z1_1") - params["c"] * z("x1")}
    if family == "rational":
        return {"1_1": z("z1_1") - 1}
    if family == "weierstrass":
        return {"1_1": _cubic("z1_1", "x1", params["g2"], params["g3"])}
    off = {"1_2": z("z1_2"), "2_1": z("z2_1")}
    if family == "singular2-case1":
        return {"1_1": z("z1_1") - 1, "2_2": z("z2_2") - 1, **off}
    if family == "singular2-case2":
        return {"1_1": z("z1_1") - 1, "2_2": z("z2_2") - z("x2"), **off}
    if family == "singular2-case3":
        return {"1_1": z("z1_1") - z("x1"), "2_2": z("z2_2") - z("x2"), **off}
    if family == "singular2-case4":
        # f2 = u2 - zeta(u1), so df2/du1 = p(u1) = x1 (epsilon = 1)
        return {
            "1_1": _cubic("z1_1", "x1", params["g2"], params["g3"]),
            "2_1": z("z2_1") - z("x1"),
            "1_2": z("z1_2"),
            "2_2": z("z2_2") - 1,
        }
    raise ValueError(f"no closed form for family {family!r}")


# -- lattices -------------------------------------------------------------------

def _mp():
    import mpmath

    mpmath.mp.dps = 30
    return mpmath


def _sigma(n: int, k: int) -> int:
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def _reduce_basis(p1, p2):
    """SL2(Z)-reduce (p1, p2) so tau = p2/p1 lies in the fundamental domain."""
    if (p2 / p1).imag < 0:
        p2 = -p2
    for _ in range(100):
        tau = p2 / p1
        n = int(round(float(tau.real)))
        if n:
            p2 = p2 - n * p1
            continue
        if abs(tau) < 1 - 1e-12:
            p1, p2 = p2, -p1
            continue
        break
    return p1, p2


def _invariants(p1, p2, terms: int = 40):
    """(g2, g3, r1, r2, 2*eta(r1), 2*eta(r2)) of the lattice Z*p1 + Z*p2, where
    (r1, r2) is its reduced basis, by q-series."""
    mp = _mp()
    p1, p2 = _reduce_basis(mp.mpc(p1), mp.mpc(p2))
    tau = p2 / p1
    q2 = mp.exp(2j * mp.pi * tau)
    e2 = 1 - 24 * sum(_sigma(n, 1) * q2**n for n in range(1, terms))
    e4 = 1 + 240 * sum(_sigma(n, 3) * q2**n for n in range(1, terms))
    e6 = 1 - 504 * sum(_sigma(n, 5) * q2**n for n in range(1, terms))
    w = mp.pi / p1
    g2 = mp.mpf(4) / 3 * w**4 * e4
    g3 = mp.mpf(8) / 27 * w**6 * e6
    omega1, omega3 = p1 / 2, p2 / 2
    eta1 = mp.pi**2 / (12 * omega1) * e2
    eta3 = (eta1 * omega3 - mp.pi * 1j / 2) / omega1
    return g2, g3, p1, p2, 2 * eta1, 2 * eta3


def weierstrass_lattice(g2: Fraction, g3: Fraction):
    """[(2*omega_1, 2*eta_1), (2*omega_3, 2*eta_3)] for the invariants, as complex.

    The half-periods come from K(k)/sqrt(e1-e3) and iK(k')/sqrt(e1-e3) over
    the root orderings (DLMF 23.6); an ordering is accepted only when the
    q-series invariants of its basis reproduce (g2, g3).
    """
    mp = _mp()
    G2, G3 = mp.mpf(g2.numerator) / g2.denominator, mp.mpf(g3.numerator) / g3.denominator
    roots = mp.polyroots([4, 0, -G2, -G3], extraprec=60)
    scale = max(abs(G2), abs(G3), 1)
    for e1, e2, e3 in itertools.permutations(roots):
        if abs(e1 - e3) < 1e-20:
            continue
        m = (e2 - e3) / (e1 - e3)
        s = mp.sqrt(e1 - e3)
        try:
            w1 = mp.ellipk(m) / s
            w3 = 1j * mp.ellipk(1 - m) / s
        except (ValueError, ZeroDivisionError):
            continue
        if abs(mp.im(w3 / w1)) < 1e-12:
            continue
        got2, got3, p1, p2, q1, q2 = _invariants(2 * w1, 2 * w3)
        if abs(got2 - G2) + abs(got3 - G3) < 1e-18 * scale:
            return [(complex(p1), complex(q1)), (complex(p2), complex(q2))]
    raise ArithmeticError(f"no root ordering reproduces g2={g2}, g3={g3}")


def _real_coords(vec) -> list:
    out = []
    for c in vec:
        out += [c.real, c.imag]
    return out


def _combination(target, basis, tol):
    """Integer coefficients expressing target in basis, or None."""
    import numpy as np

    a = np.array([_real_coords(b) for b in basis]).T
    t = np.array(_real_coords(target))
    coef, *_ = np.linalg.lstsq(a, t, rcond=None)
    ints = np.round(coef)
    if np.max(np.abs(coef - ints), initial=0.0) > tol:
        return None
    if np.linalg.norm(a @ ints - t) > tol * (1 + np.linalg.norm(t)):
        return None
    return ints


def same_lattice(got, want, tol: float = 1e-6) -> bool:
    """The vectors `got` generate the lattice with basis `want`: each is an
    integer combination of the other and the counts agree."""
    if len(got) != len(want):
        return False
    if not want:
        return True
    return all(_combination(g, want, tol) is not None for g in got) and all(
        _combination(w, got, tol) is not None for w in want
    )


def expected_lattice(family: str, params: dict):
    """A basis of the exact period lattice, or [] for a mapping without periods."""
    two_pi_i = 2j * cmath.pi
    if family in ("rational", "singular2-case1"):
        return []
    if family == "exp":
        return [(two_pi_i / float(params["c"]),)]
    if family == "singular2-case2":
        return [(0j, two_pi_i)]
    if family == "singular2-case3":
        return [(two_pi_i, 0j), (0j, two_pi_i)]
    basis = weierstrass_lattice(params["g2"], params["g3"])
    if family == "weierstrass":
        return [(p,) for p, _ in basis]
    if family == "singular2-case4":
        return [(p, q) for p, q in basis]
    if family == "singular2-case5":
        # f2 = exp(u2)*sigma(u1-a)/sigma(u1): shifting u1 by a period P
        # multiplies f2 by exp(-eta(P)*a), undone by u2 -> u2 + eta(P)*a
        a = float(params["a"])
        return [(0j, two_pi_i)] + [(p, q * a) for p, q in basis]
    raise ValueError(f"no period lattice known for family {family!r}")


# -- report checks --------------------------------------------------------------

def _complex_vec(entry) -> tuple:
    return tuple(complex(re_, im_) for re_, im_ in entry)


def check_section(section: dict) -> list:
    """Problems found in one problem section of a report."""
    problems = []
    echo = section["spec_echo"]
    family = echo["family"]
    params = {k: Fraction(v) for k, v in echo["params"].items()}
    src = section["source"]
    if not section.get("ok"):
        problems.append(f"{src}: section not ok")
    if family in ("weierstrass", "singular2-case4"):
        g1 = parse(echo["aat"][0]["poly"])
        if not proportional(g1, weierstrass_g(params["g2"], params["g3"])):
            problems.append(f"{src}: G1 is not the Weierstrass addition polynomial")
    if family != "singular2-case5":  # the period-only entry derives no relations
        want = expected_relations(family, params)
        got = section.get("relations") or {}
        if set(got) != set(want):
            problems.append(f"{src}: relations {sorted(got)} != {sorted(want)}")
        for key in sorted(set(got) & set(want)):
            if not proportional(parse(got[key]["poly"]), want[key]):
                problems.append(f"{src}: P_{key} = {got[key]['poly']} is not its closed form")
    periods = section.get("periods", {})
    generators = [_complex_vec(g["period"]) for g in periods.get("generators", [])]
    if not same_lattice(generators, expected_lattice(family, params)):
        problems.append(f"{src}: period generators do not span the exact lattice")
    if family == "singular2-case4":
        (w1, e1), (w2, e2) = (tuple(c / 2 for c in _complex_vec(v)) for v in periods["expected"])
        legendre = e1 * w2 - e2 * w1
        if min(abs(legendre - s * cmath.pi * 0.5j) for s in (1, -1)) > 1e-9:
            problems.append(f"{src}: quasi-periods break Legendre's relation ({legendre})")
    return problems


def check_report(report: dict) -> list:
    """Problems found in a whole `aat all` or `aat catalog` report."""
    problems = [] if report.get("ok") else ["report not ok"]
    sections = report["catalog"] if "catalog" in report else [report["problem"]]
    for section in sections:
        problems += check_section(section)
    return problems
