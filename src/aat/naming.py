"""The fixed variable alphabet shared by every pipeline stage.

``L1..Ln`` are the addition-theorem slots (the mapping's value at u+v),
``x1..xn`` the values at u, ``y1..yn`` the values at v, ``z{k}_{p}`` the
derivative of component k by u_p at u, ``w{k}_{p}`` the same at v, and
``theta`` the primitive-element slot.  Parameter names come from the problem
declaration and must avoid this alphabet.
"""

from __future__ import annotations

import re

from .rings import StructuralError, VarRing

# sha256 from the interpreter's builtin module, as `random` takes sha512, so
# that no process loads OpenSSL's libcrypto for the stage seeds
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.11
    except ImportError:
        from hashlib import sha256

_ZW = re.compile(r"^([zw])(\d+)_(\d+)$")
_LXY = re.compile(r"^([Lxy])(\d+)$")


def L(k: int) -> str:
    return f"L{k}"


def x(k: int) -> str:
    return f"x{k}"


def y(k: int) -> str:
    return f"y{k}"


def z(k: int, p: int) -> str:
    return f"z{k}_{p}"


def w(k: int, p: int) -> str:
    return f"w{k}_{p}"


THETA = "theta"


def classify(name: str):
    """('L'|'x'|'y'|'z'|'w'|'theta', indices...) for an alphabet name, else None."""
    if name == THETA:
        return ("theta",)
    m = _LXY.match(name)
    if m:
        return (m.group(1), int(m.group(2)))
    m = _ZW.match(name)
    if m:
        return (m.group(1), int(m.group(2)), int(m.group(3)))
    return None


def problem_ring(n: int, parameters=()) -> VarRing:
    """The big working ring for an n-component problem."""
    names = [L(k) for k in range(1, n + 1)]
    names += [x(k) for k in range(1, n + 1)]
    names += [y(k) for k in range(1, n + 1)]
    names += [z(k, p) for k in range(1, n + 1) for p in range(1, n + 1)]
    names += [w(k, p) for k in range(1, n + 1) for p in range(1, n + 1)]
    names.append(THETA)
    for par in parameters:
        if classify(par) is not None:
            raise StructuralError(f"parameter name {par!r} collides with the variable alphabet")
    return VarRing(tuple(names), tuple(parameters))


def relation_ring(n: int, k: int, p: int, parameters=()) -> VarRing:
    """Presentation ring for a first-order relation: (z{k}_{p}, x1..xn)."""
    return VarRing((z(k, p),) + tuple(x(i) for i in range(1, n + 1)), tuple(parameters))


def variety_ring(n: int, parameters=()) -> VarRing:
    """Presentation ring for the variety polynomial: (theta, x1..xn)."""
    return VarRing((THETA,) + tuple(x(i) for i in range(1, n + 1)), tuple(parameters))


def negation_ring(n: int, k: int, parameters=()) -> VarRing:
    """Presentation ring for a negation relation: (x1..xn, y{k})."""
    return VarRing(tuple(x(i) for i in range(1, n + 1)) + (y(k),), tuple(parameters))


def formula_ring(n: int, parameters=()) -> VarRing:
    """Ring for rational addition formulas: (x0, x1..xn, y0, y1..yn).

    x0 and y0 are the theta slots at u and at v.
    """
    names = ["x0"] + [x(i) for i in range(1, n + 1)] + ["y0"] + [y(i) for i in range(1, n + 1)]
    return VarRing(tuple(names), tuple(parameters))


def stage_seed(seed: int, label: str) -> int:
    """Deterministic per-stage RNG seed (independent of PYTHONHASHSEED)."""
    digest = sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")
