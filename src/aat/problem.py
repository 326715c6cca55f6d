"""Problem files: the line-oriented input format of the engine.

    [mapping]
    n = 1
    family = weierstrass        # exp, rational, weierstrass, singular2-case1..case5
    param g2 = 4
    param g3 = 0
    [aat]
    G1 = <polynomial in L1, x1..xn, y1..yn, params>   # or: auto
    [options]
    tol = 1e-9
    samples = 100
    seed = 42

`#` starts a comment; parameter values are exact rationals.  `n`, `family`
and one `G_k` per component are required, and no key may repeat within its
section.  `[options]` takes `tol`, `samples`, `seed` and `box`; the loader's
`overrides` (the command line's) replace the file's values before `G = auto`
is built.  The family's backend is built once, here, and kept on the spec;
`G_k = auto` asks it for the family's addition polynomials (`addition_polys`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import naming
from .backends import FAMILIES, make_backend
from .elimination import AATSystem
from .parsing import ParseError, parse_poly
from .rings import DomainError, StructuralError, VarRing

_OPTION_TYPES = {
    "tol": float,
    "samples": int,
    "seed": int,
    "box": float,
}


def _finite_positive(v) -> bool:
    return math.isfinite(v) and v > 0


# option -> (requirement, test); an unset `box` (None) always passes
_OPTION_RANGES = {
    "samples": ("at least 1", lambda v: v >= 1),
    "tol": ("finite and positive", _finite_positive),
    "box": ("finite and positive", _finite_positive),
}


class ProblemError(StructuralError):
    """Malformed problem file."""


@dataclass
class Options:
    tol: float = 1e-9
    samples: int = 100
    seed: int = 42
    box: float | None = None

    def check(self, where: str) -> None:
        """Raise ProblemError, naming the option, for a value out of range."""
        for name, (need, ok) in _OPTION_RANGES.items():
            value = getattr(self, name)
            if value is not None and not ok(value):
                raise ProblemError(f"{where}: option {name} must be {need}, got {value}")


@dataclass
class ProblemSpec:
    n: int
    family: str
    params: dict  # name -> Fraction
    ring: VarRing
    aat_polys: list  # MPoly with parameter values substituted
    options: Options
    source: str
    backend: object  # the family's MappingBackend


def _parse_rational(text: str, where: str) -> Fraction:
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as err:
        raise ProblemError(f"bad rational value in {where}: {text!r}") from err
    # the backends evaluate in floats: a value that overflows or rounds to 0 cannot run
    try:
        lost = value != 0 and float(value) == 0
    except OverflowError:
        lost = True
    if lost:
        raise ProblemError(f"{where}: {text.strip()} is outside the float range")
    return value


def parse_problem(text: str, source: str = "<string>", overrides=None) -> ProblemSpec:
    section = None
    mapping: dict = {"params": {}}
    aat_lines: dict = {}
    opts: dict = {}
    first_line: dict = {}  # (section, key) -> line of its first definition
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in ("mapping", "aat", "options"):
                raise ProblemError(f"{source}:{lineno}: unknown section [{section}]")
            continue
        if section is None:
            raise ProblemError(f"{source}:{lineno}: content before any section header")
        if "=" not in line:
            raise ProblemError(f"{source}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if section == "mapping":
            if key == "n":
                try:
                    mapping["n"] = int(value)
                except ValueError as err:
                    raise ProblemError(f"{source}:{lineno}: n must be an integer") from err
            elif key == "family":
                mapping["family"] = value
            elif key.startswith("param "):
                name = key[len("param ") :].strip()
                if not name.isidentifier():
                    raise ProblemError(f"{source}:{lineno}: bad parameter name {name!r}")
                key = f"param {name}"
                mapping["params"][name] = _parse_rational(value, f"{source}:{lineno}")
            else:
                raise ProblemError(f"{source}:{lineno}: unknown mapping key {key!r}")
        elif section == "aat":
            if not (key.startswith("G") and key[1:].isdigit()):
                raise ProblemError(f"{source}:{lineno}: addition polynomials are named G1, G2, ...")
            k = int(key[1:])
            key = f"G{k}"
            aat_lines[k] = (value, lineno)
        else:
            if key not in _OPTION_TYPES:
                raise ProblemError(f"{source}:{lineno}: unknown option {key!r}")
            try:
                opts[key] = _OPTION_TYPES[key](value)
            except ValueError as err:
                raise ProblemError(f"{source}:{lineno}: bad value for {key}") from err
        first = first_line.setdefault((section, key), lineno)
        if first != lineno:
            raise ProblemError(f"{source}:{lineno}: {key} given twice (first at line {first})")
    for key in ("n", "family"):
        if key not in mapping:
            raise ProblemError(f"{source}: missing {key!r} in [mapping]")
    n, family = mapping["n"], mapping["family"]
    if n < 1:
        raise ProblemError(f"{source}: n must be positive")
    if family not in FAMILIES:
        raise ProblemError(f"{source}: unknown family {family!r}; known: {', '.join(FAMILIES)}")
    if FAMILIES[family] != n:
        raise ProblemError(f"{source}: family {family} has n = {FAMILIES[family]}, not {n}")
    params = mapping["params"]
    options = Options(**{**opts, **(overrides or {})})
    options.check(source)
    backend = make_backend(family, params)

    ring = naming.problem_ring(n, tuple(sorted(params)))
    expected = set(range(1, n + 1))
    given = set(aat_lines)
    if given != expected:
        raise ProblemError(
            f"{source}: expected {n} addition polynomials G1..G{n}, got {sorted(given) or 'none'}"
        )
    polys = []
    auto_polys = None
    for k in sorted(aat_lines):
        text, lineno = aat_lines[k]
        if text == "auto":
            if auto_polys is None:
                auto_polys = backend.addition_polys(ring, seed=options.seed)
            poly = auto_polys[k - 1]
        else:
            try:
                poly = parse_poly(text, ring)
            except (ParseError, DomainError) as err:
                raise ProblemError(f"{source}:{lineno}: G{k}: {err}") from err
        used = {name: value for name, value in params.items() if poly.degree_in(name) > 0}
        polys.append(poly.subs_exact(used))
    try:
        AATSystem(n=n, ring=ring, polys=polys)
    except StructuralError as err:
        raise ProblemError(f"{source}: {err}") from err
    return ProblemSpec(
        n=n,
        family=family,
        params=params,
        ring=ring,
        aat_polys=polys,
        options=options,
        source=source,
        backend=backend,
    )


def load_problem(path, overrides=None) -> ProblemSpec:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"problem file not found: {path}")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ProblemError(f"{path}: not UTF-8 text ({err.reason} at byte {err.start})") from err
    return parse_problem(text, source=str(path), overrides=overrides)
