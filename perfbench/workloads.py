"""Workload inputs, drawn from the benchmark seed.

A workload is a list of `aat` invocations, one interpreter each, that every
pass of a run repeats unchanged.  `aat` sees only the problem files written
here and `--seed` values drawn here.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("weierstrass", "elementary", "catalog")
# Seeds map onto POOL draws per workload, and every draw in the pool has been
# run to completion: period detection fails on about 1% of (lattice, seed)
# pairs, so unscreened draws would fail on some seeds and not on others.
POOL = 10


def problem_text(family: str, n: int, params: dict, aat: list) -> str:
    lines = ["[mapping]", f"n = {n}", f"family = {family}"]
    lines += [f"param {name} = {value}" for name, value in params.items()]
    lines.append("[aat]")
    lines += [f"G{k} = {text}" for k, text in enumerate(aat, start=1)]
    lines += ["[options]", "tol = 1e-9", "samples = 100", "seed = 42"]
    return "\n".join(lines) + "\n"


def _small_rational(rng: random.Random) -> Fraction:
    """A nonzero rational with numerator and denominator below 10 and 4."""
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 3))


def _lattice(rng: random.Random, *, g3_zero: bool):
    """Weierstrass invariants with g2 != 0 and g2^3 - 27*g3^2 != 0."""
    while True:
        g2 = _small_rational(rng)
        g3 = Fraction(0) if g3_zero else _small_rational(rng)
        if g2**3 != 27 * g3**2:
            return g2, g3


def _aat_seed(rng: random.Random) -> str:
    return str(rng.randint(1, 999_999))


def draw(workload: str, seed: int, scratch: Path) -> list:
    """[(label, aat arguments without -o)] for one pass; writes problem files."""
    rng = random.Random(f"{workload}:{seed % POOL}")
    problems = []  # (label, problem text)
    if workload == "weierstrass":
        for label, g3_zero in (("g3-zero", True), ("g3-nonzero", False)):
            g2, g3 = _lattice(rng, g3_zero=g3_zero)
            text = problem_text("weierstrass", 1, {"g2": g2, "g3": g3}, ["auto"])
            problems.append((f"{label} ({g2}, {g3})", text))
    elif workload == "elementary":
        c = _small_rational(rng)
        while not 1 <= abs(c) <= 3:  # keeps the period 2*pi*i/c inside the detector's box
            c = _small_rational(rng)
        problems.append((f"exp c={c}", problem_text("exp", 1, {"c": c}, ["L1 - x1*y1"])))
        problems.append(("rational", problem_text("rational", 1, {}, ["auto"])))
        for case in (1, 2, 3):
            family = f"singular2-case{case}"
            problems.append((family, problem_text(family, 2, {}, ["auto", "auto"])))
    elif workload == "catalog":
        return [("catalog", ["catalog", "--seed", _aat_seed(rng)])]
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    out = []
    for i, (label, text) in enumerate(problems):
        path = scratch / f"input{i}.aat"
        path.write_text(text, encoding="utf-8")
        out.append((label, ["all", str(path), "--seed", _aat_seed(rng)]))
    return out
