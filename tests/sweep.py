"""Run seeded random problems through the whole pipeline and record each
input's verdicts, offline.

    PYTHONPATH=src python tests/sweep.py --runs N --out FILE [--options]
    python tests/sweep.py --compare FILE_A FILE_B

One seeded generator draws N (family, params, seed) inputs: Weierstrass and
singular2-case4 lattices (invariants with numerators up to 20 in size and
denominators 1-3, g2^3 != 27 g3^2), exp with a rational rate c = a/b, and
singular2-case2.  With `--options` a second seeded generator gives each
input overrides of the options `samples`, `box` and `tol` (the catalog's
value is one of each axis's equally likely choices); the (family, params,
seed) draws stay the same.  Each input runs `aat all` in process
(`catalog_problem_text`, `parse_problem`, `run_problem`) on a fork pool over
the usable CPUs.  FILE gets, per input, its option overrides, its verdicts
as (id, pass) pairs and its residuals as (relation, pole_skipped, verdict)
entries, or the exception that ended the run; every input that is not ok is
printed.  The same N draws the same inputs in any checkout, so two FILEs
from two checkouts line up.

`--compare` lists the inputs whose verdicts differ between two FILEs, those
that went from ok to not ok or to an error first, and counts the inputs
whose residual entries differ.  It exits 1 when some input went from ok to
not ok or to an error, and 0 otherwise.  Not a test: pytest collects only
`test_*.py`.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import sys
import traceback
from fractions import Fraction

_DRAWS = "sweep"  # the generator's seed: input i is the same in every run
_OPTION_DRAWS = "sweep-options"  # the seed of the option axes' own generator
# each option axis: None (the catalog's value) or an override
_OPTION_AXES = {
    "samples": (None, 20, 50, 200),
    "box": (None, 0.3, 0.6, 2.0, 3.0),
    "tol": (None, 1e-6, 1e-8, 1e-10),
}


def _invariant(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-20, 20), rng.randint(1, 3))


def draw_inputs(runs: int, options: bool = False) -> list:
    """[(family, {param: text}, seed, {option: override})] of the first
    `runs` draws; the overrides are empty without `options`."""
    rng, axes = random.Random(_DRAWS), random.Random(_OPTION_DRAWS)
    inputs = []
    for _ in range(runs):
        family = rng.choices(("weierstrass", "singular2-case4", "exp", "singular2-case2"), (4, 3, 3, 1))[0]
        if family == "exp":
            params = {"c": str(Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 9)))}
        elif family == "singular2-case2":
            params = {}
        else:
            while True:
                g2, g3 = _invariant(rng), _invariant(rng)
                if g2**3 != 27 * g3**2:
                    break
            params = {"g2": str(g2), "g3": str(g3)}
        overrides = {}
        if options:
            picks = {name: axes.choice(values) for name, values in _OPTION_AXES.items()}
            overrides = {name: value for name, value in picks.items() if value is not None}
        inputs.append((family, params, rng.randint(1, 999_999), overrides))
    return inputs


def run_input(item) -> dict:
    from aat.pipeline import catalog_problem_text, run_problem
    from aat.problem import parse_problem

    family, params, seed, overrides = item
    entry = {"family": family, "params": params, "seed": seed, "options": overrides}
    try:
        spec = parse_problem(catalog_problem_text(family, params, seed=seed), overrides=overrides)
        section = run_problem(spec, ["all"])
    except Exception:  # an exception is itself a finding; keep the rest of the sweep
        entry["error"] = traceback.format_exc(limit=3)
        return entry
    entry["ok"] = section["ok"]
    entry["verdicts"] = [[v["id"], v["pass"]] for v in section["verdicts"]]
    entry["residuals"] = [[r["relation"], r["pole_skipped"], r["verdict"]] for r in section["residuals"]]
    return entry


def _label(entry) -> str:
    params = ", ".join(f"{k} = {v}" for k, v in entry["params"].items())
    overrides = ", ".join(f"{k} = {v}" for k, v in entry.get("options", {}).items())
    return f"{entry['family']} ({params}) --seed {entry['seed']}" + (f" [{overrides}]" if overrides else "")


def sweep(runs: int, out: str, options: bool) -> int:
    inputs = draw_inputs(runs, options)
    try:
        workers = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        workers = os.cpu_count() or 1
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        with multiprocessing.get_context("fork").Pool(min(workers, runs)) as pool:
            entries = pool.map(run_input, inputs, chunksize=1)
    else:
        entries = [run_input(item) for item in inputs]
    with open(out, "w", encoding="utf-8") as f:
        json.dump(entries, f, indent=1)
        f.write("\n")
    failing = [e for e in entries if not e.get("ok")]
    for entry in failing:
        failed = [v for v, ok in entry.get("verdicts", []) if not ok]
        print(f"{_label(entry)}: {entry.get('error') or '; '.join(failed)}")
    print(f"{len(entries) - len(failing)} of {len(entries)} inputs ok")
    return 0


def compare(a: str, b: str) -> int:
    sides = []
    for path in (a, b):
        with open(path, encoding="utf-8") as f:
            sides.append({_label(e): e for e in json.load(f)})
    shared = [label for label in sides[0] if label in sides[1]]
    worse = {label for label in shared if sides[0][label].get("ok") and not sides[1][label].get("ok")}
    verdicts = [label for label in shared if sides[0][label].get("verdicts") != sides[1][label].get("verdicts")]
    verdicts.sort(key=lambda label: label not in worse)  # the inputs that got worse first
    residuals = [label for label in shared if sides[0][label].get("residuals") != sides[1][label].get("residuals")]
    print(f"{len(shared)} inputs in both files; verdicts differ on {len(verdicts)}:")
    for label in verdicts:
        pairs = [dict(side[label].get("verdicts", [])) for side in sides]
        moved = sorted(v for v in set(pairs[0]) | set(pairs[1]) if pairs[0].get(v) != pairs[1].get(v))
        print(f"  {label}: {', '.join(f'{v!r} {pairs[0].get(v)} -> {pairs[1].get(v)}' for v in moved)}")
    print(f"residual entries (pole_skipped, verdict) differ on {len(residuals)}:")
    for label in residuals:
        print(f"  {label}")
    return 1 if worse else 0


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(argv[1], argv[2])
    options = argv[4:] == ["--options"]
    if len(argv) == 4 + options and argv[0] == "--runs" and argv[2] == "--out" and argv[1].isdigit():
        return sweep(int(argv[1]), argv[3], options)
    print("usage: python tests/sweep.py --runs N --out FILE [--options] | --compare FILE_A FILE_B", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
