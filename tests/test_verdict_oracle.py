"""Digit-free oracle for refactors: the seed-42 verdicts and residual counts.

`verdict_oracle.json` holds, for `aat all` on every bundled problem and for
`aat catalog`, the exact objects (relation texts, each derivation's
specialization mode and point, the weights alpha, V and the slot expressions,
the negation relations E and the addition formula R), the ordered
(verdict id, pass) pairs, the residual
(relation, samples, pole_skipped, verdict) tuples and the sample counts of
the sampled checks (formula-agreement pairs, derivative-recursion points,
period generators).  A change may move the
last digits of residual statistics, but not these.  After a change that
alters them on purpose, rewrite the file with

    PYTHONPATH=src python tests/test_verdict_oracle.py

and explain the differences in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import pytest

from aat.pipeline import run_catalog, run_problem
from aat.problem import load_problem

ROOT = Path(__file__).resolve().parent.parent
ORACLE = Path(__file__).with_name("verdict_oracle.json")
PROBLEMS = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "problems").glob("*.aat"))


def _text(obj):
    """The printed polynomial or rational function of a report object."""
    if obj is None:
        return None
    return obj["poly"] if "poly" in obj else obj["text"]


def _digest(section: dict) -> dict:
    agreement = section.get("group_law", {}).get("formula_agreement", {})
    variety = section.get("variety", {})
    return {
        "relations": {key: _text(rel) for key, rel in section.get("relations", {}).items()},
        "specializations": {
            key: [entry["specialization"]["mode"], entry["specialization"]["point"]]
            for key, entry in section.get("trace", {}).items()
        },
        "alpha": variety.get("alpha"),
        "V": _text(variety.get("V")),
        "expressions": {key: _text(e) for key, e in variety.get("expressions", {}).items()},
        "E": [_text(e) for e in section.get("negation", {}).get("E", [])],
        "R": [_text(r) for r in section.get("formulas", {}).get("R", [])],
        "verdicts": [[v["id"], v["pass"]] for v in section["verdicts"]],
        "residuals": [[r["relation"], r["samples"], r["pole_skipped"], r["verdict"]] for r in section["residuals"]],
        "counts": {
            "agree": agreement.get("agree"),
            "tried": agreement.get("tried"),
            "derivative_points": section.get("derivative_recursion", {}).get("points"),
            "generators": len(section["periods"]["generators"]) if "periods" in section else None,
        },
    }


def _run(name: str):
    if name == "catalog":
        return [_digest(s) for s in run_catalog(seed=42)["catalog"]]
    spec = load_problem(ROOT / name)
    spec.options.seed = 42
    return _digest(run_problem(spec, ["all"]))


@pytest.mark.parametrize("name", PROBLEMS + ["catalog"])
def test_seed_42_verdicts_match_the_oracle(name):
    want = json.loads(ORACLE.read_text())[name]
    assert _run(name) == want


if __name__ == "__main__":
    oracle = {name: _run(name) for name in PROBLEMS + ["catalog"]}
    ORACLE.write_text(json.dumps(oracle, indent=1) + "\n")
    print(f"wrote {ORACLE} ({len(oracle)} runs)", file=sys.stderr)
