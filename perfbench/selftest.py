"""Self-test of the benchmark: the checks accept real `aat` output and reject
corrupted copies, and the tracer skips names a version no longer has.

    python3 perfbench/selftest.py

Runs `aat all` on the lemniscatic problem and on an exp problem (about ten
seconds), then exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import checks
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


def _aat(problem: Path, out: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, "-m", "aat", "all", str(problem), "-o", str(out)],
        env=env, stdout=subprocess.DEVNULL, check=True,
    )
    return json.loads(out.read_text(encoding="utf-8"))


def _bump_first_coefficient(text: str) -> str:
    return re.sub(r"\d+(?=\*)", lambda m: str(int(m.group()) + 1), text, count=1)


def _flip_first_sign(text: str) -> str:
    return text.replace(" - ", " + ", 1) if " - " in text else text.replace(" + ", " - ", 1)


def main() -> int:
    failures = []

    def expect(name: str, problems: list, should_pass: bool) -> None:
        ok = not problems if should_pass else bool(problems)
        print(f"[{'ok' if ok else 'FAIL'}] {name}: {problems or 'accepted'}")
        if not ok:
            failures.append(name)

    work = ROOT / ".bench_build" / "perfbench" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    exp_problem = work / "exp.aat"
    exp_problem.write_text(workloads.problem_text("exp", 1, {"c": "3/2"}, ["L1 - x1*y1"]), encoding="utf-8")
    wp = _aat(ROOT / "problems" / "lemniscatic.aat", work / "wp.json")
    ex = _aat(exp_problem, work / "exp.json")

    expect("weierstrass report", checks.check_report(wp), True)
    expect("exp report", checks.check_report(ex), True)

    bad = copy.deepcopy(wp)
    g1 = bad["problem"]["spec_echo"]["aat"][0]
    g1["poly"] = _bump_first_coefficient(g1["poly"])
    expect("G1 with one coefficient changed", checks.check_report(bad), False)

    bad = copy.deepcopy(wp)
    gen = bad["problem"]["periods"]["generators"][0]
    gen["period"] = [[2 * re_, 2 * im_] for re_, im_ in gen["period"]]
    expect("a period generator doubled", checks.check_report(bad), False)

    bad = copy.deepcopy(ex)
    rel = bad["problem"]["relations"]["1_1"]
    rel["poly"] = _flip_first_sign(rel["poly"])
    expect("a relation sign flipped", checks.check_report(bad), False)

    tracer = Tracer(
        targets=(
            ("euclid.gcd", "aat.euclid", "gcd"),
            ("gone.function", "aat.euclid", "no_such_function"),
            ("gone.method", "aat.rings", "MPoly.no_such_method"),
            ("gone.module", "aat.no_such_module", "anything"),
        )
    )
    sys.path.insert(0, str(ROOT / "src"))
    tracer.install()
    from aat import parse_poly
    from aat.euclid import gcd
    from aat.rings import VarRing

    ring = VarRing(("x", "y"))
    gcd(parse_poly("x^2 - y^2", ring), parse_poly("x - y", ring))
    skipped_ok = tracer.skipped == [
        "aat.euclid.no_such_function", "aat.rings.MPoly.no_such_method", "aat.no_such_module.anything"
    ]
    traced_ok = tracer.stats["euclid.gcd"][0] == 1
    print(f"[{'ok' if skipped_ok and traced_ok else 'FAIL'}] tracer skips absent names: {tracer.skipped}")
    if not (skipped_ok and traced_ok):
        failures.append("tracer")

    print("self-test", "FAILED: " + ", ".join(failures) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
