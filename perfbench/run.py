"""The aat benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every pass runs the workload's `aat` invocations one after another, each in
a fresh interpreter, and the run repeats whole passes until S seconds have
passed (at least one).  Every report is checked by `checks.py`, which does
not import `aat`, and every later pass must reproduce the first pass's
reports byte for byte once `timings` is removed.

With --trace 0 the run prints the end-to-end metrics of BENCHMARK.json; with
--trace 1 it alternates untraced and traced passes and prints the per-layer
metrics, the traced minus untraced wall time among them.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

The program is run from `src/` of the checkout this file sits in (its
byte-code goes to the usual `__pycache__`); reports and inputs go under
`.bench_build/perfbench/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5  # import-only interpreter starts per run, for a steady setup_s


class Runner:
    def __init__(self, workload: str, seed: int):
        self.work = ROOT / ".bench_build" / "perfbench" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.invocations = workloads.draw(workload, seed, self.work)
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.setups: list = []  # seconds from spawn to `aat.cli` imported, every invocation
        self.reference: dict = {}  # label -> first pass's report without timings
        self.problems: list = []
        self.attempted = 0
        self.failed = 0

    def spawn(self, aat_args: list, trace_path: Path | None = None) -> dict:
        """Run one child interpreter; wall time, setup time, peak RSS, exit code."""
        stamp = self.work / "stamp.json"
        stamp.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), str(stamp)]
        if trace_path is not None:
            cmd += ["--trace", str(trace_path)]
        cmd += ["--", *aat_args]
        with open(self.work / "stderr.txt", "ab") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out = {"wall": wall, "rss_mb": usage.ru_maxrss / 1024, "code": proc.returncode}
        if stamp.exists():
            data = json.loads(stamp.read_text(encoding="utf-8"))
            out["import_s"] = data["import_s"]
            self.setups.append(data["imported_at"] - t0)
        return out

    def warm_up(self) -> None:
        """Byte-compile the program once, then time import-only starts."""
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "aat")],
            env=self.env, stdout=subprocess.DEVNULL, check=True,
        )
        self.spawn([])
        self.setups.clear()
        for _ in range(SETUP_PROBES):
            self.spawn([])

    def run_pass(self, traced: bool) -> dict:
        """One pass over the workload; per-pass sums, checked reports."""
        totals = {"wall": 0.0, "derive": 0.0, "rss_mb": 0.0, "import_s": 0.0, "report_bytes": 0,
                  "relations": 0, "exact_point": 0, "traces": [], "steps": []}
        for i, (label, args) in enumerate(self.invocations):
            report_path = self.work / f"report{i}.json"
            report_path.unlink(missing_ok=True)
            trace_path = self.work / f"trace{i}.json" if traced else None
            res = self.spawn([*args, "-o", str(report_path), "--timings"], trace_path)
            self.attempted += 1
            totals["wall"] += res["wall"]
            totals["rss_mb"] = max(totals["rss_mb"], res["rss_mb"])
            totals["import_s"] += res.get("import_s", 0.0)
            if res["code"] != 0 or not report_path.exists():
                self.failed += 1
                print(f"FAILED {label}: exit {res['code']}", file=sys.stderr)
                continue
            text = report_path.read_text(encoding="utf-8")
            report = json.loads(text)
            totals["report_bytes"] += len(text.encode("utf-8"))
            sections = report["catalog"] if "catalog" in report else [report["problem"]]
            for section in sections:
                totals["derive"] += section.pop("timings", {}).get("derive", 0.0)
                for entry in section.get("trace", {}).values():
                    totals["relations"] += 1
                    totals["exact_point"] += entry["specialization"]["mode"].startswith("exact-point")
            self._check(label, report)
            if traced:
                trace = json.loads(trace_path.read_text(encoding="utf-8"))
                totals["traces"].append(trace)
                names = [s["source"] if len(sections) > 1 else label for s in sections if "trace" in s]
                totals["steps"] += zip(names, trace["derive_steps"])
        return totals

    def _check(self, label: str, report: dict) -> None:
        canonical = json.dumps(report, indent=2)
        if label not in self.reference:
            self.reference[label] = canonical
            self.problems += [f"{label}: {p}" for p in checks.check_report(report)]
        elif canonical != self.reference[label]:
            self.problems.append(f"{label}: report differs from the first pass")


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(runner: Runner, passes: list) -> dict:
    return {
        "wall_s": _median([p["wall"] for p in passes]),
        "setup_s": len(runner.invocations) * _median(runner.setups),
        "derive_s": _median([p["derive"] for p in passes]),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    """Per-layer values of one traced pass, named as in BENCHMARK.json."""
    stats: dict = {}
    counts = {"rings.mul.term_products": 0, "euclid.gcd.trivial": 0, "euclid.max_terms": 0}
    for trace in traced["traces"]:
        for prefix, (calls, incl, self_s) in trace["stats"].items():
            acc = stats.setdefault(prefix, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += self_s
        for key, value in trace["counts"].items():
            counts[key] = max(counts[key], value) if key == "euclid.max_terms" else counts[key] + value
    out = {}
    for prefix, (calls, incl, self_s) in stats.items():
        out[f"{prefix}.calls"] = calls
        out[f"{prefix}.s"] = incl
        out[f"{prefix}.self_s"] = self_s
    gcd_calls = stats.get("euclid.gcd", [0])[0]
    out["rings.mul.term_products"] = counts["rings.mul.term_products"]
    out["euclid.max_terms"] = counts["euclid.max_terms"]
    out["euclid.gcd.trivial_share"] = counts["euclid.gcd.trivial"] / gcd_calls if gcd_calls else 0.0
    out["elimination.exact_point_share"] = (
        traced["exact_point"] / traced["relations"] if traced["relations"] else 0.0
    )
    out["reporting.report_bytes"] = traced["report_bytes"]
    out["setup.import_aat.s"] = traced["import_s"]
    out["trace.overhead_s"] = traced["wall"] - untraced["wall"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "aat" / "cli.py").is_file():
        print(f"error: no aat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    runner = Runner(args.workload, args.seed)
    runner.warm_up()
    for label, aat_args in runner.invocations:
        print(f"input {label}: aat {' '.join(aat_args)}")
    start = time.monotonic()
    passes, layers = [], []
    while not passes or time.monotonic() - start < args.seconds:
        untraced = runner.run_pass(traced=False)
        passes.append(untraced)
        if args.trace:
            traced = runner.run_pass(traced=True)
            layers.append(per_layer(traced, untraced))
            for name, steps in traced["steps"]:
                line = ", ".join(f"{kp} {s:.3f} s" for kp, s in sorted(steps.items()))
                print(f"derive steps, {name}: {line}")
            skipped = sorted({name for trace in traced["traces"] for name in trace["skipped"]})
            if skipped:
                print(f"tracer skipped (absent in this version): {', '.join(skipped)}")

    if args.trace:
        wanted = spec["per_layer"]
        values = {m["name"]: _median([layer.get(m["name"], 0) for layer in layers]) for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = end_to_end(runner, passes)
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']}: {values[m['name']]:.6g} {m['unit']}")
    print(f"passes: {len(passes)}, invocations attempted: {runner.attempted}, failed: {runner.failed}")
    for problem in runner.problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
