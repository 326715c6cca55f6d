"""Command-line driver.

    aat derive  problem.aat [-o report.json] [--tol T] [--samples N] [--seed S]
    aat variety problem.aat ...
    aat resolve problem.aat ...
    aat verify  problem.aat ...
    aat period  problem.aat ...
    aat all     problem.aat ...
    aat catalog [-o report.json] [--seed S]

Exit status: 0 when every verdict passes, 1 on any failed verdict or stage
error, 2 for unusable input.  The JSON report is always written, also on
failure.  Reports are byte-identical across reruns with the same seed;
`--timings` adds wall-clock numbers at the cost of that guarantee.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .pipeline import run_catalog, run_problem
from .problem import ProblemError, load_problem
from .reporting import emit_report
from .rings import AlgebraError

_COMMANDS = ("derive", "variety", "resolve", "verify", "period", "catalog", "all")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aat",
        description="Derive, resolve and numerically verify algebraic addition theorems.",
    )
    parser.add_argument("--version", action="version", version=f"aat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} stage" if name != "all" else "run every stage")
        if name != "catalog":
            p.add_argument("problem", help="problem definition file")
        p.add_argument("-o", "--output", help="report path (default: derived from the input)")
        p.add_argument("--tol", type=float, help="residual tolerance override")
        p.add_argument("--samples", type=int, help="sample count override")
        p.add_argument("--seed", type=int, help="random seed override")
        p.add_argument(
            "--mode",
            choices=("exact-point", "numeric-reconstruct"),
            help="specialization mode override",
        )
        p.add_argument("--timings", action="store_true", help="include wall-clock timings in the report")
    return parser


def _default_output(args) -> Path:
    if args.output:
        return Path(args.output)
    if args.command == "catalog":
        return Path("catalog.report.json")
    return Path(args.problem).with_suffix(".report.json")


def _apply_overrides(spec, args) -> None:
    if args.tol is not None:
        spec.options.tol = args.tol
    if args.samples is not None:
        spec.options.samples = args.samples
    if args.seed is not None:
        spec.options.seed = args.seed
    if args.mode is not None:
        spec.options.mode = args.mode


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_path = _default_output(args)
    report = {"tool": "aat", "version": __version__, "command": args.command}
    if args.command == "catalog":
        seed = args.seed if args.seed is not None else 42
        result = run_catalog(seed=seed, timings=args.timings)
        report.update(result)
        emit_report(report, out_path)
        for section in result["catalog"]:
            status = "pass" if section["ok"] else "FAIL"
            passed = sum(1 for v in section["verdicts"] if v["pass"])
            skipped = f", {len(section['skipped'])} skipped" if section.get("skipped") else ""
            print(f"[{status}] {section['source']}: {passed}/{len(section['verdicts'])} verdicts{skipped}")
        print(f"report: {out_path}")
        return 0 if result["ok"] else 1
    try:
        spec = load_problem(args.problem)
    except FileNotFoundError as err:
        report["failure"] = {"stage": "load", "error": "FileNotFoundError", "message": str(err)}
        report["ok"] = False
        emit_report(report, out_path)
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ProblemError, AlgebraError) as err:
        report["failure"] = {"stage": "load", "error": type(err).__name__, "message": str(err)}
        report["ok"] = False
        emit_report(report, out_path)
        print(f"error: {err}", file=sys.stderr)
        return 2
    _apply_overrides(spec, args)
    report["seed"] = spec.options.seed
    try:
        section = run_problem(spec, [args.command], timings=args.timings)
    except ProblemError as err:
        report["failure"] = {"stage": "run", "error": type(err).__name__, "message": str(err)}
        report["ok"] = False
        emit_report(report, out_path)
        print(f"error: {err}", file=sys.stderr)
        return 2
    report["problem"] = section
    report["ok"] = section["ok"]
    emit_report(report, out_path)
    for verdict in section["verdicts"]:
        mark = "pass" if verdict["pass"] else "FAIL"
        print(f"[{mark}] {verdict['id']}: {verdict['detail']}")
    for skipped in section.get("skipped", []):
        print(f"[skip] {skipped['id']}: {skipped['reason']}")
    print(f"report: {out_path}")
    return 0 if section["ok"] else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
