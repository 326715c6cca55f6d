"""Write the seed-42 reports of every `problems/*.aat` and of `aat catalog`,
and the reports of the benchmark's pool draws.

    PYTHONPATH=src python tests/dump_reports.py OUTDIR
    python tests/dump_reports.py --compare OUTDIR_A OUTDIR_B [--show PATH]

Runs `aat all` on each bundled problem and `aat catalog`, in this process and
without `--timings`, and writes `OUTDIR/<problem>.report.json` and
`OUTDIR/catalog.report.json`.  Then, for every workload of
`perfbench/workloads.py` and every draw of its pool, it writes the draw's
inputs to `OUTDIR/pool/<workload>-<draw>/input<i>.aat` and runs the draw's
invocations from OUTDIR, so each report echoes the same relative input path
in any checkout; the reports go next to the inputs.  The exit codes go to
`OUTDIR/exit_codes.json`.  Reports carry no timings, so two checkouts that
should agree are compared with one `diff -r` of their OUTDIRs.

`--compare` summarises how two OUTDIRs differ: the reports whose exit code
changed, the relations that changed, the verdicts whose pass value changed
(or that one side lacks), and a count of differing values per report-key
path.  In a path, a (k, p) key such as `1_2` reads `*`, and a verdict or
residual reads by its id without the object index (`residual H_`).  With
`--show PATH` it then prints both sides' values at every difference under
one such path (`--show 'trace/*/notes'`).  It exits 1 when an exit code, a
relation or a verdict's pass value changed, and 0 otherwise.  Not a test:
pytest collects only `test_*.py`.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))

import workloads  # noqa: E402  (perfbench/ is not a package)


def _run(args, outdir: Path, name: str, codes: dict) -> None:
    from aat.cli import run  # imported here: `--compare` needs no `aat`

    with contextlib.redirect_stdout(io.StringIO()):
        codes[name] = run([*args, "-o", str(outdir / name)])
    print(f"{name}: exit {codes[name]}")


_ABSENT = "<absent>"


def _sections(report) -> list:
    """(label, section) of a bundled-problem or catalog report."""
    if "problem" in report:
        return [("", report["problem"])]
    return [(f" #{i} {s.get('spec_echo', {}).get('family', '')}", s) for i, s in enumerate(report.get("catalog", []))]


def _leaves(obj, path=()):
    """(path, value) of every leaf; a list of verdicts or residuals is keyed by id."""
    if isinstance(obj, list) and obj and all(isinstance(e, dict) and ("id" in e or "relation" in e) for e in obj):
        obj = {e.get("id", e.get("relation")): e for e in obj}
    if isinstance(obj, dict) and obj:
        for key, value in obj.items():
            yield from _leaves(value, (*path, str(key)))
    else:
        yield path, obj


def _general(path) -> str:
    parts = ["*" if re.fullmatch(r"\d+_\d+", p) else p for p in path]
    if len(parts) > 1 and parts[0] in ("verdicts", "residuals"):
        parts[1] = re.sub(r"(?<=[A-Za-z_])\d+$", "", parts[1])
    return "/".join(parts)


def compare(a: Path, b: Path, show: str | None = None) -> bool:
    """Print how two OUTDIRs differ; whether an exit code, a relation or a
    verdict's pass value changed."""
    codes = [json.loads((d / "exit_codes.json").read_text()) for d in (a, b)]
    exits = [
        f"  {name}: {codes[0].get(name, _ABSENT)} -> {codes[1].get(name, _ABSENT)}"
        for name in sorted(set(codes[0]) | set(codes[1]))
        if codes[0].get(name) != codes[1].get(name)
    ]
    relations, verdicts, shown, paths = [], [], [], collections.Counter()
    names = sorted({str(p.relative_to(d)) for d in (a, b) for p in d.rglob("*.report.json")})
    for name in names:
        reports = [json.loads((d / name).read_text()) if (d / name).exists() else {} for d in (a, b)]
        old, new = (dict(_sections(r)) for r in reports)
        for label in sorted(set(old) | set(new)):
            leaves = [dict(_leaves(side[label])) if label in side else {} for side in (old, new)]
            for path in sorted(set(leaves[0]) | set(leaves[1])):
                x, y = (side.get(path, _ABSENT) for side in leaves)
                if x == y:
                    continue
                paths[_general(path)] += 1
                if _general(path) == show:
                    shown.append(f"  {name}{label} {'/'.join(path)}:\n    - {x}\n    + {y}")
                if path[0] == "relations" and path[-1] == "poly":
                    relations.append(f"  {name}{label} {path[1]}: {x} -> {y}")
                if path[0] == "verdicts" and path[-1] == "pass":
                    verdicts.append(f"  {name}{label} {path[1]!r}: {x} -> {y}")
    for title, lines in (("exit codes changed:", exits), ("relations changed:", relations), ("verdicts changed:", verdicts)):
        print(title)
        print("\n".join(lines) if lines else "  none")
    print("differing values per report-key path:")
    for path, count in sorted(paths.items(), key=lambda item: (-item[1], item[0])):
        print(f"  {count:5d}  {path}")
    if show is not None:
        print(f"values at {show}:")
        print("\n".join(shown) if shown else "  none")
    return bool(exits or relations or verdicts)


def main(argv) -> int:
    if len(argv) in (3, 5) and argv[0] == "--compare" and argv[3:4] in ([], ["--show"]):
        return int(compare(Path(argv[1]), Path(argv[2]), argv[4] if len(argv) == 5 else None))
    if len(argv) != 1:
        usage = "usage: python tests/dump_reports.py OUTDIR | --compare OUTDIR_A OUTDIR_B [--show PATH]"
        print(usage, file=sys.stderr)
        return 2
    outdir = Path(argv[0]).resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    # reports echo the problem path; a relative one reads the same in any checkout
    os.chdir(REPO)
    codes: dict = {}
    for p in sorted((REPO / "problems").glob("*.aat")):
        _run(["all", f"problems/{p.name}", "--seed", "42"], outdir, f"{p.stem}.report.json", codes)
    _run(["catalog", "--seed", "42"], outdir, "catalog.report.json", codes)
    os.chdir(outdir)
    for workload in workloads.WORKLOADS:
        for seed in range(workloads.POOL):
            inputs = Path("pool") / f"{workload}-{seed}"
            inputs.mkdir(parents=True, exist_ok=True)
            for i, (_, args) in enumerate(workloads.draw(workload, seed, inputs)):
                _run(args, outdir, f"{inputs}/run{i}.report.json", codes)
    (outdir / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
