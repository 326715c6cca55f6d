"""Write the seed-42 reports of every `problems/*.aat` and of `aat catalog`,
and the reports of the benchmark's pool draws.

    PYTHONPATH=src python tests/dump_reports.py OUTDIR

Runs `aat all` on each bundled problem and `aat catalog`, in this process and
without `--timings`, and writes `OUTDIR/<problem>.report.json` and
`OUTDIR/catalog.report.json`.  Then, for every workload of
`perfbench/workloads.py` and every draw of its pool, it writes the draw's
inputs to `OUTDIR/pool/<workload>-<draw>/input<i>.aat` and runs the draw's
invocations from OUTDIR, so each report echoes the same relative input path
in any checkout; the reports go next to the inputs.  Reports carry no
timings, so two checkouts that should agree are compared with one `diff -r`
of their OUTDIRs.  Not a test: pytest collects only `test_*.py`.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

from aat.cli import run

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))

import workloads  # noqa: E402  (perfbench/ is not a package)


def _run(args, outdir: Path, name: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = run([*args, "-o", str(outdir / name)])
    print(f"{name}: exit {code}")


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python tests/dump_reports.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(argv[0]).resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    # reports echo the problem path; a relative one reads the same in any checkout
    os.chdir(REPO)
    for p in sorted((REPO / "problems").glob("*.aat")):
        _run(["all", f"problems/{p.name}", "--seed", "42"], outdir, f"{p.stem}.report.json")
    _run(["catalog", "--seed", "42"], outdir, "catalog.report.json")
    os.chdir(outdir)
    for workload in workloads.WORKLOADS:
        for seed in range(workloads.POOL):
            inputs = Path("pool") / f"{workload}-{seed}"
            inputs.mkdir(parents=True, exist_ok=True)
            for i, (_, args) in enumerate(workloads.draw(workload, seed, inputs)):
                _run(args, outdir, f"{inputs}/run{i}.report.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
