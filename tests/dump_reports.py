"""Write the seed-42 reports of every `problems/*.aat` and of `aat catalog`.

    PYTHONPATH=src python tests/dump_reports.py OUTDIR

Runs `aat all` on each bundled problem and `aat catalog`, in this process and
without `--timings`, and writes `OUTDIR/<problem>.report.json` and
`OUTDIR/catalog.report.json`.  Reports carry no timings, so two checkouts
that should agree are compared with one `diff -r` of their OUTDIRs.  Not a
test: pytest collects only `test_*.py`.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

from aat.cli import run

REPO = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python tests/dump_reports.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(argv[0]).resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    # reports echo the problem path; a relative one reads the same in any checkout
    os.chdir(REPO)
    jobs = [(["all", f"problems/{p.name}"], p.stem) for p in sorted((REPO / "problems").glob("*.aat"))]
    jobs.append((["catalog"], "catalog"))
    for args, name in jobs:
        out = outdir / f"{name}.report.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = run([*args, "-o", str(out), "--seed", "42"])
        print(f"{name}: exit {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
