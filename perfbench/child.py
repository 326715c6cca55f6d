"""One `aat` invocation as the benchmark runs it.

    python3 child.py STAMP_FILE [--trace TRACE_FILE] -- AAT_ARGS...

Runs the `aat` command line in this interpreter, like the installed `aat`
script does (with no AAT_ARGS it only imports, as a set-up probe), and writes to STAMP_FILE the CLOCK_MONOTONIC time at which
`aat.cli` had been imported and how long that import took.  With --trace,
the functions listed in tracer.TARGETS are timed and the aggregates are
written to TRACE_FILE.  The exit status is the command's.
"""

import time

_STARTED = time.monotonic()
import aat.cli  # noqa: E402  (the import is what the stamp measures)

_IMPORTED = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    args = sys.argv[1:]
    split = args.index("--")
    own, aat_args = args[:split], args[split + 1 :]
    stamp_path, trace_path = own[0], None
    if own[1:2] == ["--trace"]:
        trace_path = own[2]
    tracer = None
    if trace_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        code = aat.cli.run(aat_args) if aat_args else 0
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        with open(stamp_path, "w", encoding="utf-8") as fh:
            json.dump({"imported_at": _IMPORTED, "import_s": _IMPORTED - _STARTED}, fh)
        if tracer is not None:
            with open(trace_path, "w", encoding="utf-8") as fh:
                json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
