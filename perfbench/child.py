"""One CLI invocation in a fresh interpreter, as the benchmark measures it.

    python3 child.py MODE STAMP RUN_ID [CLI ARGS...]

MODE is one of
  import  import agecourier.cli and exit (set-up time only);
  plain   run agecourier.cli.main(CLI ARGS) untouched;
  trace   wrap the public functions of each module first and record spans;
  check   capture every simulation result and verify it (see checks.py).

The child writes a JSON stamp to STAMP before it exits: the CLOCK_MONOTONIC
time at which agecourier.cli finished importing, the CLI's exit code, and the
spans, counters or check outcomes of its mode. stdout is left to the caller
(the CLI prints `seeds:` there even with --out).

agecourier has no __main__ module and is not installed, so the package is
imported from PYTHONPATH and main(argv) is called directly.
"""

import sys
import time

from agecourier import cli

imported = time.monotonic()


def main() -> None:
    mode, stamp_path, run_id = sys.argv[1], sys.argv[2], int(sys.argv[3])
    argv = sys.argv[4:]
    stamp = {"imported": imported}
    if mode == "import":
        import platform

        import numpy

        stamp.update(
            python=platform.python_version(), numpy=numpy.__version__, cli_file=cli.__file__
        )
        _write(stamp_path, stamp)
        return

    hooks = None
    if mode == "trace":
        import tracer

        hooks = tracer.Tracer(run_id)
    elif mode == "check":
        import checks

        hooks = checks.Checker(argv)
    elif mode != "plain":
        raise SystemExit(f"unknown mode {mode!r}")
    if hooks is not None:
        hooks.install()

    try:
        stamp["rc"] = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        stamp["rc"] = exc.code if isinstance(exc.code, int) else 2
    if hooks is not None:
        stamp.update(hooks.report())
    _write(stamp_path, stamp)
    sys.exit(stamp["rc"])


def _write(path: str, stamp: dict) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stamp, fh)


if __name__ == "__main__":
    main()
