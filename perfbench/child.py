"""Run one nclat CLI operation in a fresh interpreter and report on it.

Usage: python3 child.py RESULT_FILE TRACE -- ARGV...

The program's stdout goes where this process's stdout goes.  RESULT_FILE
receives a JSON object: where nclat was imported from, when `import
nclat.cli` finished (time.monotonic, so the parent can subtract its spawn
time), the time nclat.cli.main(ARGV) took, whether the deadline cut it and,
with TRACE=1, the layer spans and counts.  The exit code is main's.
"""

import sys
import time

import nclat.cli

READY = time.monotonic()

import json  # noqa: E402  (after the set-up measurement on purpose)
import os  # noqa: E402
import signal  # noqa: E402
import traceback  # noqa: E402


class Deadline(BaseException):
    """Raised in the main thread when the parent signals the deadline."""


def _on_term(signum, frame):
    raise Deadline()


def main():
    result_file, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[4:]
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    signal.signal(signal.SIGTERM, _on_term)
    timed_out = False
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            rc = tracer.run_root(nclat.cli.main, argv)
        else:
            rc = nclat.cli.main(argv)
    except Deadline:
        rc, timed_out = None, True
    except Exception:
        # what the interpreter does with an uncaught exception
        traceback.print_exc()
        rc = 1
    finally:
        sys.stdout.flush()
    op_s = time.perf_counter() - t0
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    report = {
        "pkg": os.path.dirname(nclat.cli.__file__),
        "ready": READY,
        "op_s": op_s,
        "timed_out": timed_out,
    }
    if tracer is not None:
        report["spans"] = tracer.spans
        report["counts"] = dict(tracer.counts)
    with open(result_file, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0 if rc is None else rc


if __name__ == "__main__":
    sys.exit(main())
