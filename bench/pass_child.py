"""One benchmark pass in a fresh interpreter.

Protocol on stdin/stdout, one JSON line each way:

1. import ``renzeta.cli`` and print ``{"ready": ...}`` (the parent times
   process start to this line as set-up);
2. read ``{"items": [argv, ...], "trace": bool}``;
3. run every item through ``renzeta.cli.main`` with stdout and stderr
   captured, and print one result line: per-item seconds, exit codes and
   captured output, the pass wall time, peak RSS and, when traced, the
   tracer's counters.

Run it from the repository root with ``PYTHONPATH=src``.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import renzeta
import renzeta.cli

_OUT = sys.stdout


def _send(obj) -> None:
    _OUT.write(json.dumps(obj) + "\n")
    _OUT.flush()


def _run_item(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = renzeta.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an item that crashes is a failed item
            code = "exception"
            traceback.print_exc(file=err)
    seconds = time.perf_counter() - start
    return [seconds, code, out.getvalue(), err.getvalue()[-2000:]]


def main() -> int:
    _send({"ready": True, "package": os.path.realpath(renzeta.__file__)})
    request = json.loads(sys.stdin.readline())
    tracer = None
    if request["trace"]:
        import trace_layers

        tracer = trace_layers.Tracer()
        tracer.install()
    start = time.perf_counter()
    results = [_run_item(argv) for argv in request["items"]]
    wall = time.perf_counter() - start
    reply = {
        "wall_s": wall,
        "items": results,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        reply["trace"] = tracer.report()
    _send(reply)
    return 0


if __name__ == "__main__":
    sys.exit(main())
