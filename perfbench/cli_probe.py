"""Traced stand-in for ``python -m qsts``: same arguments, stdout and exit code.

Times ``import qsts.cli`` in this fresh interpreter, runs ``qsts.cli.main``
under the span tracer and appends the trace summary to stderr as one line
starting with ``PERFBENCH_TRACE``.  The benchmark's traced ``cli`` run uses
it; the untraced run calls ``python -m qsts`` itself.
"""

import json
import sys

from spans import TRACE_MARKER, Tracer, install


def main(argv: list[str]) -> int:
    tracer = Tracer()
    start = tracer.begin()
    import qsts.cli
    tracer.end("cli.import", start)
    try:
        with install(tracer):
            start = tracer.begin()
            try:
                return qsts.cli.main(argv)
            finally:
                tracer.end("cli.main", start)
    finally:
        sys.stdout.flush()
        sys.stderr.write("\n" + TRACE_MARKER + json.dumps(tracer.payload()) + "\n")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
