"""Traced stand-in for ``python -m rankshape.cli`` in the cli-batch workload.

    python3 perfbench/launcher.py SPANS_OUT OP_ID SUBCOMMAND [ARGS...]

Wraps rankshape's functions at their import sites, runs ``cli.main`` on the
remaining arguments inside a ``cli.main`` span, writes the spans to
SPANS_OUT and exits with the CLI's exit code.
"""

import sys

import spans
from rankshape import cli

if __name__ == "__main__":
    tracer = spans.Tracer()
    tracer.op = int(sys.argv[2])
    tracer.install()
    try:
        code = tracer.span("cli.main", cli.main, sys.argv[3:])
    finally:
        spans.dump(sys.argv[1], tracer.spans)
    sys.exit(code)
