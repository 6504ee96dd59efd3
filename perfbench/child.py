"""Traced stand-in for the `amoebadim` command.

    python3 perfbench/child.py TRACE_FILE ARG...

runs `amoebadim ARG...` with the tracer installed and writes the trace
summary to TRACE_FILE as JSON.  The exit code is the command's.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from amoebadim import cli

    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.uninstall()
        with open(trace_file, "w") as out:
            json.dump(tracer.summary(), out)


if __name__ == "__main__":
    sys.exit(main())
