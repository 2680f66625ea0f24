"""Run one varexp command with span tracing.

    PERFBENCH_SPANS=<file> python3 perfbench/traced_cli.py <varexp arguments>

Behaves as ``python3 -m varexp <arguments>`` and, on exit, writes the
process's spans as JSON to the file named by PERFBENCH_SPANS.
"""

import os
import sys

import tracing

if __name__ == "__main__":
    tracer = tracing.install()
    from varexp.cli import main

    try:
        code = main(sys.argv[1:])
    finally:
        tracer.dump(os.environ["PERFBENCH_SPANS"])
    sys.exit(code)
