"""The bfree CLI with the benchmark's tracer installed.

Used in place of ``python -m bfree.cli`` by traced runs of the ``cli``
workload only, so that per-layer spans of a CLI process are recorded from
the benchmark's files.  The span summary goes to the JSON file named by
``PERFBENCH_TRACE_OUT``; stdout, stderr and the exit code are the CLI's own.
"""

import json
import os
import sys

import tracer


def main():
    import bfree.cli

    spans = tracer.Tracer()
    spans.install()
    try:
        code = bfree.cli.main(sys.argv[1:])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    finally:
        spans.uninstall()
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w") as fh:
            json.dump(spans.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
