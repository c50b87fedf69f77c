"""Run one raidlab CLI command with the tracer installed.

    python3 perfbench/cli_shim.py SPANS_FILE CLI_ARGS...

Times the fresh ``import raidlab.cli``, installs the tracer, runs
``raidlab.cli.main(CLI_ARGS)``, writes the spans to SPANS_FILE and exits
with the command's exit code.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    t0 = time.perf_counter()
    import raidlab.cli
    import_s = time.perf_counter() - t0
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    tracer.op_id = 0
    try:
        code = raidlab.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(out, extra={"import_s": import_s})
    return code


if __name__ == "__main__":
    sys.exit(main())
