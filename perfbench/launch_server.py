"""Start ``repro serve`` with the benchmark's span wrappers when tracing is on.

``python3 -m perfbench.launch_server serve --port 0 --state-dir DIR`` is
``python -m repro serve ...`` plus, when ``PERFBENCH_TRACE_DIR`` is set, the
wrappers of :mod:`perfbench.spans`, installed before the server starts.
"""

from __future__ import annotations

import sys

from perfbench import spans


def main() -> int:
    tracer = spans.maybe_install()
    if tracer is not None:
        tracer.set_context("server")
    from repro.cli import main as repro_main

    return repro_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
