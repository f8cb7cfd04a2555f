"""Traced stand-in for ``python -m repro.cli.main``.

    python trace_cli.py <spans.json> run <spec> [scfi run flags...]

Records spans around the import of ``repro.cli.main`` and the layers the CLI
calls (see :func:`layers.instrument`), runs ``repro.cli.main.main`` on the
remaining arguments, and writes ``{"t0", "t1", "spans"}`` to ``spans.json``
on exit (``t0``/``t1``: first and last timestamp of this process).
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import Tracer  # noqa: E402

tracer = Tracer()
tracer.add("trace.bootstrap", T0, time.perf_counter(), None)
code = 1
try:
    with tracer.span("cli.import"):
        import repro.cli.main as cli
    with tracer.span("trace.instrument"):
        from layers import instrument

        instrument(tracer)
    with tracer.span("cli.main"):
        code = cli.main(sys.argv[2:])
finally:
    T1 = time.perf_counter()
    with open(sys.argv[1], "w") as handle:
        json.dump({"t0": T0, "t1": T1, "spans": tracer.spans}, handle)
sys.exit(code)
