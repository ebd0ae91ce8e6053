"""Run one ``vone`` CLI request with the layer entry points wrapped.

Usage: python3 perfbench/clitrace.py <vone arguments...>

Behaves like ``python3 -m vone.cli`` (same stdout and exit code) and writes
one extra line to stderr: ``PERFBENCH-TRACE {json}`` with the span totals of
the request and the time ``import vone.cli`` took.
"""

from __future__ import annotations

import json
import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    import vone.cli

    import_ms = (time.perf_counter() - start) * 1000.0
    from tracing import TRACE_MARK, Tracer

    tracer = Tracer()
    tracer.install()
    tracer.counters["cli.import_ms"] = import_ms
    code = vone.cli.run(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.write(TRACE_MARK + json.dumps(tracer.snapshot()) + "\n")
    sys.exit(code)
