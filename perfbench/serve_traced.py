"""``repro serve`` with the benchmark's layer spans wrapped around it.

Usage: ``python3 perfbench/serve_traced.py serve [serve flags...]``

Wraps the public calls into the serving layers (wire decode, gateway
core, rings, front end, sessions, engine, reassembly, worker pool), then
runs the unchanged CLI.  When the CLI returns, the per-layer ledger is
written to standard error as one line, ``PERFBENCH_TRACE {json}``.

Pool workers are forked with the wrappers in place; what they record
stays in the workers, so worker-side compute is not in the ledger.
"""

import json
import sys

from harness import SRC, LayerTracer, wrap_gateway_layers


def main(argv):
    sys.path.insert(0, str(SRC))
    tracer = LayerTracer()
    wrap_gateway_layers(tracer)
    from repro.__main__ import main as cli

    try:
        return cli(argv)
    finally:
        tracer.restore()
        print(
            "PERFBENCH_TRACE " + json.dumps(tracer.report()),
            file=sys.stderr,
            flush=True,
        )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
