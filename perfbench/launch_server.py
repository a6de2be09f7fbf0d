"""Start ``repro serve`` for the ``serve_mixed`` workload.

    python3 perfbench/launch_server.py --out FILE [--trace] -- serve ...

Runs the program's own CLI entry point in this process.  With
``--trace`` the server-side wrappers of :mod:`perfbench.trace` are
installed first.  When the server stops (SIGINT, as for any ``repro
serve``), the server's ``ServerStats.snapshot()`` and, when traced, its
spans are written to ``FILE`` once.
"""

from __future__ import annotations

import json
import os
import signal
import sys


def main(argv) -> int:
    # A process started from a shell's background job inherits SIGINT
    # ignored, and Python then never raises KeyboardInterrupt: the
    # server would not stop when the benchmark asks it to.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if "--" not in argv:
        print("usage: launch_server.py --out FILE [--trace] -- serve ...",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    options, serve_args = argv[:split], argv[split + 1:]
    out = options[options.index("--out") + 1]
    traced = "--trace" in options

    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    from perfbench.common import add_source_path
    add_source_path()
    from perfbench.trace import Tracer, server_plan
    from repro import cli
    from repro.server import async_server

    servers = []
    original_start = async_server.AsyncRMIServer.start

    def start(server):
        servers.append(server)
        return original_start(server)

    # Only to reach the server's stats object; no per-call cost.
    async_server.AsyncRMIServer.start = start
    tracer = Tracer()
    if traced:
        tracer.install(server_plan)
    try:
        return cli.main(serve_args)
    finally:
        tracer.uninstall()
        payload = {"stats": servers[0].stats.snapshot() if servers
                   else None,
                   "pid": os.getpid(),
                   "spans": [list(span) for span in tracer.spans]}
        with open(out, "w") as handle:
            json.dump(payload, handle, default=str)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
