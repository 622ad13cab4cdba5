"""Benchmark-owned ACP daemon launcher.

Serves an :class:`~repro.acp.transport.AcpDaemon` on a Unix socket, the
same object ``hars-repro serve`` runs.  With ``--spans`` it first installs
the layer wrappers (:func:`perfbench.layers.install`), so the daemon side
of a traced session is recorded too.  It prints ``ready`` once listening,
serves until SIGTERM or SIGINT, then writes its report (peak RSS) and,
if traced, its spans::

    PYTHONPATH=src:. python3 perfbench/daemon.py --socket S \\
        --state-dir D --report R.json [--spans S.spans]
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import threading


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--state-dir", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())

    tracer = None
    if args.spans:
        from perfbench import layers
        from perfbench.tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
    from repro.acp.transport import AcpDaemon

    daemon = AcpDaemon(socket_path=args.socket, state_dir=args.state_dir)
    daemon.start()
    try:
        print("ready", flush=True)
        while not stop.wait(0.5):
            pass
    finally:
        daemon.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.report, "w") as out:
        json.dump({"peak_rss_mb": peak_rss_mb}, out)
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.spans)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
