"""The ledger's cross-process join and its metric arithmetic."""

import pytest

from perfbench.layers import LAYER_METRICS, ledger, transport_waits_us
from perfbench.tracer import Tracer


def test_transport_wait_joins_client_and_daemon_by_seq():
    client, daemon = Tracer(), Tracer()
    # Two RPCs (seq 5 and 6), each: encode, wait on the daemon, decode.
    for seq, base in ((5, 0), (6, 2000)):
        rpc = client.record("acp.rpc", base, base + 1000)
        client.record("acp.encode", base + 10, base + 20, parent=rpc,
                      rid=seq)
        client.record("acp.decode", base + 900, base + 950, parent=rpc)
    daemon.record("acp.server.handle", 100, 700, rid=5)
    daemon.record("acp.server.handle", 2100, 2500, rid=6)
    # RPC self time (1000 - 10 - 50) minus the daemon's handling.
    assert transport_waits_us(client, daemon) == [0.34, 0.54]


def test_ledger_prints_every_metric_and_averages_per_call():
    summary = {
        "sim.step": {"calls": 4, "self_ns": 8_000, "total_ns": 20_000},
        "kernel.plan": {"calls": 2, "self_ns": 0, "total_ns": 0},
        "experiments.calibrate": {"calls": 1, "self_ns": 5e8,
                                  "total_ns": 5e8},
    }
    counts = {"kernel.plan.states_explored": 30, "kernel.plan.changed": 1}
    values = ledger(summary, counts, retries=0, waits_us=[2.0, 4.0])
    assert set(values) >= {name for name, _ in LAYER_METRICS
                           if not name.startswith("trace.")}
    assert values["sim.step.calls"] == 4
    assert values["sim.step.self_us"] == pytest.approx(2.0)
    assert values["experiments.calibrate.self_s"] == pytest.approx(0.5)
    assert values["kernel.plan.states_explored"] == 15
    assert values["kernel.plan.changed_ratio"] == 0.5
    assert values["acp.transport.wait_us"] == 3.0
    assert values["fleet.route.calls"] == 0
    assert values["fleet.route.self_us"] == 0.0
