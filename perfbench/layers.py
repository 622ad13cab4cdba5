"""The layer ledger: where spans go in, and the per-layer metrics out.

:func:`install` wraps the program's public functions and classes from
outside, one span name per layer boundary.  Call it before the objects
of the traced pass are built; :meth:`Tracer.uninstall` undoes it.
:func:`ledger` turns span summaries into the per-layer metrics that
``BENCHMARK.json`` lists.

Stat suffixes: ``.calls`` is a call count, ``.self_us`` the mean self
time per call in µs, ``.self_s`` the total self time in seconds.
"""

from __future__ import annotations

import importlib
import re
from typing import Any, Dict, Iterator, List, Optional, Tuple

from perfbench.tracer import Tracer

#: (metric, unit) pairs every traced run prints, in BENCHMARK.json order.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("experiments.calibrate.self_s", "s"),
    ("experiments.max_rate.self_s", "s"),
    ("fleet.make_trace.self_s", "s"),
    ("fleet.build_nodes.self_s", "s"),
    ("sim.step.calls", "count"),
    ("sim.step.self_us", "us"),
    ("workloads.advance.calls", "count"),
    ("workloads.advance.self_us", "us"),
    ("sched.place.calls", "count"),
    ("sched.place.self_us", "us"),
    ("platform.power.self_us", "us"),
    ("platform.sensor.self_us", "us"),
    ("kernel.bus.publish.calls", "count"),
    ("kernel.bus.publish.self_us", "us"),
    ("kernel.plan.calls", "count"),
    ("kernel.plan.self_us", "us"),
    ("kernel.plan.states_explored", "count"),
    ("kernel.plan.changed_ratio", "ratio"),
    ("mphars.on_heartbeat.calls", "count"),
    ("mphars.on_heartbeat.self_us", "us"),
    ("fleet.node_step.calls", "count"),
    ("fleet.node_step.self_us", "us"),
    ("fleet.route.calls", "count"),
    ("fleet.route.self_us", "us"),
    ("fleet.est_wait.calls", "count"),
    ("fleet.slo_percentile.calls", "count"),
    ("fleet.slo_percentile.self_us", "us"),
    ("acp.rpc.calls", "count"),
    ("acp.frames_per_rpc", "count"),
    ("acp.encode.self_us", "us"),
    ("acp.decode.self_us", "us"),
    ("acp.server.handle.self_us", "us"),
    ("acp.session.advance.self_us", "us"),
    ("acp.transport.wait_us", "us"),
    ("acp.retries", "count"),
    ("acp.error_frames", "count"),
    ("supervision.checkpoint_dump.calls", "count"),
    ("supervision.checkpoint_dump.self_us", "us"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
)

_SEQ = re.compile(r'"seq":(\d+)')


def _subclasses(base: type) -> Iterator[type]:
    for cls in base.__subclasses__():
        yield cls
        yield from _subclasses(cls)


def _program_overrides(base: type, attr: str) -> List[type]:
    """``base`` and its ``repro`` subclasses that define ``attr``."""
    classes = [base, *_subclasses(base)]
    return [
        cls for cls in classes
        if cls.__module__.startswith("repro.") and attr in cls.__dict__
        and not getattr(cls.__dict__[attr], "__isabstractmethod__", False)
    ]


def _request_seq(_server: Any, line: str) -> int:
    """The request id of a daemon-side line: its envelope ``seq``."""
    found = _SEQ.findall(line)
    return int(found[-1]) if found else -1


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the ledger reports."""
    # Load every module that subclasses a wrapped class or imports a
    # wrapped function by name, so the wrappers reach all of them.
    for name in (
        "repro.core.calibration", "repro.experiments.runner",
        "repro.experiments.versions", "repro.fleet.cluster",
        "repro.fleet.serving", "repro.workloads.parsec",
        "repro.workloads.extra", "repro.acp.client", "repro.acp.server",
        "repro.acp.session", "repro.acp.transport",
    ):
        importlib.import_module(name)
    from repro.acp import wire
    from repro.acp.client import AcpClient
    from repro.acp.server import AcpServer
    from repro.acp.session import AcpSession
    from repro.core import calibration
    from repro.experiments import runner
    from repro.fleet import trace as fleet_trace
    from repro.fleet.node import FleetNode
    from repro.fleet.router import Router
    from repro.fleet.slo import SloWindow
    from repro.kernel.bus import EventBus
    from repro.kernel.mape import SearchPlanner
    from repro.mphars.manager import MpHarsManager
    from repro.platform.power import PowerModel
    from repro.platform.sensor import PowerSensor
    from repro.sched.base import Scheduler
    from repro.sim.engine import Simulation
    from repro.supervision.checkpoint import CheckpointStore
    from repro.workloads.base import WorkloadModel

    def plan_outcome(result, _planner, _knowledge, ctx) -> None:
        tracer.add("kernel.plan.states_explored", result.states_explored)
        if result.state != ctx.current:
            tracer.add("kernel.plan.changed")

    def rpc_outcome(frames, *_args, **_kwargs) -> None:
        tracer.add("acp.frames", len(frames))

    def decoded(frame, *_args) -> None:
        if frame.type == "error":
            tracer.add("acp.error_frames")

    tracer.wrap_function(calibration, "calibrate", "experiments.calibrate")
    tracer.wrap_function(runner, "measure_max_rate", "experiments.max_rate")
    tracer.wrap_function(fleet_trace, "make_trace", "fleet.make_trace")
    tracer.wrap_method(FleetNode, "__init__", "fleet.build_nodes")
    tracer.wrap_method(Simulation, "step", "sim.step")
    for cls in _program_overrides(WorkloadModel, "advance"):
        tracer.wrap_method(cls, "advance", "workloads.advance")
    for cls in _program_overrides(Scheduler, "place"):
        tracer.wrap_method(cls, "place", "sched.place")
    tracer.wrap_method(PowerModel, "platform_power_arrays", "platform.power")
    tracer.wrap_method(PowerSensor, "record", "platform.sensor")
    tracer.wrap_method(EventBus, "publish", "kernel.bus.publish")
    tracer.wrap_method(SearchPlanner, "plan", "kernel.plan",
                       after=plan_outcome)
    tracer.wrap_method(MpHarsManager, "on_heartbeat", "mphars.on_heartbeat")
    tracer.wrap_method(FleetNode, "step", "fleet.node_step")
    for cls in _program_overrides(Router, "route"):
        tracer.wrap_method(cls, "route", "fleet.route")
    tracer.wrap_method(FleetNode, "est_wait_s", "fleet.est_wait")
    tracer.wrap_method(SloWindow, "percentile", "fleet.slo_percentile")
    tracer.wrap_method(AcpClient, "_rpc", "acp.rpc", after=rpc_outcome)
    tracer.wrap_function(wire, "encode_frame", "acp.encode",
                         rid_of=lambda frame: frame.seq)
    tracer.wrap_function(wire, "decode_frame", "acp.decode", after=decoded)
    tracer.wrap_method(AcpServer, "handle_line", "acp.server.handle",
                       rid_of=_request_seq)
    tracer.wrap_method(AcpSession, "advance", "acp.session.advance")
    tracer.wrap_method(CheckpointStore, "dump", "supervision.checkpoint_dump")


def transport_waits_us(client: Tracer, daemon: Tracer) -> List[float]:
    """Per RPC: client-observed time minus the daemon's handling time.

    The client's own encode/decode is taken out too (the RPC span's self
    time excludes its child spans), so what remains is the socket, the
    daemon's connection thread and the waits between them.  A client RPC
    span's request id is the seq of the request frame it encoded (its
    first ``acp.encode`` child); the daemon's handle span carries the
    same seq.
    """
    rpc_id = client.name_index("acp.rpc")
    encode_id = client.name_index("acp.encode")
    seq_of_rpc: Dict[int, int] = {}
    for index, name_id in enumerate(client.name_id):
        parent = client.parent[index]
        if (name_id == encode_id and parent != -1
                and client.name_id[parent] == rpc_id
                and parent not in seq_of_rpc):
            seq_of_rpc[parent] = client.rid[index]
    handled: Dict[int, int] = {}
    for index in daemon.spans_named("acp.server.handle"):
        handled[daemon.rid[index]] = (
            daemon.end[index] - daemon.start[index]
        )
    own = client.self_times_ns()
    return [
        (own[rpc] - handled[seq]) / 1e3
        for rpc, seq in seq_of_rpc.items() if seq in handled
    ]


def ledger(
    summary: Dict[str, Dict[str, float]],
    counts: Dict[str, float],
    retries: int,
    waits_us: Optional[List[float]] = None,
) -> Dict[str, float]:
    """Per-layer metric values from merged span summaries and counters."""
    def row(name: str) -> Dict[str, float]:
        return summary.get(name, {"calls": 0, "self_ns": 0, "total_ns": 0})

    out: Dict[str, float] = {}
    for metric, _unit in LAYER_METRICS:
        stem, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = row(stem)["calls"]
        elif stat == "self_us":
            calls = row(stem)["calls"]
            out[metric] = row(stem)["self_ns"] / calls / 1e3 if calls else 0.0
        elif stat == "self_s":
            out[metric] = row(stem)["self_ns"] / 1e9
    plans = row("kernel.plan")["calls"]
    out["kernel.plan.states_explored"] = (
        counts.get("kernel.plan.states_explored", 0) / plans if plans else 0.0
    )
    out["kernel.plan.changed_ratio"] = (
        counts.get("kernel.plan.changed", 0) / plans if plans else 0.0
    )
    rpcs = row("acp.rpc")["calls"]
    out["acp.frames_per_rpc"] = (
        counts.get("acp.frames", 0) / rpcs if rpcs else 0.0
    )
    out["acp.transport.wait_us"] = (
        sum(waits_us) / len(waits_us) if waits_us else 0.0
    )
    out["acp.retries"] = retries
    out["acp.error_frames"] = counts.get("acp.error_frames", 0)
    return out
