"""The three benchmark workloads, driven only through public entry points.

Each workload runs the same seeded work ``k`` times in one process after
a warm-up repeat, cuts every timed repeat into deterministic segments
from outside, and reports metrics computed from the per-segment minima
(:mod:`perfbench.estimator`).  Correctness gates compare every repeat
bit for bit with a reference; a mismatch counts as a failed operation.

* ``board-mp`` — MP-HARS-E over bodytrack + fluidanimate on one
  simulated ODROID-XU3, in process (``prepare_multi`` + ``Simulation.run``).
* ``fleet-dr`` — a 20-node deadline-risk fleet (``FleetCluster``).
* ``acp-session`` — one closed-loop ``AcpClient`` against a daemon
  subprocess (``perfbench/daemon.py``) on a Unix socket.

A traced run (``trace=True``) instead times one untraced and one traced
pass after the warm-up and reports the layer ledger
(:mod:`perfbench.layers`).
"""

from __future__ import annotations

import gc
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

from perfbench import layers
from perfbench.estimator import latency_summary, percentile, segment_minima
from perfbench.tracer import Tracer, merge_summaries

clock = time.perf_counter

#: Nominal host seconds of one timed repeat, per workload and size; the
#: repeat count is ``--seconds`` divided by it (at least 2), so a given
#: ``--seconds`` always runs the same k.
REPEAT_S = {
    "board-mp": {"full": 4.0, "tiny": 0.5},
    "fleet-dr": {"full": 2.0, "tiny": 0.5},
    "acp-session": {"full": 4.8, "tiny": 0.5},
}

#: Board-mp sets up cold (caches cleared) on this many of its timed
#: repeats, spread over the run; the others reuse the memoized
#: calibration and max rates, which leaves the simulated work unchanged.
#: A cold fleet-dr set-up costs a tenth as much, so every fleet-dr
#: repeat sets up cold; every acp-session repeat starts its own daemon.
BOARD_COLD_SETUPS = 3

Metrics = Dict[str, Tuple[float, str]]


@dataclass
class Outcome:
    """What one benchmark run reports."""

    metrics: Metrics
    attempted: int
    failed: int
    gates: Dict[str, bool]
    diagnostics: Dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return all(self.gates.values()) and self.failed == 0


def repeats_for(workload: str, size: str, seconds: float) -> int:
    return max(2, int(seconds // REPEAT_S[workload][size]))


def cold_repeats(k: int, n: int) -> set:
    """Indices of ``n`` of ``k`` repeats, evenly spread: the cold ones."""
    n = min(k, n)
    return {round(i * (k - 1) / max(1, n - 1)) for i in range(n)}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cold_caches() -> None:
    """Forget memoized calibration and max rates: set-up pays them again."""
    from repro.core.calibration import clear_cache
    from repro.experiments.runner import clear_max_rate_cache

    clear_cache()
    clear_max_rate_cache()


def _host_metrics(
    repeats: Sequence[Sequence[float]],
    setups: Sequence[float],
    node_ticks: int,
    requests: int,
) -> Tuple[Metrics, Dict[str, Any]]:
    """Host-time metrics from the per-segment minima of timed repeats."""
    minima = segment_minima(repeats)
    host_s = sum(minima)
    p50, tail, tail_p = latency_summary([m * 1e3 for m in minima])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "node_ticks_per_s": (node_ticks / host_s, "ticks/s"),
        "requests_per_s": (requests / host_s, "req/s"),
        "step_p50_ms": (p50, "ms"),
        "step_tail_ms": (tail, "ms"),
    }
    diagnostics = {
        "host_s": host_s,
        "host_s_per_repeat": [sum(r) for r in repeats],
        "setup_s_samples": list(setups),
        "steps": len(minima),
        "step_tail_percentile": tail_p,
    }
    return metrics, diagnostics


def _result(
    metrics: Metrics,
    gates: Dict[str, bool],
    attempted: int,
    failed: int,
    diagnostics: Dict[str, Any],
) -> Outcome:
    """Gate mismatches count as failed operations."""
    mismatches = sum(not ok for ok in gates.values())
    diagnostics["fail_ratio"] = (failed + mismatches) / (
        attempted + len(gates)
    )
    return Outcome(
        metrics, attempted + len(gates), failed + mismatches, gates,
        diagnostics,
    )


# -- board runs (board-mp, and the acp-session's shapes) ----------------------

def board_shapes(seed: int, size: str):
    """The two apps: native input sizes, or 20 units each when tiny."""
    from repro.experiments.runner import RunShape

    units = None if size == "full" else 20
    return [
        RunShape("bodytrack", n_units=units, seed=seed),
        RunShape("fluidanimate", n_units=units, seed=seed),
    ]


def _heartbeat_stats(metrics, trace) -> Tuple[float, float]:
    """(p99 inter-heartbeat gap in sim ms, share of beats on target).

    Over every application: a beat meets its target when its windowed
    rate is at least that application's target minimum (beats before
    the window fills carry no rate and are skipped).
    """
    gaps: List[float] = []
    met = rated = 0
    for app in metrics.apps:
        points = trace.points(app.app_name)
        for prev, point in zip(points, points[1:]):
            gaps.append((point.time_s - prev.time_s) * 1e3)
        for point in points:
            if point.rate is not None:
                rated += 1
                met += point.rate >= app.target_min
    return percentile(gaps, 99), met / rated


def board_sim_metrics(outcome) -> Metrics:
    metrics = outcome.metrics
    p99_gap_ms, met_ratio = _heartbeat_stats(metrics, outcome.trace)
    return {
        "sim_perf_per_watt": (metrics.perf_per_watt, "1/W"),
        "sim_energy_j": (metrics.avg_power_w * metrics.elapsed_s, "J"),
        "sim_p99_ms": (p99_gap_ms, "sim_ms"),
        "sim_met_ratio": (met_ratio, "ratio"),
    }


def fingerprint(outcome) -> Tuple:
    """Every simulated output of a board run, for bit-identity gates."""
    trace = outcome.trace
    return (
        outcome.metrics,
        tuple((name, trace.points(name)) for name in trace.app_names),
    )


# -- traced runs --------------------------------------------------------------

def _write_spans(tracer: Tracer, name: str, out_dir: str) -> str:
    path = os.path.join(out_dir, f"{name}.spans")
    tracer.dump(path)
    return path


def _traced_in_process(
    name: str,
    run_pass: Callable[[], Any],
    check: Callable[[Any], bool],
    out_dir: str,
) -> Outcome:
    """One untraced and one traced pass; the ledger of the traced one."""
    start = clock()
    untraced = run_pass()
    untraced_s = clock() - start
    tracer = Tracer()
    layers.install(tracer)
    try:
        start = clock()
        traced = run_pass()
        traced_s = clock() - start
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    metrics = _ledger_metrics(
        summary, tracer.counts, 0, None, untraced_s, traced_s,
        sum(row["self_ns"] for row in summary.values()) / 1e9,
    )
    gates = {
        "untraced_pass_matches_reference": check(untraced),
        "traced_pass_matches_reference": check(traced),
    }
    diagnostics = {
        "spans": len(tracer),
        "spans_file": _write_spans(tracer, name, out_dir),
    }
    return _result(metrics, gates, 2, 0, diagnostics)


def _ledger_metrics(
    summary, counts, retries, waits_us, untraced_s, traced_s, covered_s
) -> Metrics:
    values = layers.ledger(summary, counts, retries, waits_us)
    values["trace.untraced_s"] = untraced_s
    values["trace.traced_s"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.coverage"] = covered_s / traced_s
    return {name: (values[name], unit) for name, unit in layers.LAYER_METRICS}


# -- board-mp -----------------------------------------------------------------

#: Simulated seconds per board-mp segment, by size.
BOARD_SEGMENT_S = {"full": 5.0, "tiny": 0.5}


def run_segments(sim, horizon_s: float, segment_s: float) -> List[float]:
    """``Simulation.run`` in fixed sim-time chunks; host seconds of each."""
    times: List[float] = []
    until = sim.clock.now_s
    while True:
        until = min(until + segment_s, horizon_s)
        start = clock()
        sim.run(until_s=until)
        times.append(clock() - start)
        if sim.clock.now_s < until - 1e-9 or until >= horizon_s:
            return times


def _board_pass(seed: int, size: str, segmented: bool, cold: bool = True):
    """(set-up s, segment host times, prepared run, outcome)."""
    from repro.experiments.runner import RunConfig, prepare_multi

    gc.collect()
    start = clock()
    if cold:
        _cold_caches()
    prepared = prepare_multi(
        "mp-hars-e", board_shapes(seed, size), RunConfig(profile="fast")
    )
    setup_s = clock() - start
    if segmented:
        segments = run_segments(
            prepared.sim, prepared.horizon_s, BOARD_SEGMENT_S[size]
        )
    else:
        start = clock()
        prepared.sim.run(until_s=prepared.horizon_s)
        segments = [clock() - start]
    return setup_s, segments, prepared, prepared.finish()


def board_mp(seed: int, size: str, k: int, trace: bool,
             out_dir: str) -> Outcome:
    # Warm-up, and the reference: one unsegmented run to the horizon.
    _, _, ref_prepared, reference = _board_pass(seed, size, False)
    expected = fingerprint(reference)
    if trace:
        return _traced_in_process(
            "board-mp",
            lambda: _board_pass(seed, size, False),
            lambda result: fingerprint(result[3]) == expected,
            out_dir,
        )
    setups: List[float] = []
    repeats: List[List[float]] = []
    prints = []
    cold = cold_repeats(k, BOARD_COLD_SETUPS)
    for index in range(k):
        setup_s, segments, _, outcome = _board_pass(
            seed, size, True, cold=index in cold
        )
        if index in cold:
            setups.append(setup_s)
        repeats.append(segments)
        prints.append(fingerprint(outcome))
    sim = ref_prepared.sim
    ticks = round(sim.clock.now_s / sim.tick_s)
    heartbeats = sum(app.heartbeats for app in reference.metrics.apps)
    metrics, diagnostics = _host_metrics(repeats, setups, ticks, heartbeats)
    metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
    metrics.update(board_sim_metrics(reference))
    gates = {
        "segmented_equals_one_run": prints[0] == expected,
        "repeats_bit_identical": all(p == prints[0] for p in prints),
    }
    unfinished = sum(not app.model.is_done() for app in ref_prepared.apps)
    diagnostics.update(k=k, heartbeats=heartbeats, node_ticks=ticks)
    return _result(
        metrics, gates, len(ref_prepared.apps), unfinished, diagnostics
    )


# -- fleet-dr -----------------------------------------------------------------

#: Arrivals per fleet-dr segment, by size.
FLEET_SEGMENT_ARRIVALS = {"full": 100, "tiny": 10}


def _segment_router(marks: List[float], every: int):
    """A deadline-risk router that stamps the host clock every B arrivals."""
    from repro.fleet.router import DeadlineRiskRouter, Router

    class SegmentRouter(Router):
        name = DeadlineRiskRouter.name

        def __init__(self) -> None:
            self.inner = DeadlineRiskRouter()
            self.arrivals = 0

        def route(self, request, nodes, now_s):
            self.arrivals += 1
            if self.arrivals % every == 0:
                marks.append(clock())
            return self.inner.route(request, nodes, now_s)

    return SegmentRouter()


def fleet_config(seed: int, size: str):
    from repro.fleet import FleetConfig

    if size == "full":
        return FleetConfig(nodes=20, requests=4000, seed=seed)
    return FleetConfig(nodes=4, requests=300, seed=seed)


def _fleet_pass(seed: int, size: str):
    """(set-up s, segment host times, cluster, result)."""
    from repro.fleet import FleetCluster

    marks: List[float] = []
    gc.collect()
    start = clock()
    _cold_caches()
    router = _segment_router(marks, FLEET_SEGMENT_ARRIVALS[size])
    cluster = FleetCluster(fleet_config(seed, size), router=router)
    marks.insert(0, clock())
    setup_s = marks[0] - start
    result = cluster.run()
    marks.append(clock())
    segments = [b - a for a, b in zip(marks, marks[1:])]
    return setup_s, segments, cluster, result


def fleet_dr(seed: int, size: str, k: int, trace: bool,
             out_dir: str) -> Outcome:
    _, _, _, reference = _fleet_pass(seed, size)
    expected = reference.summary()
    if trace:
        return _traced_in_process(
            "fleet-dr",
            lambda: _fleet_pass(seed, size),
            lambda result: result[3].summary() == expected,
            out_dir,
        )
    setups: List[float] = []
    repeats: List[List[float]] = []
    summaries = []
    for _ in range(k):
        setup_s, segments, _, result = _fleet_pass(seed, size)
        setups.append(setup_s)
        repeats.append(segments)
        summaries.append(result.summary())
    config = fleet_config(seed, size)
    ticks = config.nodes * round(reference.duration_s / config.tick_s)
    metrics, diagnostics = _host_metrics(
        repeats, setups, ticks, reference.completed
    )
    metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
    met = reference.completed - reference.deadline_misses
    metrics.update({
        "sim_perf_per_watt": (
            met / reference.requests / reference.avg_power_w, "1/W"
        ),
        "sim_energy_j": (reference.energy_j, "J"),
        "sim_p99_ms": (reference.p99_s * 1e3, "sim_ms"),
        "sim_met_ratio": (met / reference.requests, "ratio"),
    })
    gates = {
        "completed_plus_unserved_is_requests": all(
            s["completed"] + s["unserved"] == s["requests"]
            for s in [expected, *summaries]
        ),
        "repeats_bit_identical": all(s == expected for s in summaries),
    }
    diagnostics.update(
        k=k, node_ticks=ticks, completed=reference.completed,
        unserved=reference.unserved,
    )
    return _result(
        metrics, gates, reference.requests, reference.unserved, diagnostics
    )


# -- acp-session --------------------------------------------------------------

#: Simulated seconds per ``advance`` RPC, by size.
ACP_QUANTUM_S = {"full": 5.0, "tiny": 0.5}
#: Checkpoint cadence (simulated seconds) of the attached run.
ACP_CHECKPOINT_S = 5.0
#: An explicit ``checkpoint`` RPC every this many steps.
ACP_CHECKPOINT_EVERY = 10
#: The one hot-swap to HARS-I follows this step, by size.  Late in the
#: run, so the simulated outcome stays as seed-stable as board-mp's.
ACP_SWAP_AT = {"full": 80, "tiny": 20}


def _acp_attach(client, seed: int, size: str):
    from repro.experiments.runner import RunConfig

    return client.attach(
        "mp-hars-e",
        board_shapes(seed, size),
        RunConfig(profile="fast", checkpoint=ACP_CHECKPOINT_S),
        stream_events=True,
        session_id="bench",
    )


def drive_session(handle, size: str, rpc: Callable,
                  end_step: Callable[[], None]) -> Tuple[Any, int]:
    """The closed-loop RPC sequence after attach; (outcome, events seen).

    One step advances the run by one quantum and drains the events it
    produced, plus the swap or checkpoint RPC that step is due to send;
    the closing ``result`` + ``detach`` pair is the last step.
    ``rpc(fn, *args)`` performs one RPC and ``end_step()`` marks a step
    boundary, so the caller can time both.
    """
    since = 0
    events = 0
    step = 0
    while True:
        status = rpc(handle.advance, ACP_QUANTUM_S[size])
        frames = rpc(handle.events, since)
        if frames:
            since = frames[-1].seq
            events += len(frames)
        step += 1
        if step == ACP_SWAP_AT[size]:
            rpc(handle.swap_policy, "hars-i")
        if step % ACP_CHECKPOINT_EVERY == 0:
            rpc(handle.checkpoint)
        end_step()
        if status["state"] == "finished":
            break
    outcome = rpc(handle.result)
    rpc(handle.detach)
    end_step()
    return outcome, events


class _Daemon:
    """A benchmark daemon subprocess on a Unix socket in ``out_dir``."""

    def __init__(self, out_dir: str, tag: str, spans: bool):
        self.dir = os.path.join(out_dir, f"acp-{os.getpid()}-{tag}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.socket = os.path.relpath(os.path.join(self.dir, "s"))
        self.report = os.path.join(self.dir, "report.json")
        self.spans = os.path.join(self.dir, "daemon.spans") if spans else None
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        command = [
            sys.executable, os.path.join(root, "perfbench", "daemon.py"),
            "--socket", self.socket,
            "--state-dir", os.path.join(self.dir, "state"),
            "--report", self.report,
        ]
        if self.spans:
            command += ["--spans", self.spans]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root])
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, env=env, cwd=os.getcwd()
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else b""
        if not line.startswith(b"ready"):
            self.stop()
            raise RuntimeError("benchmark daemon did not start")

    @property
    def endpoint(self) -> str:
        return f"unix://{self.socket}"

    def stop(self) -> Dict[str, Any]:
        """SIGTERM, wait, and return the daemon's report."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        report: Dict[str, Any] = {}
        if os.path.exists(self.report):
            with open(self.report) as src:
                report = json.load(src)
        return report

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _acp_pass(seed: int, size: str, out_dir: str, tag: str,
              spans: bool = False):
    """One daemon + one session: (set-up s, step host times, RPC host
    times, outcome, events, client retries, daemon report, daemon)."""
    from repro.acp.client import AcpClient

    gc.collect()
    start = clock()
    daemon = _Daemon(out_dir, tag, spans)
    try:
        client = AcpClient(daemon.endpoint)
        handle = _acp_attach(client, seed, size)
        setup_s = clock() - start
        rpc_times: List[float] = []
        steps: List[float] = []
        step_start = clock()

        def timed(fn, *args):
            begin = clock()
            value = fn(*args)
            rpc_times.append(clock() - begin)
            return value

        def end_step() -> None:
            nonlocal step_start
            now = clock()
            steps.append(now - step_start)
            step_start = now

        outcome, events = drive_session(handle, size, timed, end_step)
    finally:
        report = daemon.stop()
    return (setup_s, steps, rpc_times, outcome, events,
            client.stats["retries"], report, daemon)


def _loopback_reference(seed: int, size: str):
    """The same frame sequence through the in-process loopback server."""
    from repro.acp.client import AcpClient

    client = AcpClient("loopback")
    handle = _acp_attach(client, seed, size)
    rpcs = 0

    def counted(fn, *args):
        nonlocal rpcs
        rpcs += 1
        return fn(*args)

    outcome, events = drive_session(handle, size, counted, lambda: None)
    return outcome, events, rpcs


def acp_session(seed: int, size: str, k: int, trace: bool,
                out_dir: str) -> Outcome:
    # Warm-up, and the reference: the same frame sequence in process.
    # (Every timed repeat starts its own daemon, so a discarded daemon
    # session would warm nothing the timed ones reuse.)
    ref_outcome, ref_events, ref_rpcs = _loopback_reference(seed, size)
    expected = (fingerprint(ref_outcome), ref_events)
    if trace:
        return _acp_traced(seed, size, out_dir, expected)
    setups: List[float] = []
    repeats: List[List[float]] = []
    rpc_repeats: List[List[float]] = []
    matches: List[bool] = []
    retries = 0
    peak_rss = 0.0
    for index in range(k):
        (setup_s, steps, rpc_times, outcome, events, tries, report,
         daemon) = _acp_pass(seed, size, out_dir, str(index))
        daemon.cleanup()
        setups.append(setup_s)
        repeats.append(steps)
        rpc_repeats.append(rpc_times)
        matches.append((fingerprint(outcome), events) == expected)
        retries += tries
        peak_rss = max(peak_rss, report.get("peak_rss_mb", 0.0))
    metrics_obj = ref_outcome.metrics
    tick_s = board_shapes(seed, size)[0].tick_s
    ticks = round(metrics_obj.elapsed_s / tick_s)
    heartbeats = sum(app.heartbeats for app in metrics_obj.apps)
    metrics, diagnostics = _host_metrics(repeats, setups, ticks, heartbeats)
    metrics["peak_rss_mb"] = (peak_rss, "MB")
    metrics.update(board_sim_metrics(ref_outcome))
    gates = {
        "daemon_result_equals_loopback": all(matches),
        "rpc_sequence_stable": all(
            len(r) == ref_rpcs for r in rpc_repeats
        ),
        "daemon_reported_rss": peak_rss > 0,
    }
    rpc_minima = [m * 1e3 for m in segment_minima(rpc_repeats)]
    rpc_p50, rpc_tail, rpc_p = latency_summary(rpc_minima)
    diagnostics.update(
        k=k, rpcs=ref_rpcs, rpc_p50_ms=rpc_p50,
        rpc_tail_ms={"percentile": rpc_p, "value": rpc_tail},
        events=ref_events, node_ticks=ticks, heartbeats=heartbeats,
        retries=retries,
    )
    # Every RPC attempted on every repeat; a retry is a failed attempt.
    return _result(metrics, gates, ref_rpcs * k, retries, diagnostics)


def _acp_traced(seed, size, out_dir, expected) -> Outcome:
    start = clock()
    untraced = _acp_pass(seed, size, out_dir, "untraced")
    untraced_s = clock() - start
    untraced[-1].cleanup()
    tracer = Tracer()
    layers.install(tracer)
    try:
        start = clock()
        traced = _acp_pass(seed, size, out_dir, "traced", spans=True)
        traced_s = clock() - start
    finally:
        tracer.uninstall()
    _, _, rpc_times, outcome, events, retries, _, daemon = traced
    daemon_tracer = Tracer.load(daemon.spans)
    client_summary = tracer.summary()
    summary = merge_summaries([client_summary, daemon_tracer.summary()])
    counts = dict(tracer.counts)
    for key, value in daemon_tracer.counts.items():
        counts[key] = counts.get(key, 0) + value
    waits = layers.transport_waits_us(tracer, daemon_tracer)
    # Coverage: the client's own spans (its RPC spans hold the daemon's
    # handling and the transport wait).
    covered_s = sum(row["self_ns"] for row in client_summary.values()) / 1e9
    metrics = _ledger_metrics(
        summary, counts, retries, waits, untraced_s, traced_s, covered_s
    )
    gates = {
        "untraced_pass_matches_reference": (
            (fingerprint(untraced[3]), untraced[4]) == expected
        ),
        "traced_pass_matches_reference": (
            (fingerprint(outcome), events) == expected
        ),
    }
    diagnostics = {
        "client_spans": len(tracer),
        "daemon_spans": len(daemon_tracer),
        "spans_file": _write_spans(tracer, "acp-session-client", out_dir),
        "daemon_spans_file": shutil.copy(
            daemon.spans, os.path.join(out_dir, "acp-session-daemon.spans")
        ),
        "transport_samples": len(waits),
    }
    daemon.cleanup()
    return _result(metrics, gates, len(rpc_times), retries, diagnostics)


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "board-mp": board_mp,
    "fleet-dr": fleet_dr,
    "acp-session": acp_session,
}
