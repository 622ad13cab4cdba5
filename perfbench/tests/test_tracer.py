"""Spans, self time and the wrappers that record them."""

import itertools
import types

from perfbench.tracer import NO_ID, Tracer, merge_summaries


def _fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_subtracts_nested_children():
    tracer = Tracer()
    # root [0, 100] > a [10, 40] > a1 [15, 25]; root > b [50, 90]
    root = tracer.record("root", 0, 100)
    a = tracer.record("a", 10, 40, parent=root)
    tracer.record("a1", 15, 25, parent=a)
    tracer.record("b", 50, 90, parent=root)
    assert tracer.self_times_ns() == [100 - 30 - 40, 30 - 10, 10, 40]
    summary = tracer.summary()
    assert summary["root"] == {"calls": 1, "self_ns": 30, "total_ns": 100}
    assert summary["a"]["self_ns"] == 20


def test_self_times_sum_to_root_duration():
    tracer = Tracer()
    root = tracer.record("root", 0, 1000)
    parent = root
    for depth in range(5):
        parent = tracer.record("level", 100 * (depth + 1),
                               1000 - 100 * (depth + 1), parent=parent)
    assert sum(tracer.self_times_ns()) == 1000
    assert tracer.summary()["level"]["calls"] == 5


def test_wrapped_calls_nest_and_inherit_request_ids():
    tracer = Tracer(clock=_fake_clock(itertools.count(0, 10)))

    class Layer:
        def outer(self, rid):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Layer.outer
    tracer.wrap_method(Layer, "outer", "outer", rid_of=lambda self, rid: rid)
    tracer.wrap_method(Layer, "inner", "inner")
    try:
        assert Layer().outer(7) == 2
    finally:
        tracer.uninstall()
    assert Layer.outer is original
    outer, inner = 0, 1
    assert list(tracer.parent) == [NO_ID, outer]
    assert list(tracer.rid) == [7, 7]
    assert tracer.end[inner] < tracer.end[outer]
    assert tracer.summary()["outer"]["self_ns"] == 20


def test_wrap_function_rebinds_program_aliases_and_restores_them():
    import sys

    def percentile(data, p):
        return sorted(data)[len(data) // 2]

    home = types.ModuleType("repro._perfbench_home")
    alias = types.ModuleType("repro._perfbench_alias")
    home.percentile = alias.percentile = percentile
    sys.modules[home.__name__] = home
    sys.modules[alias.__name__] = alias
    tracer = Tracer()
    try:
        tracer.wrap_function(home, "percentile", "fleet.percentile")
        assert alias.percentile is home.percentile is not percentile
        assert alias.percentile([1.0, 3.0, 2.0], 50.0) == 2.0
        tracer.uninstall()
        assert alias.percentile is home.percentile is percentile
    finally:
        del sys.modules[home.__name__], sys.modules[alias.__name__]
    assert tracer.summary()["fleet.percentile"]["calls"] == 1


def test_dump_and_load_round_trip(tmp_path):
    tracer = Tracer()
    root = tracer.record("root", 5, 50, rid=3)
    tracer.record("child", 10, 20, parent=root, rid=3)
    tracer.add("frames", 4)
    path = str(tmp_path / "x.spans")
    tracer.dump(path)
    loaded = Tracer.load(path)
    assert loaded.summary() == tracer.summary()
    assert list(loaded.rid) == [3, 3]
    assert loaded.counts == {"frames": 4}
    merged = merge_summaries([tracer.summary(), loaded.summary()])
    assert merged["root"] == {"calls": 2, "self_ns": 70, "total_ns": 90}
