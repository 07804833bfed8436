"""Metrics registry: instruments, absorbers, TimerGroup dict shape."""

import pytest

from repro.core.timestep import SubcycleStats
from repro.gpusim.counters import OpCounters
from repro.observe import MetricsRegistry, Tracer
from repro.parallel.comm import TrafficStats


class TestInstruments:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("io/bytes")
        c.add(10)
        c.add(5)
        assert reg.counter("io/bytes").value == 15
        assert reg.counter("io/bytes") is c

    def test_gauge_keeps_last(self):
        reg = MetricsRegistry()
        g = reg.gauge("util")
        g.set(0.3)
        g.set(0.7)
        assert g.value == 0.7

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("ranks")
        h.observe([1.0, 2.0, 3.0])
        h.observe(4.0)
        assert h.count == 4
        assert h.mean == 2.5
        assert (h.min, h.max) == (1.0, 4.0)
        assert h.summary()["total"] == 10.0

    def test_typed_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_labels_distinguish_instruments(self):
        reg = MetricsRegistry()
        reg.gauge("wait", rank=0).set(1.0)
        reg.gauge("wait", rank=1).set(2.0)
        assert reg.get("wait{rank=0}").value == 1.0
        assert reg.get("wait{rank=1}").value == 2.0

    def test_snapshot_and_names(self):
        reg = MetricsRegistry()
        reg.counter("a").add(1)
        reg.histogram("h").observe(2.0)
        snap = reg.snapshot()
        assert snap["a"] == 1
        assert snap["h"]["count"] == 1
        assert reg.names() == ["a", "h"]


class TestAbsorbers:
    def test_absorb_traffic(self):
        reg = MetricsRegistry()
        stats = TrafficStats(collective_calls=2, collective_bytes=50)
        stats.add_wait(0, 0.25)
        stats.add_bytes(0, 60)
        stats.add_bytes(1, 40)
        reg.absorb_traffic(stats)
        assert reg.get("comm/collective_bytes").value == 50
        assert reg.get("comm/collective_calls").value == 2
        assert reg.get("comm/wait_seconds{rank=0}").value == 0.25
        assert reg.get("comm/bytes{rank=1}").value == 40

    def test_absorb_traffic_is_idempotent(self):
        """Re-absorbing the same stats is a set, not a double-count."""
        reg = MetricsRegistry()
        stats = TrafficStats(collective_bytes=100)
        reg.absorb_traffic(stats)
        reg.absorb_traffic(stats)
        assert reg.get("comm/collective_bytes").value == 100

    def test_absorb_op_counters(self):
        reg = MetricsRegistry()
        c = OpCounters(fp32_add=10, fp32_fma=5, global_load_bytes=64,
                       active_lane_ops=48, issued_lane_ops=64)
        reg.absorb_op_counters(c)
        assert reg.get("gpu/flops").value == c.flops
        assert reg.get("gpu/bytes_moved").value == 64
        assert reg.get("gpu/lane_efficiency").value == 48 / 64
        # deltas accumulate; derived gauges track the running totals
        reg.absorb_op_counters(OpCounters(fp32_add=10, issued_lane_ops=64))
        assert reg.get("gpu/flops").value == c.flops + 10
        assert reg.get("gpu/lane_efficiency").value == 48 / 128

    def test_absorb_subcycle(self):
        reg = MetricsRegistry()
        s = SubcycleStats(n_substeps=8, n_force_evaluations=9,
                          n_active_total=900, deepest_rung=3,
                          n_particles=100, n_fft=1, n_pairs=1234)
        reg.absorb_subcycle(s)
        assert reg.get("subcycle/n_substeps").value == 8
        assert reg.get("subcycle/deepest_rung").value == 3
        h = reg.get("subcycle/active_fraction")
        assert h.count == 1
        assert h.mean == s.mean_active_fraction


class TestTimerGroup:
    def test_mapping_shape(self):
        from repro.observe import TimerGroup

        reg = MetricsRegistry()
        tg = TimerGroup(reg, "step0", keys=("a", "b"))
        assert list(tg) == ["a", "b"]
        assert len(tg) == 2
        assert dict(tg) == {"a": 0.0, "b": 0.0}
        assert tg["a"] == 0.0

    def test_time_accumulates_seconds(self):
        from repro.observe import TimerGroup

        reg = MetricsRegistry()
        tg = TimerGroup(reg, "step0", keys=("a",))
        with tg.time("a") as t:
            pass
        assert t.seconds >= 0.0
        assert tg["a"] == t.seconds
        assert reg.get("step0/a").value == tg["a"]

    def test_add_external_seconds(self):
        from repro.observe import TimerGroup

        reg = MetricsRegistry()
        tg = TimerGroup(reg, "w", keys=())
        tg.add("short_range", 1.5)
        tg.add("short_range", 0.5)
        assert dict(tg) == {"short_range": 2.0}

    def test_registration_order_iteration(self):
        from repro.observe import TimerGroup

        reg = MetricsRegistry()
        tg = TimerGroup(reg, "p", keys=("z", "a"))
        tg.add("m", 0.0)
        assert list(tg) == ["z", "a", "m"]

    def test_time_emits_span_when_tracing(self):
        from repro.observe import TimerGroup

        reg = MetricsRegistry()
        tr = Tracer()
        tg = TimerGroup(reg, "step0", keys=("hydro",), tracer=tr, cat="phase")
        with tg.time("hydro", step=2):
            pass
        (ev,) = tr.events
        assert ev.name == "hydro"
        assert ev.cat == "phase"
        assert ev.args == {"step": 2}
        assert abs(ev.dur - tg["hydro"]) < 0.05


class TestObservatory:
    def test_default_is_null(self):
        from repro.observe import Observatory

        obs = Observatory()
        assert obs.tracing is False

    def test_scopes_never_collide(self):
        from repro.observe import Observatory

        obs = Observatory()
        assert obs.scope("sim") != obs.scope("sim")

    def test_export_roundtrip(self, tmp_path):
        from repro.observe import Observatory, load_chrome_trace

        obs = Observatory(tracing=True)
        with obs.tracer.span("step"):
            pass
        path = str(tmp_path / "t.json")
        obs.export_chrome_trace(path)
        doc = load_chrome_trace(path)
        assert any(e["name"] == "step" for e in doc["traceEvents"])
