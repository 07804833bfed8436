"""Tracer core: span nesting, determinism, async slices, null tracer."""

import threading

from repro.observe import NullTracer, Tracer, WallClock
from repro.observe.clock import SIM_PID, WALL_PID


class TestSpans:
    def test_span_records_complete_event(self):
        tr = Tracer()
        with tr.span("hydro", cat="phase", step=3):
            pass
        (ev,) = tr.events
        assert ev.name == "hydro"
        assert ev.ph == "X"
        assert ev.cat == "phase"
        assert ev.args == {"step": 3}
        assert ev.dur >= 0.0
        assert ev.pid == WALL_PID

    def test_nesting_depth(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                with tr.span("innermost"):
                    pass
            with tr.span("sibling"):
                pass
        by_name = {e.name: e for e in tr.events}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        assert by_name["innermost"].depth == 2
        assert by_name["sibling"].depth == 1

    def test_seq_is_entry_order(self):
        """Events are emitted at exit (inner first) but seq records entry
        order — the structural invariant determinism rests on."""
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        inner, outer = tr.events[0], tr.events[1]
        assert inner.name == "inner" and outer.name == "outer"
        assert outer.seq < inner.seq

    def test_set_args_inside_body(self):
        tr = Tracer()
        with tr.span("kernel") as sp:
            sp.set_args(flops=42)
        assert tr.events[0].args["flops"] == 42

    def test_span_contains_child_interval(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        inner = next(e for e in tr.events if e.name == "inner")
        outer = next(e for e in tr.events if e.name == "outer")
        assert outer.ts <= inner.ts
        assert inner.ts + inner.dur <= outer.ts + outer.dur + 1e-9

    def test_spans_view_filters_and_orders(self):
        tr = Tracer()
        with tr.span("a"):
            pass
        tr.instant("marker")
        with tr.span("b"):
            pass
        with tr.span("a"):
            pass
        assert [e.name for e in tr.spans()] == ["a", "b", "a"]
        assert len(tr.spans("a")) == 2


class TestTracks:
    def test_per_thread_tracks(self):
        tr = Tracer()

        def work(rank):
            tr.set_track(rank, f"rank {rank}")
            with tr.span("step"):
                pass

        threads = [threading.Thread(target=work, args=(r,)) for r in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        tids = {e.tid for e in tr.events}
        assert tids == {0, 1, 2}
        assert tr.track_names[(WALL_PID, 2)] == "rank 2"

    def test_structure_excludes_timing(self):
        tr = Tracer()
        tr.set_track(0)
        with tr.span("step"):
            with tr.span("hydro"):
                pass
        s = tr.structure()
        assert s == {(WALL_PID, 0): [(0, "X", "step"), (1, "X", "hydro")]}


class TestAsyncAndFlow:
    def test_async_slice_pair(self):
        tr = Tracer()
        aid = tr.next_id()
        tr.async_begin("ghost_exchange", aid, cat="async", tid=1)
        tr.async_end("ghost_exchange", aid, cat="async", tid=1)
        b, e = tr.events
        assert (b.ph, e.ph) == ("b", "e")
        assert b.id == e.id == aid
        assert b.cat == e.cat == "async"

    def test_flow_pair(self):
        tr = Tracer()
        fid = tr.next_id()
        tr.flow_start("post", fid, tid=0)
        tr.flow_end("post", fid, tid=1)
        s, f = tr.events
        assert (s.ph, f.ph) == ("s", "f")
        assert s.id == f.id

    def test_next_id_unique(self):
        tr = Tracer()
        ids = {tr.next_id() for _ in range(100)}
        assert len(ids) == 100

    def test_explicit_sim_clock_timestamps(self):
        tr = Tracer()
        tr.complete("io/nvme_write", ts=10.0, dur=2.5, cat="io",
                    pid=SIM_PID, tid=0)
        ev = tr.events[0]
        assert (ev.ts, ev.dur, ev.pid) == (10.0, 2.5, SIM_PID)


class TestClocks:
    def test_wall_clock_monotone(self):
        c = WallClock()
        assert 0.0 <= c.now() <= c.now()


class TestNullTracer:
    def test_all_calls_are_noops(self):
        tr = NullTracer()
        assert tr.enabled is False
        with tr.span("anything", cat="x", foo=1) as sp:
            sp.set_args(bar=2)
        tr.set_track(3, "rank 3")
        tr.instant("i")
        tr.complete("c", ts=0.0, dur=1.0)
        tr.async_begin("a", "1")
        tr.async_end("a", "1")
        tr.flow_start("f", "1")
        tr.flow_end("f", "1")
        assert tr.next_id() == "0"

    def test_shared_null_span(self):
        """The null tracer returns one shared span object — no per-call
        allocation on the hot path."""
        tr = NullTracer()
        assert tr.span("a") is tr.span("b")
