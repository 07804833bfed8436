"""Request model: every collective is a request; abort, hung-rank bound."""

import inspect
import threading
import time

import numpy as np
import pytest

from repro.parallel import CommError, RankFailure, World
from repro.parallel.comm import CommSanitizerError, Request


class TestPostThenWait:
    """A post returns at once; the wait is where a rank pays."""

    def test_post_returns_at_once_and_wait_pays_the_wire(self):
        world = World(2, latency_s=0.08)

        def fn(comm):
            if comm.rank == 0:
                time.sleep(0.1)  # rank 1 posts first
                return comm.iallgather("late").wait()
            t0 = time.perf_counter()
            req = comm.iallgather(None)
            posted = time.perf_counter() - t0
            value = req.wait()
            return posted, time.perf_counter() - t0, value

        posted, elapsed, value = world.run(fn)[1]
        assert value == ["late", None]
        assert posted < 0.05  # returned before the peer deposited
        assert elapsed >= 0.08  # the wait lasted at least the wire time


class TestNonblockingCollectives:
    def test_ialltoallv_matches_blocking(self):
        # the same post fenced on a blocking world and left in flight on an
        # overlapping one delivers the same arrays
        def fn(comm):
            outgoing = [
                np.full(d + 1, 10 * comm.rank + d, dtype=np.float64)
                for d in range(comm.size)
            ]
            req = comm.ialltoallv(outgoing)
            comm.fence([req])
            return [a.copy() for a in req.wait()]

        blocking = World(3, blocking=True).run(fn)
        res = World(3, blocking=False).run(fn)
        for got_b, got_nb in zip(blocking, res):
            assert all(np.array_equal(x, y) for x, y in zip(got_nb, got_b))
        # rank 1 receives arrays of length 2 valued 10*src + 1
        for src in range(3):
            np.testing.assert_array_equal(
                res[1][src], np.full(2, 10 * src + 1, dtype=np.float64)
            )

    def test_iallreduce_ops(self):
        world = World(4)

        def fn(comm):
            v = float(comm.rank + 1)
            s = comm.iallreduce(v, op="sum").wait()
            lo = comm.iallreduce(v, op="min").wait()
            hi = comm.iallreduce(np.array([v, -v]), op="max").wait()
            return s, lo, hi

        for s, lo, hi in world.run(fn):
            assert s == 10.0 and lo == 1.0
            np.testing.assert_array_equal(hi, [4.0, -1.0])

    def test_iallreduce_rejects_bad_op_at_post_time(self):
        world = World(2)

        def fn(comm):
            with pytest.raises(ValueError, match="unknown reduction"):
                comm.iallreduce(1.0, op="prod")
            return True

        assert world.run(fn) == [True, True]

    def test_posting_rank_proceeds_without_waiting(self):
        # rank 0 posts, does "compute", and only then waits; rank 1 delays
        # its post — rank 0's post must return well before rank 1 arrives
        world = World(2)

        def fn(comm):
            if comm.rank == 0:
                t0 = time.perf_counter()
                req = comm.iallreduce(1.0, op="sum")
                post_time = time.perf_counter() - t0
                assert post_time < 0.05  # returned immediately
                t0 = time.perf_counter()
                total = req.wait()
                # the peer had not deposited yet: the wait paid its delay
                assert time.perf_counter() - t0 >= 0.05
                return total
            time.sleep(0.1)
            return comm.iallreduce(2.0, op="sum").wait()

        assert world.run(fn) == [3.0, 3.0]

    def test_sequence_matching_over_many_rounds(self):
        # collectives pair by per-rank posting order even when ranks run
        # far ahead of each other
        world = World(3)
        rounds = 10

        def fn(comm):
            reqs = [
                comm.iallreduce(float((k + 1) * (comm.rank + 1)), op="sum")
                for k in range(rounds)
            ]
            return [r.wait() for r in reqs]

        for got in world.run(fn):
            assert got == [float((k + 1) * 6) for k in range(rounds)]

    def test_collective_buffers_are_freed(self):
        world = World(2)

        def fn(comm):
            for _ in range(5):
                comm.iallreduce(1.0).wait()
            return True

        world.run(fn)
        assert world._icoll_bufs == {}


class TestOneCollectiveEngine:
    """Every collective is a request in one sequence space, so a deposit
    knows what it is pairing with."""

    def test_blocking_pairs_with_nonblocking_of_the_same_kind(self):
        world = World(3, sanitize=True)

        def fn(comm):
            mine = np.arange(comm.size) + 10 * comm.rank
            if comm.rank == 0:
                total = comm.allreduce(comm.rank + 1.0)
            else:
                total = comm.iallreduce(comm.rank + 1.0).wait()
            ranks = comm.iallgather(comm.rank).wait()
            got = comm.ialltoallv(list(mine)).wait()
            comm.allreduce(0)
            return total, ranks, got

        for rank, (total, ranks, got) in enumerate(world.run(fn)):
            assert total == 6.0
            assert ranks == [0, 1, 2]
            assert got == [rank, 10 + rank, 20 + rank]

    @pytest.mark.parametrize("posts, kinds", [
        ((lambda c: c.iallreduce(1.0), lambda c: c.iallgather(5.0)),
         ("allreduce:sum", "allgather")),
        ((lambda c: c.iallreduce(1.0, op="sum"),
          lambda c: c.iallreduce(2.0, op="max")),
         ("allreduce:sum", "allreduce:max")),
        ((lambda c: c.allreduce(1.0), lambda c: c.iallgather(1.0)),
         ("allreduce:sum", "allgather")),
    ])
    def test_mismatched_collectives_raise_naming_both_sides(self, posts,
                                                            kinds):
        # used to pair silently: [6.0, [1.0, 5.0]] and [3.0, 2.0]
        world = World(2, sanitize=True)

        def fn(comm):
            if comm.rank == 1:
                time.sleep(0.05)  # rank 0 deposits first
            req = posts[comm.rank](comm)
            return req.wait() if req is not None else None

        with pytest.raises(CommError, match="collective mismatch") as exc:
            world.run(fn)
        msg = str(exc.value)
        assert f"rank 1 posted {kinds[1]!r}" in msg
        assert f"rank 0 posted {kinds[0]!r}" in msg

    def test_fence_completes_the_group_on_a_blocking_world_only(self):
        def fn(comm):
            reqs = [comm.iallreduce(1.0), comm.iallgather(comm.rank)]
            comm.fence(reqs)
            done = [r._done for r in reqs]
            for r in reqs:
                r.complete()  # idempotent: blocks, never consumes
            return done, [r.wait() for r in reqs]

        for blocking in (True, False):
            world = World(2, latency_s=0.05, blocking=blocking, sanitize=True)
            for done, values in world.run(fn):
                assert done == [blocking, blocking]
                assert values == [2.0, [0, 1]]
            assert world.sanitizer.findings == []

    def test_fenced_group_shares_one_wire_time(self):
        world = World(2, latency_s=0.1, blocking=True)

        def fn(comm):
            t0 = time.perf_counter()
            reqs = [comm.iallreduce(float(k)) for k in range(4)]
            comm.fence(reqs)
            return time.perf_counter() - t0

        for elapsed in world.run(fn):
            assert 0.1 <= elapsed < 0.3  # one latency, not four

    def test_fence_has_no_time_limit_of_its_own(self):
        # as every wait: only an abort ends it
        seen = []

        class Probe(Request):
            def __init__(self):
                pass

            def complete(self, *args, **kwargs):
                seen.append((args, kwargs))

        World(1, blocking=True).comm(0).fence([Probe()])
        assert seen == [((), {})]

    @pytest.mark.parametrize("blocking", [True, False])
    def test_fenced_but_never_waited_request_still_leaks(self, blocking):
        # completing a group at its fence is not consuming it: the leak
        # check reads the same in both comm modes
        def fn(comm):
            comm.fence([comm.iallreduce(1.0)])

        world = World(2, blocking=blocking, sanitize=True)
        with pytest.raises(CommSanitizerError) as exc:
            world.run(fn)
        kinds = [f.kind for f in exc.value.findings]
        assert kinds == ["leaked-request"] * 2

    def test_failed_fence_cancels_its_whole_group(self):
        # the fence raises before its caller holds anything it could
        # cancel (GhostExchange/MigrationFlight fence in __init__), so the
        # group must come back settled: first request dead in its wait,
        # the rest never reached
        world = World(2, blocking=True, sanitize=True)

        def fn(comm):
            if comm.rank == 1:
                time.sleep(0.05)
                raise RuntimeError("boom")
            comm.fence([comm.iallreduce(float(k)) for k in range(4)])

        with pytest.raises(CommError, match="rank 1 failed"):
            world.run(fn)
        assert world.sanitizer.n_records() == 4
        assert world.sanitizer.unsettled() == []


class TestAbortAndTimeout:
    def test_abort_propagates_to_pending_collective(self):
        world = World(2)

        def fn(comm):
            if comm.rank == 1:
                raise RuntimeError("dead rank")
            return comm.iallreduce(1.0).wait()

        with pytest.raises(CommError, match="rank 1 failed"):
            world.run(fn)

    def test_world_reused_after_an_aborted_run_starts_clean(self):
        # regression: run 1 left rank 0 one sequence number ahead with its
        # deposit in buffer #0, so in run 2 rank 1 completed that stale
        # buffer with rank 0's old 1.0 while rank 0 hung on #1
        world = World(2)

        def dies(comm):
            if comm.rank == 1:
                time.sleep(0.05)  # rank 0 deposits first
                raise RuntimeError("boom")
            return comm.allreduce(1.0)

        with pytest.raises(CommError, match="rank 1 failed"):
            world.run(dies)
        clean = world.run(lambda c: c.allreduce(c.rank + 1.0), timeout=5.0)
        assert clean == [3.0, 3.0]

    @pytest.mark.parametrize("blocked_in",
                             ["collective", "request", "fence"])
    def test_abort_wakes_its_waiters(self, blocked_in, monkeypatch):
        """An abort notifies the condition every wait blocks on; the
        cascade does not wait out a poll tick."""
        from repro.parallel import comm as comm_mod

        monkeypatch.setattr(comm_mod, "_POLL", 20.0)
        world = World(2)

        def fn(comm):
            if comm.rank == 1:
                time.sleep(0.1)  # let rank 0 block first
                raise RuntimeError("boom")
            if blocked_in == "collective":
                return comm.allreduce(1.0)
            if blocked_in == "request":
                return comm.iallreduce(1.0).wait()
            # World() is a blocking world
            return comm.fence([comm.iallreduce(1.0)])

        t0 = time.perf_counter()
        with pytest.raises(CommError, match="rank 1 failed"):
            world.run(fn)
        assert time.perf_counter() - t0 < 5.0

    def test_hung_rank_raises_instead_of_returning_none(self):
        # regression: World.run used to join with a timeout but never check
        # is_alive(), silently returning None results for hung ranks;
        # the hang now surfaces as a typed RankFailure naming the rank
        world = World(2)

        def fn(comm):
            if comm.rank == 0:
                time.sleep(3.0)
            return comm.rank

        with pytest.raises(RankFailure, match="hung-rank timeout") as exc:
            world.run(fn, timeout=0.3)
        assert exc.value.rank == 0

    @pytest.mark.parametrize("blocking", [True, False])
    def test_never_posting_peer_is_a_typed_failure_in_both_modes(
            self, blocking):
        # a request wait has no limit of its own: World.run bounds the job
        # and types the failure, the same under either comm mode
        world = World(2, blocking=blocking)
        release = threading.Event()

        def fn(comm):
            comm.world.note_phase(comm.rank, 3, "short_range")
            if comm.rank == 0:
                release.wait(10.0)  # never posts
                return None
            req = comm.iallreduce(1.0)
            comm.fence([req])
            return req.wait()

        try:
            with pytest.raises(RankFailure, match="hung-rank timeout") as exc:
                world.run(fn, timeout=0.5)
        finally:
            release.set()
        assert (exc.value.rank, exc.value.step, exc.value.phase) == (
            0, 3, "short_range")
        for method in (Request.wait, Request.complete):
            assert "timeout" not in inspect.signature(method).parameters


class TestPerRankStats:
    def test_wait_time_charged_to_the_waiting_rank(self):
        world = World(2)

        def fn(comm):
            if comm.rank == 0:
                time.sleep(0.15)
            comm.allreduce(0)
            return None

        world.run(fn)
        waits = world.stats.wait_seconds
        # rank 1 sat in the allreduce while rank 0 slept
        assert waits.get(1, 0.0) > 0.1
        assert waits.get(0, 0.0) < 0.1

    def test_bytes_attributed_per_rank(self):
        world = World(2)

        def fn(comm):
            payload = np.zeros(100 * (comm.rank + 1))
            comm.iallgather(payload).wait()
            comm.iallgather(np.zeros(10 if comm.rank == 0 else 0)).wait()
            return None

        world.run(fn)
        by_rank = world.stats.bytes_by_rank
        assert by_rank[0] == 800 + 80  # both payloads
        assert by_rank[1] == 1600  # bigger allgather payload, empty second
        assert world.stats.collective_bytes == 800 + 80 + 1600
        assert world.stats.p2p_messages == 0


class TestSimulatedFabric:
    """Wire-time model: transfers take latency + payload/bandwidth."""

    def test_blocking_collective_pays_wire_time_idle(self):
        world = World(2, latency_s=0.08)

        def fn(comm):
            t0 = time.perf_counter()
            total = comm.allreduce(1.0)
            return total, time.perf_counter() - t0

        for total, elapsed in world.run(fn):
            assert total == 2.0
            assert elapsed >= 0.08

    def test_nonblocking_collective_hides_wire_time_behind_compute(self):
        world = World(2, latency_s=0.08)

        def fn(comm):
            req = comm.iallreduce(1.0)
            time.sleep(0.12)  # stand-in for interior compute
            t0 = time.perf_counter()
            total = req.wait()
            return total, time.perf_counter() - t0

        for total, waited in world.run(fn):
            assert total == 2.0
            # transfer matured during the compute window
            assert waited < 0.05

    def test_message_invisible_until_transfer_completes(self):
        world = World(2, latency_s=0.1)

        def fn(comm):
            t0 = time.perf_counter()
            req = comm.iallgather("x" if comm.rank == 0 else None)
            value = req.wait()
            return value, time.perf_counter() - t0

        for value, elapsed in world.run(fn):
            assert value == ["x", None]
            assert elapsed >= 0.1  # on the wire a full latency after the post

    def test_bandwidth_term_scales_with_payload(self):
        # 0.01 GB/s: a 1 MB payload needs 0.1 s on the wire
        world = World(2, gb_per_s=0.01)

        def fn(comm):
            big = np.zeros(131072)  # 1 MiB of float64
            t0 = time.perf_counter()
            comm.allreduce(big)
            big_t = time.perf_counter() - t0
            t0 = time.perf_counter()
            comm.allreduce(1.0)
            small_t = time.perf_counter() - t0
            return big_t, small_t

        for big_t, small_t in world.run(fn):
            assert big_t >= 0.1
            assert small_t < 0.06

    def test_zero_cost_fabric_by_default(self):
        world = World(2)
        assert world._xfer_delay(10**9) == 0.0
