"""Comm sanitizer: request-lifecycle checks on World."""

import numpy as np
import pytest

from repro.parallel.comm import CommSanitizerError, World


def _world(n=2):
    return World(n, sanitize=True)


def _finding_kinds(exc: CommSanitizerError):
    return {f.kind for f in exc.findings}


class TestLeakedRequest:
    def test_abandoned_irecv_is_reported(self):
        # one rank leaks, its peer does not: the finding names the leaker
        # (node id kept from when the convenient leak was an irecv)
        def fn(comm):
            req = comm.iallgather(comm.rank)
            if comm.rank == 1:
                req.wait()  # rank 0 drops its handle on the floor
            comm.allreduce(0)

        with pytest.raises(CommSanitizerError) as exc:
            _world(2).run(fn)
        assert "leaked-request" in _finding_kinds(exc.value)
        f = [x for x in exc.value.findings if x.kind == "leaked-request"][0]
        assert f.rank == 0
        assert "iallgather" in f.message and "never waited" in f.message

    def test_abandoned_collective_is_reported(self):
        def fn(comm):
            comm.iallreduce(float(comm.rank))  # never waited on any rank

        with pytest.raises(CommSanitizerError) as exc:
            _world(2).run(fn)
        kinds = [f.kind for f in exc.value.findings]
        assert kinds.count("leaked-request") == 2

    def test_cancel_settles_a_deliberately_dropped_request(self):
        def fn(comm):
            req = comm.iallgather(comm.rank)
            req.cancel()  # explicit error-path settlement

        _world(2).run(fn)  # no CommSanitizerError


class TestDoubleWait:
    def test_second_wait_is_reported(self):
        def fn(comm):
            req = comm.iallreduce(1.0)
            req.wait()
            req.wait()  # illegal re-wait

        with pytest.raises(CommSanitizerError) as exc:
            _world(2).run(fn)
        f = [x for x in exc.value.findings if x.kind == "double-wait"][0]
        assert "already-waited" in f.message

    def test_test_then_wait_is_legal(self):
        """Completing a request at its fence then calling wait() once is
        the documented idiom and must not be flagged (the node id is kept
        from when the completing call was a ``test()`` poll)."""
        def fn(comm):
            req = comm.iallgather(np.arange(4.0) + comm.rank)
            comm.fence([req])
            return req.wait()

        out = _world(2).run(fn)
        np.testing.assert_array_equal(out[0][1], np.arange(4.0) + 1)


class TestCleanRuns:
    def test_clean_exchange_reports_nothing(self):
        def fn(comm):
            other = (comm.rank + 1) % 2
            got = comm.iallgather(np.full(8, comm.rank, float)).wait()[other]
            comm.iallreduce(float(comm.rank)).wait()
            got2 = comm.ialltoallv(
                [np.arange(3.0) for _ in range(comm.size)]
            ).wait()
            comm.allreduce(0)
            return got.sum() + sum(g.sum() for g in got2)

        world = _world(2)
        out = world.run(fn)
        assert out[0] == out[1] or out is not None
        assert world.sanitizer.findings == []

    def test_sanitizer_state_resets_between_runs(self):
        world = _world(2)

        def leaky(comm):
            req = comm.iallreduce(1.0)
            if comm.rank == 1:
                req.wait()  # rank 0 leaks its handle

        def clean(comm):
            comm.iallreduce(1.0).wait()

        with pytest.raises(CommSanitizerError):
            world.run(leaky)
        world.run(clean)  # previous run's leak must not resurface
