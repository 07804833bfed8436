"""Simulated MPI communicator tests.

``SimComm`` posts four collectives (``allreduce``, ``ialltoallv``,
``iallgather``, ``iallreduce``); the mpi4py patterns it does not export —
barrier, broadcast, gather, scatter, reduce-to-root, all-to-all — are
checked here as the idioms they are on those four.
"""

import numpy as np
import pytest

from repro.parallel import CommError, World


class TestCollectives:
    def test_barrier_and_size(self):
        world = World(4)

        def fn(comm):
            comm.allreduce(0)  # the barrier idiom
            return comm.size

        assert world.run(fn) == [4, 4, 4, 4]

    def test_bcast(self):
        world = World(3)

        def fn(comm):
            data = {"x": 42} if comm.rank == 1 else None
            return comm.iallgather(data).wait()[1]

        assert world.run(fn) == [{"x": 42}] * 3

    def test_gather(self):
        world = World(4)

        def fn(comm):
            vals = comm.iallgather(comm.rank**2).wait()
            return vals if comm.rank == 0 else None

        res = world.run(fn)
        assert res[0] == [0, 1, 4, 9]
        assert res[1] is None

    def test_allgather(self):
        world = World(3)
        res = world.run(lambda c: c.iallgather(c.rank).wait())
        assert res == [[0, 1, 2]] * 3

    def test_scatter(self):
        world = World(3)

        def fn(comm):
            vals = [10, 20, 30] if comm.rank == 0 else [None] * comm.size
            return comm.ialltoallv(vals).wait()[0]

        assert world.run(fn) == [10, 20, 30]

    def test_scatter_wrong_length_raises(self):
        world = World(2)

        def fn(comm):
            vals = [1] if comm.rank == 0 else [None] * comm.size
            return comm.ialltoallv(vals).wait()[0]

        with pytest.raises(CommError):
            world.run(fn)

    def test_allreduce_sum_scalar(self):
        world = World(5)
        res = world.run(lambda c: c.allreduce(c.rank + 1))
        assert res == [15] * 5

    def test_allreduce_sum_arrays(self):
        world = World(3)

        def fn(comm):
            return comm.allreduce(np.full(4, comm.rank, dtype=float))

        for out in world.run(fn):
            np.testing.assert_allclose(out, 3.0)

    def test_allreduce_minmax(self):
        world = World(4)
        assert world.run(lambda c: c.allreduce(c.rank, op="min")) == [0] * 4
        assert world.run(lambda c: c.allreduce(c.rank, op="max")) == [3] * 4

    def test_allreduce_unknown_op(self):
        world = World(2)
        with pytest.raises(CommError, match="unknown reduction"):
            world.run(lambda c: c.allreduce(1, op="prod"))
        # rejected before anything was deposited
        assert world.stats.collective_calls == 0

    def test_reduce_root_only(self):
        world = World(3)

        def fn(comm):
            total = comm.allreduce(1)
            return total if comm.rank == 2 else None

        assert world.run(fn) == [None, None, 3]

    def test_alltoall(self):
        world = World(3)

        def fn(comm):
            outgoing = [comm.rank * 10 + d for d in range(comm.size)]
            return comm.ialltoallv(outgoing).wait()

        res = world.run(fn)
        # rank r receives src*10 + r from each src
        for r in range(3):
            assert res[r] == [0 * 10 + r, 1 * 10 + r, 2 * 10 + r]

    def test_alltoallv_arrays(self):
        world = World(2)

        def fn(comm):
            out = [
                np.full(d + 1, comm.rank, dtype=np.int64) for d in range(comm.size)
            ]
            got = comm.ialltoallv(out).wait()
            return np.concatenate(got)

        res = world.run(fn)
        np.testing.assert_array_equal(np.sort(res[0]), [0, 1])
        np.testing.assert_array_equal(np.sort(res[1]), [0, 0, 1, 1])

    def test_collective_ordering_many_rounds(self):
        """Repeated collectives stay in lockstep (no slot corruption)."""
        world = World(4)

        def fn(comm):
            acc = 0
            for i in range(20):
                acc += comm.allreduce(comm.rank * i)
            return acc

        res = world.run(fn)
        expected = sum(i * (0 + 1 + 2 + 3) for i in range(20))
        assert res == [expected] * 4


class TestWorld:
    def test_single_rank(self):
        world = World(1)
        assert world.run(lambda c: c.allreduce(7)) == [7]

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            World(0)

    def test_rank_failure_propagates(self):
        world = World(3)

        def fn(comm):
            if comm.rank == 1:
                raise RuntimeError("boom")
            comm.allreduce(0)
            return 1

        with pytest.raises(CommError, match="rank 1"):
            world.run(fn)

    def test_traffic_stats_counted(self):
        world = World(2)
        world.run(lambda c: c.allreduce(np.zeros(100)))
        assert world.stats.collective_calls >= 2
        assert world.stats.collective_bytes >= 800
