"""Deep analyzer: dataflow units, seed-clean gate, synthetic injections."""

import ast
import os
import shutil
import textwrap
import time

from repro.sanitize.deep import DEEP_RULE_NAMES, deep_analyze
from repro.sanitize.deep.cfg import build_cfg

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(REPO, "src", "repro")


def _analyze(tmp_path, source, name="mod.py", rules=None):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source).lstrip("\n"))
    return deep_analyze([str(path)], root=str(tmp_path), rules=rules)


def _by_rule(result, rule):
    return [f for f in result.findings if f.rule == rule]


class TestCFG:
    def _cfg(self, source):
        tree = ast.parse(textwrap.dedent(source))
        return build_cfg(tree.body[0])

    def test_exit_kinds(self):
        cfg = self._cfg("""
            def f(x):
                if x:
                    return 1
                if x > 2:
                    raise ValueError(x)
                x += 1
        """)
        kinds = sorted(kind for _node, kind in cfg.exits)
        assert kinds == ["end", "raise", "return"]

    def test_loop_exit_is_after_body_not_zero_trip(self):
        """At-least-once loops: the loop exit flows from the body (and
        breaks), never from the never-entered header."""
        cfg = self._cfg("""
            def f(items):
                for x in items:
                    y = x
        """)
        (node, kind), = cfg.exits
        assert kind == "end"
        assert isinstance(node.stmt, ast.Assign)  # the body, not the For

    def test_raise_inside_try_is_not_a_function_exit(self):
        cfg = self._cfg("""
            def f(x):
                try:
                    raise ValueError(x)
                except ValueError:
                    x = 0
                return x
        """)
        kinds = [kind for _node, kind in cfg.exits]
        assert kinds == ["return"]


class TestRequestLifecycle:
    def test_early_return_leak_flagged_at_post_site(self, tmp_path):
        res = _analyze(tmp_path, """
            def f(comm, flag):
                req = comm.iallreduce(1.0)
                if flag:
                    return None
                return req.wait()
        """)
        (f,) = _by_rule(res, "request-lifecycle")
        assert f.line == 2  # the post site, not the leaking return
        assert "iallreduce" in f.message and "return" in f.message

    def test_discarded_post_leaks(self, tmp_path):
        res = _analyze(tmp_path, """
            def f(comm):
                comm.iallgather(1.0)
                comm.allreduce(0)
        """)
        (f,) = _by_rule(res, "request-lifecycle")
        assert f.line == 2 and "iallgather" in f.message

    def test_wait_or_cancel_on_every_path_is_clean(self, tmp_path):
        res = _analyze(tmp_path, """
            def f(comm, flag):
                req = comm.ialltoallv([1.0])
                if flag:
                    req.cancel()
                    return None
                return req.wait()
        """)
        assert _by_rule(res, "request-lifecycle") == []

    def test_container_hold_with_comprehension_wait_is_clean(self, tmp_path):
        res = _analyze(tmp_path, """
            def exchange(comm, fields):
                reqs = {}
                try:
                    for k in fields:
                        reqs[k] = comm.ialltoallv(fields[k])
                except BaseException:
                    for r in reqs.values():
                        r.cancel()
                    raise
                return {k: r.wait() for k, r in reqs.items()}
        """)
        assert _by_rule(res, "request-lifecycle") == []

    def test_cleanup_helper_summary_settles_callers_requests(self, tmp_path):
        res = _analyze(tmp_path, """
            def _cancel_requests(reqs):
                for r in reqs:
                    if r is not None:
                        r.cancel()

            def pipelined(comm, chunks):
                prev = req = None
                try:
                    for c in chunks:
                        req = comm.ialltoallv(c)
                        if prev is not None:
                            prev.wait()
                        prev = req
                    got = prev.wait()
                except BaseException:
                    _cancel_requests((prev, req))
                    raise
                return got
        """)
        assert _by_rule(res, "request-lifecycle") == []

    def test_closure_dict_slot_with_wait_elsewhere_is_clean(self, tmp_path):
        # a store into a captured dict is an ownership transfer, not a
        # tracked cell: never a false positive
        res = _analyze(tmp_path, """
            def driver(comm, fields):
                state = {"req": None}

                def post():
                    state["req"] = comm.iallreduce(fields)

                def settle():
                    got = state["req"].wait()
                    state["req"] = None
                    return got

                post()
                return settle()
        """)
        assert _by_rule(res, "request-lifecycle") == []

    def test_slot_with_no_settlement_anywhere_is_flagged(self, tmp_path):
        res = _analyze(tmp_path, """
            class Rank:
                def __init__(self, comm):
                    self.comm = comm
                    self.req = None

                def post(self, fields):
                    self.req = self.comm.iallreduce(fields)
        """)
        (f,) = _by_rule(res, "request-lifecycle")
        assert f.line == 7 and "never settled" in f.message
        assert "Rank.req" in f.message

    def test_cancel_only_slot_is_flagged_as_incomplete(self, tmp_path):
        res = _analyze(tmp_path, """
            class Rank:
                def __init__(self, comm):
                    self.comm = comm
                    self.req = None

                def post(self, fields):
                    self.req = self.comm.iallreduce(fields)

                def teardown(self):
                    self.req.cancel()
        """)
        (f,) = _by_rule(res, "request-lifecycle")
        assert f.line == 7 and "only ever cancelled" in f.message

    def test_attr_slot_with_wait_in_another_method_is_clean(self, tmp_path):
        """The rank-domain shape: a request posted into ``self.req`` by
        one method, completed by another, cancelled on the error path."""
        res = _analyze(tmp_path, """
            class Rank:
                def __init__(self, comm):
                    self.comm = comm
                    self.req = None

                def post(self, fields):
                    self.req = self.comm.iallreduce(fields)

                def settle(self):
                    got = self.req.wait()
                    self.req = None
                    return got

                def teardown(self):
                    if self.req is not None:
                        self.req.cancel()
        """)
        assert _by_rule(res, "request-lifecycle") == []

    def test_carrier_class_settled_through_helper_return(self, tmp_path):
        """The MigrationFlight shape: posts live on instance attrs, the
        instance travels through a helper return into an attribute slot of
        the rank object, and a completing method settles it — no findings on any layer."""
        res = _analyze(tmp_path, """
            class Flight:
                def __init__(self, comm, parts):
                    self._reqs = {"pos": comm.ialltoallv(parts)}

                def settle(self):
                    return {k: r.wait() for k, r in self._reqs.items()}

                def cancel(self):
                    for r in self._reqs.values():
                        r.cancel()

            def post_flight(comm, parts):
                return Flight(comm, parts)

            class Rank:
                def __init__(self, comm):
                    self.comm = comm
                    self.flight = None

                def post(self, parts):
                    self.flight = post_flight(self.comm, parts)

                def settle(self):
                    return self.flight.settle()

                def abort(self):
                    self.flight.cancel()

            def driver(comm, parts):
                rank = Rank(comm)
                rank.post(parts)
                try:
                    return rank.settle()
                except BaseException:
                    rank.abort()
                    raise
        """)
        assert _by_rule(res, "request-lifecycle") == []

    def test_pragma_suppresses_deep_finding(self, tmp_path):
        res = _analyze(tmp_path, """
            def f(comm):
                comm.iallgather(1.0)  # sanitize: allow-request-lifecycle
                comm.allreduce(0)
        """)
        assert _by_rule(res, "request-lifecycle") == []
        assert res.n_suppressed == 1


class TestCollectiveDivergence:
    def test_rank_guarded_collective_is_flagged(self, tmp_path):
        res = _analyze(tmp_path, """
            def f(comm, x):
                if comm.rank == 0:
                    total = comm.allreduce(x)
                else:
                    total = x
                return total
        """)
        (f,) = _by_rule(res, "collective-divergence")
        assert f.line == 2 and "allreduce" in f.message

    def test_same_sequence_in_both_branches_is_clean(self, tmp_path):
        res = _analyze(tmp_path, """
            def f(comm, x):
                if comm.rank == 0:
                    y = comm.allreduce(x * 2)
                else:
                    y = comm.allreduce(x)
                return y
        """)
        assert _by_rule(res, "collective-divergence") == []

    def test_taint_propagates_through_simple_assignment(self, tmp_path):
        res = _analyze(tmp_path, """
            def f(comm, x):
                is_root = comm.rank == 0
                if is_root:
                    comm.allreduce(0)
                return x
        """)
        (f,) = _by_rule(res, "collective-divergence")
        assert f.line == 3 and "allreduce" in f.message

    def test_calls_block_taint(self, tmp_path):
        """Rank-derived *data* is not a rank-distinguishing predicate:
        every rank computes its own bounds, then all take the branch."""
        res = _analyze(tmp_path, """
            def f(comm, decomp, x):
                lo, hi = decomp.bounds(comm.rank)
                if hi > lo:
                    x = comm.allreduce(x)
                return x
        """)
        assert _by_rule(res, "collective-divergence") == []

    def test_early_return_before_later_collectives(self, tmp_path):
        res = _analyze(tmp_path, """
            def f(comm, x):
                if comm.rank == 0:
                    return x
                y = comm.allreduce(x)
                return y
        """)
        (f,) = _by_rule(res, "collective-divergence")
        assert f.line == 2 and "skip" in f.message

    def test_collective_in_rank_dependent_loop(self, tmp_path):
        res = _analyze(tmp_path, """
            def f(comm, x):
                n = comm.rank + 1
                while n > 0:
                    x = comm.allreduce(x)
                    n = n - 1
                return x
        """)
        (f,) = _by_rule(res, "collective-divergence")
        assert f.line == 3

    def test_transitive_collective_through_helper(self, tmp_path):
        res = _analyze(tmp_path, """
            def reduce_all(comm, x):
                return comm.allreduce(x)

            def f(comm, x):
                if comm.rank == 0:
                    x = reduce_all(comm, x)
                return x
        """)
        (f,) = _by_rule(res, "collective-divergence")
        assert "->reduce_all" in f.message

    def test_io_only_rank_zero_branch_is_clean(self, tmp_path):
        res = _analyze(tmp_path, """
            def f(comm, rows):
                if comm.rank == 0:
                    with open("out.txt", "w") as fh:
                        fh.write(str(rows))
                return comm.allreduce(0)
        """)
        # collectives after the branch are fine: the branch does not exit
        assert _by_rule(res, "collective-divergence") == []


class TestSpanBalance:
    def test_begin_without_end_is_flagged(self, tmp_path):
        res = _analyze(tmp_path, """
            def f(tracer, gid):
                tracer.async_begin("ghost_exchange", gid)
        """)
        (f,) = _by_rule(res, "span-balance")
        assert "never ended" in f.message

    def test_end_without_begin_is_flagged(self, tmp_path):
        res = _analyze(tmp_path, """
            def f(tracer, gid):
                tracer.async_end("ghost_exchange", gid)
        """)
        (f,) = _by_rule(res, "span-balance")
        assert "never begun" in f.message

    def test_cross_function_pairing_is_clean(self, tmp_path):
        res = _analyze(tmp_path, """
            def post(tracer, gid):
                tracer.async_begin("ghost_exchange", gid)

            def settle(tracer, gid):
                tracer.async_end("ghost_exchange", gid)
        """)
        assert _by_rule(res, "span-balance") == []

    def test_unregistered_async_name_is_flagged(self, tmp_path):
        res = _analyze(tmp_path, """
            def post(tracer, gid):
                tracer.async_begin("totally/made-up", gid)

            def settle(tracer, gid):
                tracer.async_end("totally/made-up", gid)
        """)
        (f,) = _by_rule(res, "span-balance")
        assert "ASYNC_SPANS" in f.message


class TestSeedTree:
    def test_seed_tree_is_deep_clean_and_fast(self):
        t0 = time.monotonic()
        res = deep_analyze([SRC], root=REPO)
        elapsed = time.monotonic() - t0
        rendered = "\n".join(f.render() for f in res.findings)
        assert res.findings == [], "\n" + rendered
        assert res.errors == []
        assert res.n_files >= 90
        # zero pragmas needed: the analysis is tuned to the tree's real
        # idioms, not suppressed into silence
        assert res.n_suppressed == 0
        assert elapsed < 10.0, f"deep analysis took {elapsed:.1f}s"

    def test_rule_names_are_stable(self):
        assert DEEP_RULE_NAMES == (
            "request-lifecycle", "collective-divergence", "span-balance",
        )


class TestSyntheticInjection:
    def _copy_tree(self, tmp_path):
        dst = tmp_path / "repro"
        shutil.copytree(SRC, dst)
        return dst

    def test_dropped_wait_in_overload_yields_one_finding(self, tmp_path):
        tree = self._copy_tree(tmp_path)
        target = tree / "parallel" / "overload.py"
        src = target.read_text()
        broken = src.replace(
            "out = {k: np.concatenate(r.wait()) "
            "for k, r in self._reqs1.items()}",
            "out = {k: r for k, r in self._reqs1.items()}",
        )
        assert broken != src, "settle_arrivals wait() site moved"
        target.write_text(broken)

        res = deep_analyze([str(tree)], root=str(tmp_path))
        (f,) = res.findings
        assert f.rule == "request-lifecycle"
        assert f.path == "repro/parallel/overload.py"
        # attribution: the finding lands on the first _reqs1 post site
        post_line = 1 + next(
            i for i, line in enumerate(src.splitlines())
            if "self._reqs1 = {" in line
        )
        assert f.line == post_line
        assert "_reqs1" in f.message

    def test_rank_guarded_collective_yields_one_finding(self, tmp_path):
        tree = self._copy_tree(tmp_path)
        fixture = tree / "parallel" / "divergent_fixture.py"
        fixture.write_text(textwrap.dedent("""
            \"\"\"Synthetic: rank-guarded collective (deadlock shape).\"\"\"


            def reduce_stats(comm, local):
                if comm.rank == 0:
                    return comm.allreduce(local)
                return local
        """).lstrip())

        res = deep_analyze([str(tree)], root=str(tmp_path))
        (f,) = res.findings
        assert f.rule == "collective-divergence"
        assert f.path == "repro/parallel/divergent_fixture.py"
        assert f.line == 5
