"""One wire: the collective deposit is the substrate's only transport."""

import ast
from pathlib import Path

import repro
import repro.parallel
import repro.sanitize


def _tree(package, name):
    return ast.parse((Path(package.__file__).parent / name).read_text())


def test_comm_has_one_condition_one_wait_loop_and_one_request_class():
    """AST guard: ``parallel/comm.py`` constructs exactly one
    ``threading.Condition`` and holds exactly one ``while True`` wait
    loop (``_icoll_collect``), and exactly one class defines
    ``complete``.  There is one way to post a collective:
    ``World._icoll_post`` is called only from ``SimComm._deposit`` and
    ``World._icoll_collect`` only from ``Request.complete``, and
    ``SimComm``'s public methods are exactly the four collectives the
    program posts plus ``fence``."""
    tree = _tree(repro.parallel, "comm.py")
    nodes = list(ast.walk(tree))
    conditions = [
        n.lineno for n in nodes
        if isinstance(n, ast.Call)
        and getattr(n.func, "attr", getattr(n.func, "id", "")) == "Condition"
    ]
    assert len(conditions) == 1, conditions
    wait_loops = [
        n.lineno for n in nodes
        if isinstance(n, ast.While)
        and isinstance(n.test, ast.Constant) and n.test.value is True
    ]
    assert len(wait_loops) == 1, wait_loops
    request_classes = [
        n.name for n in nodes
        if isinstance(n, ast.ClassDef)
        and any(isinstance(m, ast.FunctionDef) and m.name == "complete"
                for m in n.body)
    ]
    assert request_classes == ["Request"]
    # one way to post: the engine is entered from one place each
    callers = {"_icoll_post": [], "_icoll_collect": []}
    classes = {n.name: n for n in tree.body if isinstance(n, ast.ClassDef)}
    for cls in classes.values():
        for fn in cls.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            for n in ast.walk(fn):
                if (isinstance(n, ast.Call)
                        and getattr(n.func, "attr", None) in callers):
                    callers[n.func.attr].append(f"{cls.name}.{fn.name}")
    assert callers == {"_icoll_post": ["SimComm._deposit"],
                       "_icoll_collect": ["Request.complete"]}
    assert sum(isinstance(n, ast.Call)
               and getattr(n.func, "attr", None) in callers
               for n in nodes) == 2  # none outside a method either
    public = {
        fn.name for fn in classes["SimComm"].body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
        and not fn.decorator_list
    }
    assert public == {"allreduce", "ialltoallv", "iallgather", "iallreduce",
                      "fence"}


#: the program's posting groups: every nonblocking post outside the
#: transport sits in one of these, and each ends its group with ``fence``
POSTING_FUNCTIONS = {
    "DistributedFFT._post_transpose", "GhostExchange.__init__",
    "MigrationFlight.__init__", "MigrationFlight.post_payload",
    "RankDomain.drift", "RankDomain._solve_long_range",
    "RankDomain._short_forces_posted",
}


def _methods(tree):
    """``(qualname, node)`` of every module-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    yield f"{node.name}.{fn.name}", fn


def _calls(node, names) -> int:
    return sum(isinstance(n, ast.Call)
               and getattr(n.func, "attr", None) in names
               for n in ast.walk(node))


def test_every_post_sits_in_a_fenced_posting_group():
    """AST guard: outside ``parallel/comm.py`` every ``ialltoallv`` /
    ``iallgather`` / ``iallreduce`` call sits in one of
    ``POSTING_FUNCTIONS``, and each of them calls ``fence``.  A group
    whose fence is dropped still gives the same values (the consumer's
    wait completes it), so only this guard notices."""
    posts = {"ialltoallv", "iallgather", "iallreduce"}
    root = Path(repro.__file__).parent
    posting, unfenced = set(), []
    for path in sorted(root.rglob("*.py")):
        if path == root / "parallel" / "comm.py":
            continue
        tree = ast.parse(path.read_text())
        n_in_functions = 0
        for name, fn in _methods(tree):
            if n := _calls(fn, posts):
                n_in_functions += n
                posting.add(name)
                if not _calls(fn, {"fence"}):
                    unfenced.append(name)
        # none outside a function or method either
        assert n_in_functions == _calls(tree, posts), path
    assert posting == POSTING_FUNCTIONS
    assert unfenced == []


def test_comm_sanitizer_watches_no_second_transport():
    """AST guard: ``sanitize/comm.py`` has no ``deadlock``/``mailbox``
    identifier — those checks could only fire on a point-to-point path."""
    names = set()
    for n in ast.walk(_tree(repro.sanitize, "comm.py")):
        for field in ("id", "attr", "name", "arg"):
            value = getattr(n, field, None)
            if isinstance(value, str):
                names.add(value)
    assert len(names) > 20  # the walker is not blind
    assert not [s for s in names
                if "deadlock" in s.lower() or "mailbox" in s.lower()]


def test_parallel_all_resolves():
    exported = repro.parallel.__all__
    assert len(set(exported)) == len(exported)
    for name in exported:
        assert getattr(repro.parallel, name) is not None
    assert "CompletedRequest" not in exported
