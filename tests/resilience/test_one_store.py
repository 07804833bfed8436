"""One checkpoint store: a single real-file checkpoint mechanism."""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
BLOCK_IO = {"read_blocks", "write_blocks", "read_checkpoint",
            "write_checkpoint"}


def _tree(rel):
    return ast.parse((SRC / rel).read_text())


def _called(node):
    """The bare name a call node calls (``f(...)`` or ``x.f(...)``)."""
    return getattr(node.func, "attr", getattr(node.func, "id", ""))


def test_only_the_format_and_the_store_do_block_io():
    """AST guard: inside ``repro``, only ``iosim/checkpoint.py`` (the
    format) and ``resilience/store.py`` (the store) call the block
    read/write functions — there is no second checkpoint writer."""
    callers = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Call) and _called(n) in BLOCK_IO:
                callers.setdefault(rel, set()).add(_called(n))
    assert "resilience/store.py" in callers  # the walker is not blind
    assert set(callers) == {"iosim/checkpoint.py", "resilience/store.py"}


def test_checkpoint_hook_posts_no_collective():
    """AST guard: ``resilience/checkpointer.py`` calls no ``comm``
    method — each rank writes its own shard; the PFS copy is the
    store's bleed, not a gather to rank 0."""
    comm_calls = [
        n.lineno for n in ast.walk(_tree("resilience/checkpointer.py"))
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and isinstance(n.func.value, ast.Name)
        and n.func.value.id == "comm"
    ]
    assert comm_calls == []


def test_store_compiles_one_filename_regex():
    """AST guard: NVMe and PFS files share one name, so ``store.py``
    compiles exactly one filename pattern."""
    compiles = [
        n.lineno for n in ast.walk(_tree("resilience/store.py"))
        if isinstance(n, ast.Call) and _called(n) == "compile"
    ]
    assert len(compiles) == 1, compiles
