"""Every function, class, method and property in ``src/repro`` has a
caller.

A word-level reference closure over the package.  The roots are the
words of every non-test entry point (``benchmarks/``, ``examples/``,
``scripts/``, ``python -m repro``) and of every module-level statement in
``src/repro`` (constants, tables, registrations, decorators — imports
and ``__all__`` excepted, since a re-export is not a caller).  A reached
symbol reaches every symbol whose name occurs as a word in its source.
A method or property is a symbol of its own, reached by its name; a
class reaches its dunder methods (Python calls them), not the others.
What is left unreached is reached by tests alone.

The check is deliberately coarse: any occurrence of a name in code,
string literals included (some callers name their targets by string),
counts as a reference, so a miss here is a sure miss.  Comments and
docstrings are prose, not callers, and are stripped first.  The only
test-only symbols allowed are the reference implementations, trace
readers and test instruments in ``KEEP``, each kept because a test
measures or drives live code with it; the list is exact in both
directions, so a kept symbol that gains a caller must leave it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
ENTRY_POINTS = ("benchmarks/**/*.py", "examples/*.py", "scripts/*.py",
                "src/repro/__main__.py")
_WORD = re.compile(r"[A-Za-z_]\w*")

#: test-only symbols that stay: name -> the test that uses it on live code
KEEP = {
    "ewald_accelerations":
        "tests/core/test_ewald.py::TestForceSplitVsEwald::"
        "test_random_cloud_total_force",
    "direct_accelerations":
        "tests/core/test_gravity.py::TestSplitCompleteness::"
        "test_direct_summation_conserves_momentum",
    "long_range_shape":
        "tests/core/test_gravity.py::TestForceSplit::"
        "test_shape_functions_sum_to_one",
    "brute_force_fof_labels":
        "tests/analysis/test_clustering.py::TestFOF::test_matches_brute_force",
    "brute_force_dbscan_labels":
        "tests/analysis/test_clustering.py::TestDBSCAN::"
        "test_core_points_match_brute_force",
    "build_overloaded_domains":
        "tests/parallel/test_decomposition_overload.py::TestOverloadOracle",
    "OverloadedDomain":
        "tests/parallel/test_decomposition_overload.py::TestOverloadOracle "
        "(the oracle's return type)",
    "gather_slabs":
        "tests/parallel/test_swfft.py::test_scatter_gather_roundtrip",
    "load_chrome_trace":
        "tests/test_cli.py::TestCLI::test_demo_trace_export (reads back the "
        "trace the program writes)",
    "slice_intervals":
        "tests/observe/test_instrumented_parallel.py::TestOverlapAcceptance",
    "LaneSanitizer":
        "tests/sanitize/test_lane_sanitizer.py::TestSolverIntegration (plugs "
        "into GPUResidentSolver.run_interaction_list)",
    # methods and properties: readers of live state, and the reference
    # relations tests hold live results against
    "pixel_solid_angle":
        "tests/analysis/test_skymaps_profiles.py::"
        "test_solid_angles_sum_to_4pi (the live map's pixel areas)",
    "n_components":
        "tests/analysis/test_clustering.py::TestUnionFind (reads the live "
        "union-find's merges)",
    "n_cancelled":
        "tests/campaign/test_cancel_retry.py::TestDeadlines (reads the "
        "report of a live cancelled run)",
    "potential":
        "tests/core/test_gravity.py::TestPMSolver::"
        "test_sinusoidal_density_potential (the live potential_k in real "
        "space)",
    "dark_matter":
        "tests/core/test_particles.py::TestContainer::test_species_masks",
    "cooling_time":
        "tests/core/test_subgrid.py::test_cooling_time_positive (the live "
        "du_dt as a timescale)",
    "omega_m_of_a":
        "tests/cosmology/test_background.py::TestExpansion::"
        "test_matter_dominates_early (the live E(a))",
    "lookback_time":
        "tests/cosmology/test_background.py::TestTime (the live age())",
    "a_of_z":
        "tests/cosmology/test_background.py::TestTime (lookback_time's "
        "conversion)",
    "sigma8_at":
        "tests/cosmology/test_power_and_ics.py (the live normalisation)",
    "update_field":
        "tests/gpusim/test_resident.py::test_device_side_field_update "
        "(drives the resident solver)",
    "free_tb":
        "tests/iosim/test_io.py::test_capacity_enforced (the live NVMe "
        "store's free space)",
    "absorb_op_counters":
        "tests/observe/test_metrics.py::test_absorb_op_counters (the "
        "registry's OpCounters instrument; no launch feeds one yet)",
    "structure":
        "tests/observe/test_trace.py (reads back the trace the program "
        "records)",
    "rank_of_coords":
        "tests/parallel/test_decomposition_overload.py (inverts the live "
        "coords_of)",
    "overload_fraction":
        "tests/parallel/test_decomposition_overload.py::TestOverloadOracle "
        "(a property of the oracle's domains)",
    "mass_resolution_proxy":
        "tests/perfmodel/test_perfmodel.py::"
        "test_finer_resolution_than_largest_volume_hydro (the landscape "
        "table's claim)",
    "RetryPolicy":
        "tests/campaign/test_cancel_retry.py::TestRetry (drives "
        "CampaignEngine's retry loop)",
}


class _DropProse(ast.NodeTransformer):
    """Drops every bare string statement: docstrings."""

    def visit_Expr(self, node):
        value = node.value
        prose = isinstance(value, ast.Constant) and isinstance(value.value, str)
        return None if prose else node


def _code(text: str) -> ast.Module:
    """``text`` parsed without its docstrings (``ast`` keeps no comments)."""
    return _DropProse().visit(ast.parse(text))


def _words(node: ast.AST) -> set:
    return set(_WORD.findall(ast.unparse(node)))


def _is_reexport(node: ast.stmt) -> bool:
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_method(node: ast.stmt) -> bool:
    """A named method or property: reached by its name, unlike a dunder,
    which Python calls when its class is used."""
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__")))


def _scan_package():
    """``({name: {module or module.Class, ...}}, {name: words of its
    bodies}, root words)``; a class's words leave out its methods'."""
    where: dict[str, set] = {}
    body_words: dict[str, set] = {}
    roots: set = set()

    def define(name, owner, words, decorators):
        where.setdefault(name, set()).add(owner)
        body_words.setdefault(name, set()).update(words)
        for dec in decorators:
            roots.update(_words(dec))

    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module = ".".join(("repro",) + parts)
        for node in _code(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, _DEFS):
                if not _is_reexport(node):
                    roots |= _words(node)
                continue
            methods = []
            if isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if _is_method(m)]
                node.body = [m for m in node.body if not _is_method(m)]
            define(node.name, module, _words(node), node.decorator_list)
            for m in methods:
                define(m.name, f"{module}.{node.name}", _words(m),
                       m.decorator_list)
    return where, body_words, roots


def unreachable() -> dict:
    """``{name: sorted modules}`` for every symbol no entry point reaches."""
    where, body_words, roots = _scan_package()
    for pattern in ENTRY_POINTS:
        for path in ROOT.glob(pattern):
            roots |= _words(_code(path.read_text(encoding="utf-8")))
    reached: set = set()
    frontier = roots & where.keys()
    while frontier:
        reached |= frontier
        frontier = {w for name in frontier for w in body_words[name]
                    if w in where} - reached
    return {name: sorted(where[name]) for name in where.keys() - reached}


def test_every_symbol_has_a_caller():
    dead = {name: mods for name, mods in unreachable().items()
            if name not in KEEP}
    listing = "\n".join(sorted(f"  {m}.{name}" for name, mods in dead.items()
                               for m in mods))
    assert not dead, (
        f"{len(dead)} symbol(s) in src/repro are reached only by "
        f"tests; give each a caller or delete it:\n{listing}"
    )


def test_keep_list_is_exact():
    stale = sorted(KEEP.keys() - unreachable().keys())
    assert not stale, (
        f"KEEP entries that are no longer test-only (they gained a caller "
        f"or were deleted), remove them from KEEP: {stale}"
    )
