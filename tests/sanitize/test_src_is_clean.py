"""Tier-1 gate: the shipped source tree passes every lint rule.

Any new ``np.add.at`` hot-path scatter, unregistered span name, raw
wall-clock read in an instrumented module, unseeded RNG, or float32 in
``core/`` fails this test unless it carries an explicit
``# sanitize: allow-<rule>`` pragma.  The tree is linted once and both
gates read that one result.
"""

import os

import pytest

from repro.sanitize import LintEngine, default_rules, render_text

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(REPO, "src", "repro")


@pytest.fixture(scope="module")
def src_lint():
    engine = LintEngine(root=REPO)
    return engine, engine.lint_paths([SRC])


def test_src_tree_is_lint_clean(src_lint):
    engine, result = src_lint
    assert result.clean, "\n" + render_text(result, engine.rules)
    assert result.errors == []
    # the run actually covered the tree with the full rule set
    assert result.n_files >= 90
    assert len(engine.rules) >= 5


def test_rule_catalog_is_active():
    names = {r.name for r in default_rules()}
    assert names >= {
        "scatter", "span-taxonomy", "clock-discipline",
        "determinism", "dtype-discipline",
    }


def test_suppressions_are_deliberate_and_bounded(src_lint):
    """Pragma count is a ratchet: a jump means someone is papering over
    findings instead of fixing them.  Update the bound consciously."""
    _, result = src_lint
    assert result.n_suppressed <= 60
