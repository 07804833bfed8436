"""Rule registry for the sanitize lint engine.

Each rule lives in its own module and encodes one repo-wide discipline
(see DESIGN.md "Correctness tooling" for the catalog).  ``default_rules``
returns one instance of every active rule; ``get_rules`` selects a
subset by name for ``python -m repro lint --rules``.
"""

from __future__ import annotations

from .clocks import ClockDisciplineRule
from .determinism import DeterminismRule
from .dtypes import DtypeDisciplineRule
from .scatter import HotPathScatterRule
from .spans import SpanTaxonomyRule

_RULE_CLASSES = (
    HotPathScatterRule,
    SpanTaxonomyRule,
    ClockDisciplineRule,
    DeterminismRule,
    DtypeDisciplineRule,
)


def default_rules() -> list:
    """One instance of every active rule (registration order)."""
    return [cls() for cls in _RULE_CLASSES]


def get_rules(names=None) -> list:
    """Rules selected by name (all when ``names`` is None/empty)."""
    names = list(names) if names is not None else []
    if not names:
        return default_rules()
    by_name = {cls.name: cls for cls in _RULE_CLASSES}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        raise KeyError(
            f"unknown rule(s) {unknown}; available: {sorted(by_name)}"
        )
    return [by_name[n]() for n in names]


__all__ = [
    "ClockDisciplineRule",
    "DeterminismRule",
    "DtypeDisciplineRule",
    "HotPathScatterRule",
    "SpanTaxonomyRule",
    "default_rules",
    "get_rules",
]
