"""Rule registry for the sanitize lint engine.

Each rule lives in its own module and encodes one repo-wide discipline
(see DESIGN.md "Correctness tooling" for the catalog).  ``default_rules``
returns one instance of every active rule; ``python -m repro lint`` runs
them all.
"""

from __future__ import annotations

from .clocks import ClockDisciplineRule
from .determinism import DeterminismRule
from .dtypes import DtypeDisciplineRule
from .scatter import HotPathScatterRule
from .spans import SpanTaxonomyRule


def default_rules() -> list:
    """One instance of every active rule."""
    return [HotPathScatterRule(), SpanTaxonomyRule(), ClockDisciplineRule(),
            DeterminismRule(), DtypeDisciplineRule()]


__all__ = [
    "ClockDisciplineRule",
    "DeterminismRule",
    "DtypeDisciplineRule",
    "HotPathScatterRule",
    "SpanTaxonomyRule",
    "default_rules",
]
