"""Whole-program static comm-safety analysis (``python -m repro lint --deep``).

Three interprocedural rules on top of a module/call-graph
(:mod:`.modgraph`), per-function CFGs (:mod:`.cfg`) and a
request-lifecycle dataflow engine (:mod:`.lifecycle`):

``request-lifecycle``
    every nonblocking post (``ialltoallv``/``iallgather``/
    ``iallreduce``) must reach ``wait()`` or ``cancel()`` on all paths —
    tracked through locals, closure dict slots (``state["rho_req"]``),
    carrier objects (``MigrationFlight``) and helper returns;
    ``cancel()`` alone is an error-path release, so every posted slot
    also needs a wait path somewhere in its scope;
``collective-divergence``
    collectives posted under rank-dependent control
    flow (conditions derived from ``comm.rank``) or with mismatched
    posting order across branches — the classic static deadlock source;
``span-balance``
    every literal ``async_begin``/``flow_start`` tracer slice has a
    matching end somewhere in the program (slices legitimately cross
    functions) and uses a name registered as an async slice in
    :mod:`repro.observe.taxonomy`.

Soundness caveats are documented in DESIGN.md ("Correctness tooling"):
the analysis is deliberately tuned to prefer false negatives over false
positives (ownership transfers on any call, loops assumed to run, taint
does not flow through calls or containers), so a clean run is a strong
signal but not a proof.
"""

from .driver import (
    DEEP_RULE_NAMES,
    DeepResult,
    deep_analyze,
    deep_rule_descriptors,
)

__all__ = [
    "DEEP_RULE_NAMES",
    "DeepResult",
    "deep_analyze",
    "deep_rule_descriptors",
]
