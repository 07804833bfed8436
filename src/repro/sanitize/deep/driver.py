"""Deep-analysis driver: build the program, run the rules, filter pragmas.

The engine's per-file pragma machinery applies unchanged: a
``# sanitize: allow-request-lifecycle`` on (or above) the flagged
statement suppresses the finding, ``allow-file-<rule>`` anywhere in the
file suppresses the whole file, and baselines are applied by the CLI
after deep findings are merged with the per-file rule findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import collective, lifecycle, spanbalance
from .modgraph import Program

DEEP_RULE_NAMES = (
    lifecycle.RULE,
    collective.RULE,
    spanbalance.RULE,
)

_DESCRIPTIONS = {
    lifecycle.RULE: (
        "every nonblocking post (ialltoallv/iallgather/iallreduce) must "
        "reach wait() or cancel() on all paths, and every request slot "
        "needs a wait path (interprocedural)"
    ),
    collective.RULE: (
        "collectives must not sit under rank-dependent control "
        "flow or diverge in posting order across branches (static "
        "deadlock source)"
    ),
    spanbalance.RULE: (
        "every async_begin/flow_start tracer slice is ended somewhere "
        "in the program and registered in taxonomy.ASYNC_SPANS"
    ),
}


@dataclass(frozen=True)
class DeepRuleDescriptor:
    """Name/description carrier matching the reporting Rule interface."""

    name: str
    description: str


def deep_rule_descriptors(names=DEEP_RULE_NAMES):
    return [DeepRuleDescriptor(n, _DESCRIPTIONS[n]) for n in names]


@dataclass
class DeepResult:
    """Outcome of one deep-analysis run (pre-baseline)."""

    findings: list = field(default_factory=list)
    n_files: int = 0
    n_suppressed: int = 0
    errors: list = field(default_factory=list)
    program: Program | None = None


def deep_analyze(paths, root=None, rules=None) -> "DeepResult":
    """Run the whole-program rules over ``paths``.

    ``rules`` optionally restricts to a subset of
    :data:`DEEP_RULE_NAMES`. Findings are pragma-filtered but *not*
    baseline-filtered — the CLI applies the shared baseline after
    merging with the per-file engine findings.
    """
    selected = tuple(rules) if rules is not None else DEEP_RULE_NAMES
    unknown = [r for r in selected if r not in DEEP_RULE_NAMES]
    if unknown:
        raise KeyError(
            f"unknown deep rule(s): {', '.join(sorted(unknown))}; "
            f"known: {', '.join(DEEP_RULE_NAMES)}"
        )
    program = Program.build(paths, root=root)
    raw = []
    if lifecycle.RULE in selected:
        found, _store = lifecycle.analyze_program(program)
        raw.extend(found)
    if collective.RULE in selected:
        raw.extend(collective.analyze_program(program))
    if spanbalance.RULE in selected:
        raw.extend(spanbalance.analyze_program(program))

    result = DeepResult(
        n_files=len(program.modules),
        errors=list(program.errors),  # (path, message), engine-shaped
        program=program,
    )
    for finding in sorted(raw, key=lambda f: (f.path, f.line, f.rule,
                                              f.message)):
        mod = program.by_rel.get(finding.path)
        if mod is not None and mod.ctx.allowed(
            finding.rule, finding.line, finding.end_line
        ):
            result.n_suppressed += 1
            continue
        result.findings.append(finding)
    return result
