"""Span-taxonomy rule: instrumented modules only emit registered span names.

The Fig. 2 / Fig. 6 derived metrics and CI trace diffs key off span
names, so an instrumented module inventing a name silently breaks
attribution.  This rule finds every string-literal span name passed to a
tracer entry point — ``span``, ``complete``, ``instant``,
``async_begin``/``async_end``, ``flow_start``/``flow_end`` — or to a
``TimerGroup.time`` phase timer, and flags names missing from
:mod:`repro.observe.taxonomy`.
"""

from __future__ import annotations

import ast

from ..engine import Finding, Rule

#: methods that take a span/phase name as their first positional argument
TRACER_METHODS = frozenset(
    {"span", "complete", "instant", "async_begin", "async_end",
     "flow_start", "flow_end", "time"}
)

#: modules whose tracer calls must only use registered span names
#: (package paths, matched as ``/<path>`` suffixes of the absolute path)
INSTRUMENTED = (
    "repro/core/simulation.py",
    "repro/parallel/comm.py",
    "repro/parallel/distributed_sim.py",
    "repro/parallel/overload.py",
    "repro/parallel/swfft.py",
    "repro/gpusim/resident.py",
    "repro/iosim/tiers.py",
    "repro/iosim/bleed.py",
    "repro/campaign/runner.py",
    "repro/campaign/scheduler.py",
    "repro/perfmodel/campaign.py",
    "repro/resilience/checkpointer.py",
    "repro/resilience/coordinator.py",
)


def is_instrumented(path: str) -> bool:
    """True for the absolute posix ``path`` of an instrumented module."""
    return any(path.endswith("/" + mod) for mod in INSTRUMENTED)


def span_literal_calls(tree: ast.AST):
    """``(line, end_line, name)`` for every literal span-name call site."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in TRACER_METHODS
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            yield (node.lineno, getattr(node, "end_lineno", node.lineno),
                   node.args[0].value)


class SpanTaxonomyRule(Rule):
    name = "span-taxonomy"
    description = (
        "span names in instrumented modules must be registered in "
        "repro.observe.taxonomy (trace attribution breaks silently otherwise)"
    )

    def applies(self, ctx):
        return is_instrumented(ctx.path)

    def check(self, ctx):
        from ...observe.taxonomy import is_registered

        for line, end_line, name in span_literal_calls(ctx.tree):
            if not is_registered(name):
                yield Finding(
                    rule=self.name,
                    path=ctx.rel,
                    line=line,
                    end_line=end_line,
                    message=(
                        f"unregistered span name {name!r}; add it to "
                        "repro/observe/taxonomy.py or rename"
                    ),
                )
