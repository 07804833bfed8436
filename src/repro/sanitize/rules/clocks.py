"""Clock-discipline rule: no raw wall-clock reads in instrumented modules.

The observability layer defines exactly two time bases (DESIGN.md
"Observability"): wall-clock spans measured through ``TimerGroup`` /
``Timer`` / the tracer, and simulated-fabric time passed to the tracer
as explicit model timestamps.  A raw ``time.perf_counter()`` /
``time.time()`` inside an instrumented module produces seconds that no
registry instrument or trace track can attribute — timing data that
silently escapes the Fig. 2 / Fig. 5 accounting.  Measurement belongs
in ``TimerGroup.time(phase)``; model timestamps go explicitly to
``Tracer.complete(ts=...)`` on the ``SIM_PID`` track.  The transport
layer itself (``parallel/comm.py``), whose fabric-latency model *is*
built from ``perf_counter`` deadlines, carries a file-level pragma.
"""

from __future__ import annotations

import ast

from ..engine import Finding, Rule, dotted_name
from .spans import is_instrumented

#: time-module entry points that read a wall clock
_WALL_FUNCS = frozenset({"perf_counter", "perf_counter_ns", "time", "time_ns"})


def _time_aliases(tree: ast.AST):
    """Names bound to the time module and to its wall-clock functions."""
    modules = set()
    funcs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time":
                    modules.add(alias.asname or "time")
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in _WALL_FUNCS:
                    funcs.add(alias.asname or alias.name)
    return modules, funcs


class ClockDisciplineRule(Rule):
    name = "clock-discipline"
    description = (
        "instrumented modules must not read raw wall clocks; time phases "
        "with TimerGroup/Timer, stamp models with observe.clock"
    )

    def applies(self, ctx):
        return is_instrumented(ctx.path)

    def check(self, ctx):
        modules, funcs = _time_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            bad = None
            dn = dotted_name(node.func)
            if dn is not None:
                parts = dn.split(".")
                if (
                    len(parts) == 2
                    and parts[0] in modules
                    and parts[1] in _WALL_FUNCS
                ):
                    bad = dn
            if (
                bad is None
                and isinstance(node.func, ast.Name)
                and node.func.id in funcs
            ):
                bad = node.func.id
            if bad is not None:
                yield Finding(
                    rule=self.name,
                    path=ctx.rel,
                    line=node.lineno,
                    end_line=getattr(node, "end_lineno", node.lineno),
                    message=(
                        f"raw wall-clock read {bad}() in an instrumented "
                        "module; use TimerGroup.time(phase) for measurement "
                        "or explicit Tracer.complete(ts=...) model timestamps"
                    ),
                )
