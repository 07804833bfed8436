"""Dtype-discipline rule: core state arrays stay float64.

The physics core integrates in float64; FP32 belongs only to the
deliberate mixed-precision path (``core/gravity/precision.py``, which
models the GPU kernels and carries a file-level pragma) and to the
gpusim device models.  A stray ``dtype=np.float32`` (or a ``"float32"``
string literal) in a ``core/`` state-array allocation silently halves
the precision of everything downstream — conservation checks drift,
equivalence tests develop mysterious tolerances.  This rule flags every
float32 dtype reference in ``core/`` modules.
"""

from __future__ import annotations

import ast

from ..engine import Finding, Rule, dotted_name, numpy_aliases

_F32_NAMES = frozenset({"float32", "single", "half", "float16"})


class DtypeDisciplineRule(Rule):
    name = "dtype-discipline"
    description = (
        "no implicit float32 in core/ state arrays; core integrates in "
        "float64 (mixed precision lives in core/gravity/precision.py)"
    )

    def applies(self, ctx):
        return "/repro/core/" in ctx.path

    def check(self, ctx):
        np_names = numpy_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            bad = None
            if isinstance(node, ast.Attribute):
                dn = dotted_name(node)
                if dn is not None:
                    parts = dn.split(".")
                    if (
                        len(parts) == 2
                        and parts[0] in np_names
                        and parts[1] in _F32_NAMES
                    ):
                        bad = dn
            elif isinstance(node, ast.Constant) and node.value in _F32_NAMES:
                bad = f"{node.value!r}"
            if bad is not None:
                yield Finding(
                    rule=self.name,
                    path=ctx.rel,
                    line=node.lineno,
                    end_line=getattr(node, "end_lineno", node.lineno),
                    message=(
                        f"{bad} in a core/ module; core state arrays are "
                        "float64 — deliberate mixed precision belongs in "
                        "core/gravity/precision.py"
                    ),
                )
