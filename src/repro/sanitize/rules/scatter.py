"""Hot-path scatter rule: no buffered ufunc scatters outside modeled sites.

``np.add.at`` / ``np.maximum.at`` are slow in their multi-dimensional
form: a ``(P, 3)`` ``add.at`` of 148k rows into 1,024 particles takes
6.2 ms against 1.3 ms for the three ``bincount`` calls of
``segment_sum`` (NumPy 2.4.6, 2-vCPU VM).  The 1-D form is not slow
(0.21 ms against 0.23 ms for one ``bincount``), and lives in
:mod:`repro.core.scatter` as the running reductions ``running_sum`` /
``running_max`` that streamed kernels continue block by block.  This rule
keeps every buffered scatter elsewhere out: it must either move to
``segment_sum`` / ``SegmentReducer`` / the running reductions or carry an
``# sanitize: allow-scatter`` pragma, reserved for those two helpers, for
sites that deliberately *model* device atomics (the gpusim warp executor)
and for cold paths with tiny index sets (subgrid feedback deposition).
"""

from __future__ import annotations

import ast

from ..engine import (
    Finding,
    Rule,
    dotted_name,
    numpy_aliases,
    numpy_member_aliases,
)

#: ufuncs whose ``.at`` form is a buffered scatter
_SCATTER_UFUNCS = ("add", "maximum", "minimum", "subtract", "multiply")


class HotPathScatterRule(Rule):
    name = "scatter"
    description = (
        "no np.<ufunc>.at buffered scatters; use repro.core.scatter "
        "segment reductions (pragma only for deliberate atomic models)"
    )

    def check(self, ctx):
        np_names = numpy_aliases(ctx.tree)
        members = numpy_member_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dn = dotted_name(node.func)
            if dn is None or not dn.endswith(".at"):
                continue
            parts = dn.split(".")
            if (
                len(parts) == 3
                and parts[0] in np_names
                and parts[1] in _SCATTER_UFUNCS
            ):
                pass  # np.add.at(...)
            elif (
                len(parts) == 2
                and members.get(parts[0]) in _SCATTER_UFUNCS
            ):
                # from numpy import add [as x]; x.at(...)
                parts = [parts[0], members[parts[0]], "at"]
            else:
                continue
            yield Finding(
                    rule=self.name,
                    path=ctx.rel,
                    line=node.lineno,
                    end_line=getattr(node, "end_lineno", node.lineno),
                    message=(
                        f"buffered ufunc scatter {parts[1]}.at; use "
                        "repro.core.scatter.segment_sum/segment_max (or "
                        "SegmentReducer over a cached pair list), or pragma "
                        "an intentional device-atomic model site"
                    ),
                )
