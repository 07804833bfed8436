"""repro.sanitize: static lint engine + runtime sanitizers.

Two halves of one correctness-tooling story (DESIGN.md "Correctness
tooling"):

- the **AST lint engine** (:class:`LintEngine` + the rule catalog in
  :mod:`repro.sanitize.rules`) enforces repo-wide source disciplines —
  hot-path scatters, the span taxonomy, clock discipline, seeded
  randomness, core dtype discipline — with inline
  ``# sanitize: allow-<rule>`` pragmas.  Run it as
  ``python -m repro lint [paths]``; a rule's scope follows the file's
  package path, so the result does not depend on the working directory.
- the **runtime sanitizers** catch what static analysis cannot:
  :class:`CommSanitizer` (request leaks and double-waits on the
  simulated MPI layer),
  :class:`LaneSanitizer` (non-atomic lane write collisions in gpusim
  warp passes), and :class:`NumericsSanitizer` (NaN/Inf and energy
  blowups at driver phase boundaries).  Each is opt-in per run —
  ``World(..., sanitize=True)``, ``SimulationConfig.sanitize``,
  ``DistributedConfig.sanitize`` — and free when off.

Comm safety is checked by running the program, not by a static model of
it: the test suite kills each rank inside every collective post site and
requires :class:`CommSanitizer` to find every request settled (DESIGN.md
"How comm safety is checked").
"""

from .comm import CommFinding, CommSanitizer
from .engine import LintEngine, render_text
from .lanes import LaneCollisionError, LaneSanitizer
from .numerics import NumericsError, NumericsSanitizer, kinetic_internal_energy
from .rules import default_rules

__all__ = [
    "CommFinding",
    "CommSanitizer",
    "LaneCollisionError",
    "LaneSanitizer",
    "LintEngine",
    "NumericsError",
    "NumericsSanitizer",
    "default_rules",
    "kinetic_internal_energy",
    "render_text",
]
