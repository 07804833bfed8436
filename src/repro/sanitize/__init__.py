"""repro.sanitize: static lint engine + runtime sanitizers.

Two halves of one correctness-tooling story (DESIGN.md "Correctness
tooling"):

- the **AST lint engine** (:class:`LintEngine` + the rule catalog in
  :mod:`repro.sanitize.rules`) enforces repo-wide source disciplines —
  hot-path scatters, the span taxonomy, clock discipline, seeded
  randomness, core dtype discipline — with inline
  ``# sanitize: allow-<rule>`` pragmas and recorded-debt baselines.
  Run it as ``python -m repro lint``; ``--deep`` adds the
  whole-program comm-safety analyses in :mod:`repro.sanitize.deep`
  (request lifecycle, collective divergence, span balance).
- the **runtime sanitizers** catch what static analysis cannot:
  :class:`CommSanitizer` (request leaks and double-waits on the
  simulated MPI layer),
  :class:`LaneSanitizer` (non-atomic lane write collisions in gpusim
  warp passes), and :class:`NumericsSanitizer` (NaN/Inf and energy
  blowups at driver phase boundaries).  Each is opt-in per run —
  ``World(..., sanitize=True)``, ``SimulationConfig.sanitize``,
  ``DistributedConfig.sanitize`` — and free when off.
"""

from .baseline import apply_baseline, load_baseline, write_baseline
from .comm import CommFinding, CommSanitizer
from .deep import DEEP_RULE_NAMES, deep_analyze, deep_rule_descriptors
from .engine import FileContext, Finding, LintEngine, LintResult, Rule, parse_file
from .lanes import LaneCollisionError, LaneSanitizer
from .numerics import NumericsError, NumericsSanitizer, kinetic_internal_energy
from .reporting import render_json, render_text
from .rules import default_rules, get_rules

__all__ = [
    "CommFinding",
    "CommSanitizer",
    "DEEP_RULE_NAMES",
    "FileContext",
    "Finding",
    "LaneCollisionError",
    "LaneSanitizer",
    "LintEngine",
    "LintResult",
    "NumericsError",
    "NumericsSanitizer",
    "Rule",
    "apply_baseline",
    "deep_analyze",
    "deep_rule_descriptors",
    "default_rules",
    "get_rules",
    "kinetic_internal_energy",
    "load_baseline",
    "parse_file",
    "render_json",
    "render_text",
    "write_baseline",
]
