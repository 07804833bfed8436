"""Campaign job model: queued simulation requests and sweep specs.

A :class:`SimJob` is one queued "run my universe" request — a parameter
sweep member, an emulator-grid point, or a per-tenant interactive job.
Jobs are immutable value objects: everything that determines the run
(cosmology, seed, N, integration window) lives on the job, so the
artifact cache can key off it and two identical jobs are bit-identical
runs.

Spec files (JSON) drive ``python -m repro campaign --spec``::

    {
      "workers": 2, "max_queue": 16, "policy": "block", "cache_mb": 256,
      "base":  {"n_per_dim": 5, "box": 20.0, "n_pm_steps": 1,
                "tenant": "sweep"},
      "sweep": {"seed": [1, 2, 3], "sigma8": [0.76, 0.81]},
      "jobs":  [{"name": "vip", "tenant": "alice", "priority": 0}]
    }

``sweep`` is a cartesian product over the listed values; cosmology
parameters (``omega_m``, ``sigma8``, ``h``, ...) are folded into the
job's :class:`~repro.cosmology.background.Cosmology`.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, fields as dataclass_fields, replace

from ..cosmology.background import Cosmology

#: job fields that parameterize the Cosmology rather than the job itself
COSMO_PARAMS = frozenset(
    f.name for f in dataclass_fields(Cosmology) if f.init
)


@dataclass(frozen=True)
class SimJob:
    """One queued simulation request (immutable).

    ``priority`` selects the scheduling lane: 0 is the interactive lane,
    higher values are batch lanes served after every lower lane (FIFO
    within a lane).  ``ranks > 0`` runs the job on the distributed driver
    with that many simulated ranks instead of the serial one.
    """

    name: str = "job"
    tenant: str = "default"
    priority: int = 1
    # -- universe spec ---------------------------------------------------------
    n_per_dim: int = 5
    box: float = 20.0
    pm_grid: int = 12
    a_init: float = 0.25
    a_final: float = 0.35
    n_pm_steps: int = 1
    seed: int = 1
    lpt_order: int = 1
    cosmo: Cosmology = field(default_factory=Cosmology)
    # -- physics / driver ------------------------------------------------------
    hydro: bool = True
    subgrid: bool = False
    u_init: float = 20.0
    max_rung: int = 2
    ranks: int = 0
    #: wall-clock budget for one run of this job (seconds; 0 = none).
    #: A running job past its deadline is cancelled at the next step
    #: boundary and lands in the ``cancelled`` terminal state — distinct
    #: from ``failed``, and never re-admitted by the retry policy.
    deadline_s: float = 0.0

    @property
    def n_particles(self) -> int:
        n = self.n_per_dim**3
        return 2 * n if self.hydro else n


@dataclass
class JobResult:
    """Completion record of one job (the scheduler's unit of accounting)."""

    job: SimJob
    status: str  # "completed" | "failed" | "cancelled"
    worker: int = -1
    #: how many times the engine ran this job (retries re-admit failed
    #: jobs under the engine's RetryPolicy; 1 = first and only attempt)
    attempts: int = 1
    wall_seconds: float = 0.0
    queue_wait_seconds: float = 0.0
    #: simulated-clock total delivered: Gyr of cosmic time this universe
    #: was evolved through (the tenant's "science clock")
    sim_gyr: float = 0.0
    n_steps: int = 0
    n_particles: int = 0
    #: sha256 over the final particle state — the cheap bit-identity probe
    #: the cache-correctness tests and the warm/cold ablation compare
    state_hash: str = ""
    #: final particle arrays, retained only when the engine runs with
    #: ``keep_state=True`` (tests, small campaigns)
    state: dict | None = None
    error: str = ""


def job_from_dict(d: dict, base: SimJob | None = None) -> SimJob:
    """Build a job from a spec dict, folding cosmology params in.

    Unknown keys raise — silent typos in a sweep spec would otherwise
    run the wrong campaign.
    """
    base = base if base is not None else SimJob()
    cosmo_over = {k: float(v) for k, v in d.items() if k in COSMO_PARAMS}
    job_over = {k: v for k, v in d.items() if k not in COSMO_PARAMS}
    valid = {f.name for f in dataclass_fields(SimJob)}
    unknown = set(job_over) - valid
    if unknown:
        raise ValueError(f"unknown job field(s): {sorted(unknown)}")
    if cosmo_over:
        cosmo_fields = {
            f.name: getattr(base.cosmo, f.name)
            for f in dataclass_fields(Cosmology) if f.init
        }
        cosmo_fields.update(cosmo_over)
        job_over["cosmo"] = Cosmology(**cosmo_fields)
    return replace(base, **job_over)


def expand_sweep(base: dict | None, sweep: dict | None) -> list[SimJob]:
    """Cartesian-product sweep expansion: one job per combination."""
    base_job = job_from_dict(base or {})
    if not sweep:
        return [base_job]
    keys = sorted(sweep)
    combos = list(itertools.product(*(sweep[k] for k in keys)))
    jobs = []
    for i, combo in enumerate(combos):
        over = dict(zip(keys, combo))
        over.setdefault("name", f"{base_job.name}-{i:04d}")
        jobs.append(job_from_dict(over, base=base_job))
    return jobs


#: the top-level keys a campaign spec file may carry
SPEC_KEYS = frozenset(
    {"workers", "max_queue", "policy", "cache_mb", "base", "sweep", "jobs"}
)


@dataclass
class CampaignSpec:
    """A parsed campaign spec file: engine knobs plus the job list."""

    jobs: list
    workers: int = 2
    max_queue: int = 16
    policy: str = "block"
    cache_mb: float = 256.0

    @classmethod
    def from_dict(cls, doc: dict) -> "CampaignSpec":
        unknown = set(doc) - SPEC_KEYS
        if unknown:
            raise ValueError(f"unknown campaign spec key(s): {sorted(unknown)}")
        jobs = expand_sweep(doc.get("base"), doc.get("sweep")) \
            if (doc.get("base") or doc.get("sweep")) else []
        base_job = job_from_dict(doc.get("base") or {})
        for jd in doc.get("jobs", ()):
            jobs.append(job_from_dict(jd, base=base_job))
        if not jobs:
            raise ValueError("spec contains no jobs (need base/sweep or jobs)")
        return cls(
            jobs=jobs,
            workers=int(doc.get("workers", 2)),
            max_queue=int(doc.get("max_queue", 16)),
            policy=str(doc.get("policy", "block")),
            cache_mb=float(doc.get("cache_mb", 256.0)),
        )

    @classmethod
    def load(cls, path: str) -> "CampaignSpec":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))
