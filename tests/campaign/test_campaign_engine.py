"""End-to-end campaign runs: shared artifacts, spans, specs.

The load-bearing guarantee, that a job's final particle state is a pure
function of the job spec (independent of cache temperature, eviction
pressure, pool concurrency and which worker ran it), is the golden
classes ``campaign`` and ``campaign_dist``
(tests/integration/test_golden_hashes.py); here distinct specs must
give distinct states.
"""

import pytest

from repro.campaign import (
    ArtifactCache,
    CampaignEngine,
    CampaignSpec,
    SimJob,
    expand_sweep,
    run_job,
)
from repro.observe import Observatory


def small_job(**over) -> SimJob:
    over.setdefault("n_per_dim", 4)
    over.setdefault("pm_grid", 8)
    return SimJob(**over)


class TestBitIdentity:
    def test_distinct_seeds_distinct_states(self):
        cache = ArtifactCache()
        h1 = run_job(small_job(seed=1), cache=cache).state_hash
        h2 = run_job(small_job(seed=2), cache=cache).state_hash
        assert h1 != h2

    def test_distinct_cosmologies_distinct_states(self):
        cache = ArtifactCache()
        from repro.cosmology.background import Cosmology

        h1 = run_job(small_job(cosmo=Cosmology(sigma8=0.76)),
                     cache=cache).state_hash
        h2 = run_job(small_job(cosmo=Cosmology(sigma8=0.81)),
                     cache=cache).state_hash
        assert h1 != h2


class TestSharedArtifacts:
    def test_repeated_cosmology_sweep_shares_artifacts(self):
        # 4 tenants, same cosmology, different seeds: power + greens are
        # shared; ICs are per-seed
        jobs = [small_job(name=f"t{i}", tenant=f"tenant{i}", seed=i + 1)
                for i in range(4)]
        engine = CampaignEngine(n_workers=2)
        report = engine.run(jobs)
        assert report.n_completed == 4
        assert engine.cache.stats("power") == \
            {"hits": 3, "misses": 1, "evictions": 0}
        assert engine.cache.stats("greens") == \
            {"hits": 3, "misses": 1, "evictions": 0}
        assert engine.cache.stats("ics")["misses"] == 4

    def test_campaign_spans_emitted(self):
        obs = Observatory(tracing=True)
        engine = CampaignEngine(n_workers=1, observe=obs)
        engine.run([small_job(name="sp")])
        names = {e.name for e in obs.tracer.events}
        for expected in ("campaign/job", "campaign/queued", "campaign/power",
                         "campaign/ics", "campaign/build", "campaign/run"):
            assert expected in names, expected
        # every campaign span name is registered in the taxonomy
        from repro.observe.taxonomy import is_registered

        assert all(is_registered(n) for n in names if n.startswith("campaign/"))


class TestSpec:
    def test_sweep_expansion_cartesian(self):
        jobs = expand_sweep(
            {"n_per_dim": 4, "tenant": "s"},
            {"seed": [1, 2, 3], "sigma8": [0.76, 0.81]},
        )
        assert len(jobs) == 6
        assert len({(j.seed, j.cosmo.sigma8) for j in jobs}) == 6
        assert all(j.tenant == "s" for j in jobs)
        assert len({j.name for j in jobs}) == 6  # auto-named uniquely

    def test_unknown_field_raises(self):
        # a misspelt field, and an option that no longer exists
        for base in ({"n_per_dmi": 4}, {"backend": "jit"}):
            with pytest.raises(ValueError, match="unknown job field"):
                expand_sweep(base, None)

    def test_spec_file_roundtrip(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            '{"workers": 3, "max_queue": 4, "policy": "reject",'
            ' "base": {"n_per_dim": 4, "pm_grid": 8},'
            ' "sweep": {"seed": [1, 2]},'
            ' "jobs": [{"name": "vip", "priority": 0, "seed": 5}]}'
        )
        spec = CampaignSpec.load(str(spec_path))
        assert spec.workers == 3 and spec.policy == "reject"
        assert len(spec.jobs) == 3
        vip = [j for j in spec.jobs if j.name == "vip"][0]
        assert vip.priority == 0 and vip.n_per_dim == 4  # base folded in

    def test_unknown_spec_key_raises(self):
        # "sweeps" for "sweep" would otherwise run the base job alone
        doc = {"base": {"n_per_dim": 4}, "sweeps": {"seed": [1, 2]},
               "worker": 3}
        with pytest.raises(ValueError, match=r"\['sweeps', 'worker'\]"):
            CampaignSpec.from_dict(doc)
