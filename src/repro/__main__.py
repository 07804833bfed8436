"""Command-line front door: ``python -m repro <command>``.

Commands
--------
campaign    print the full Frontier-E campaign summary (Figs. 2 & 5 numbers)
scaling     print the Fig. 4 strong/weak scaling table
landscape   print the Fig. 1 simulation-landscape table
utilization print the Fig. 6 vendor and redshift utilization numbers
demo        run a small end-to-end simulation and print its in situ report
ensemble    plan an ensemble campaign under a node-hour budget (paper §VII)
lint        run the repo's AST lint rules (see repro.sanitize)
"""

from __future__ import annotations

import argparse
import sys


def cmd_campaign(args) -> int:
    """Frontier-E campaign model summary, or — with ``--spec`` — run a
    real many-universe campaign through the execution engine."""
    if getattr(args, "spec", None):
        return _run_campaign_spec(args)

    from .perfmodel import CampaignModel, hydro_vs_gravity_cost_ratio

    result = CampaignModel().run()
    if getattr(args, "model_trace", None):
        from .perfmodel.campaign import export_schedule

        doc = export_schedule(result, args.model_trace)
        print(f"model trace: {len(doc['traceEvents'])} events "
              f"({len(result.steps)} steps) -> {args.model_trace} "
              f"(open in ui.perfetto.dev)")
    print(f"Frontier-E campaign model ({len(result.steps)} PM steps)")
    print(f"  wall clock        {result.wallclock_hours:8.1f} h   (paper 196)")
    print(f"  node-hours        {result.node_hours / 1e6:8.2f} M  (paper ~1.7)")
    print(f"  data written      {result.total_data_pb:8.1f} PB  (paper >100)")
    print(f"  effective I/O     {result.effective_io_tbps:8.2f} TB/s (paper 5.45)")
    print(f"  GPU residency     {result.gpu_resident_fraction * 100:8.1f} %  (paper 91.2)")
    print("  component fractions:")
    for k, v in sorted(result.fractions.items(), key=lambda kv: -kv[1]):
        print(f"    {k:<12} {v * 100:5.1f}%")
    r = hydro_vs_gravity_cost_ratio()
    print(f"  gravity-only: {r['gravity_only_hours']:.1f} h -> hydro {r['ratio']:.1f}x "
          f"(paper ~16x)")
    return 0


def _run_campaign_spec(args) -> int:
    """Execute a campaign spec file on the pooled engine."""
    from .campaign import CampaignEngine, CampaignSpec
    from .observe import Observatory

    spec = CampaignSpec.load(args.spec)
    workers = args.workers if args.workers else spec.workers
    obs = Observatory(tracing=args.trace is not None)
    engine = CampaignEngine(
        n_workers=workers, max_queue=spec.max_queue, policy=spec.policy,
        cache_bytes=int(spec.cache_mb * (1 << 20)), observe=obs,
    )
    print(f"campaign: {len(spec.jobs)} jobs on {workers} workers "
          f"(queue {spec.max_queue}, policy {spec.policy}, "
          f"cache {spec.cache_mb:.0f} MB)")
    report = engine.run(spec.jobs)
    print(f"  completed {report.n_completed}/{report.n_submitted} "
          f"({report.n_failed} failed, {report.n_rejected} rejected) "
          f"in {report.wall_seconds:.2f} s")
    print(f"  throughput       {report.universes_per_hour:10.1f} universes/h")
    cs = report.cache_stats
    total = cs.get("hits", 0) + cs.get("misses", 0)
    if total:
        print(f"  artifact cache   {cs['hits']}/{total} hits "
              f"({cs['hits'] / total * 100:.0f}%), "
              f"{cs['evictions']} evictions, "
              f"{engine.cache.nbytes / 1e6:.1f} MB resident")
    if report.tenants:
        print(f"  {'tenant':<12} {'done':>5} {'fail':>5} {'wall s':>8} "
              f"{'sim Gyr':>8} {'s/universe':>11}")
        for row in report.tenants:
            print(f"  {row.tenant:<12} {row.jobs_completed:>5} "
                  f"{row.jobs_failed:>5} {row.wall_seconds:>8.2f} "
                  f"{row.sim_gyr:>8.2f} {row.wall_per_universe:>11.2f}")
    for res in report.results:
        if res.status == "failed":
            print(f"  FAILED {res.job.name} ({res.job.tenant}): {res.error}")
    if args.trace is not None:
        obs.export_chrome_trace(args.trace)
        print(f"  trace: {len(obs.tracer.events)} events -> {args.trace}")
    return 0 if report.n_failed == 0 else 1


def cmd_scaling(_args) -> int:
    """Print the Fig. 4 strong/weak scaling table."""
    from .perfmodel import figure4_table, machine_flop_rates

    print(f"{'nodes':>6} {'weak part/s':>12} {'weak eff':>9} "
          f"{'strong s/step':>14} {'strong eff':>11}")
    for p in figure4_table():
        print(f"{p.n_nodes:>6} {p.weak_particles_per_sec:>12.3e} "
              f"{p.weak_efficiency * 100:>8.1f}% "
              f"{p.strong_seconds_per_step:>14.2f} "
              f"{p.strong_efficiency * 100:>10.1f}%")
    rates = machine_flop_rates()
    print(f"Frontier-E: peak {rates['peak_pflops']:.1f} PFLOPs, "
          f"sustained {rates['sustained_pflops']:.1f} PFLOPs")
    return 0


def cmd_landscape(_args) -> int:
    """Print the Fig. 1 simulation-landscape table."""
    from .perfmodel import capability_leap_factor, landscape_catalog

    print(f"{'simulation':<16} {'code':<10} {'type':<13} {'box Gpc':>8} "
          f"{'elements':>10}")
    for s in landscape_catalog():
        kind = "hydro" if s.hydro else "gravity-only"
        print(f"{s.name:<16} {s.code:<10} {kind:<13} {s.box_gpc:>8.2f} "
              f"{s.resolution_elements:>10.2e}")
    print(f"capability leap: {capability_leap_factor():.1f}x")
    return 0


def cmd_utilization(_args) -> int:
    """Print the Fig. 6 utilization numbers."""
    from .gpusim import (
        H100_SXM5,
        MI250X_GCD,
        PVC_TILE,
        peak_utilization,
        sustained_utilization,
    )
    from .perfmodel import rank_utilization_samples

    print("single-node (Fig. 6 left):")
    for d in (MI250X_GCD, PVC_TILE, H100_SXM5):
        print(f"  {d.vendor:<7} sustained {sustained_utilization(d) * 100:5.1f}%  "
              f"peak {peak_utilization(d) * 100:5.1f}%")
    print("full machine (Fig. 6 right, 9000 ranks):")
    for label, a, flat in (("high z", 0.1, False), ("low z", 1.0, False),
                           ("low z Flat", 1.0, True)):
        s = rank_utilization_samples(MI250X_GCD, a=a, n_ranks=9000, flat=flat)
        print(f"  {label:<11} mean {s.mean() * 100:5.1f}%  std {s.std() * 100:4.2f}%")
    return 0


def _run_chaos_demo(args) -> int:
    """Distributed chaos run: kill ranks mid-step, recover, verify.

    Drives a 4-rank-class :class:`DistributedSimulation` under the
    :class:`~repro.resilience.RecoveryCoordinator` with an injected
    fault plan (explicit ``--inject-fault rank:step[:phase]`` kills
    and/or a seeded ``--mtti`` draw), then replays a clean restart from
    the recovery checkpoint on the surviving rank count and checks the
    final states are bit-identical.
    """
    import tempfile

    import numpy as np

    from .campaign.runner import state_hash
    from .observe import Observatory
    from .parallel.distributed_sim import (
        DistributedConfig,
        DistributedSimulation,
    )
    from .resilience import (
        FaultPlan,
        RecoveryCoordinator,
        TieredCheckpointStore,
    )

    rng = np.random.default_rng(args.seed)
    box = 120.0
    centers = rng.uniform(0, box, size=(4, 3))
    pts = [np.mod(c + rng.normal(0, 6.0, size=(24, 3)), box)
           for c in centers]
    pos = np.vstack(pts)
    vel = rng.normal(0, 50.0, size=pos.shape)
    mass = np.full(len(pos), 1.0e10)
    # r_split_cells=0.75 keeps the short-range cutoff inside half a rank
    # domain even after the decomposition shrinks onto the survivors
    cfg = DistributedConfig(
        box=box, pm_grid=32, a_init=0.3, a_final=0.34,
        n_pm_steps=args.steps, r_split_cells=0.75, max_rung=3,
        comm_mode="overlap", subcycle=True, sanitize=True,
    )
    kills = []
    if args.inject_fault:
        kills.extend(FaultPlan.parse(args.inject_fault).kills)
    if args.mtti:
        kills.extend(FaultPlan.from_mtti(
            args.mtti, args.steps, args.ranks, seed=args.seed,
        ).kills)
    plan = FaultPlan(kills) if kills else None
    print(f"chaos demo: {len(pos)} particles on {args.ranks} ranks, "
          f"{args.steps} PM steps, {len(kills)} planned kill(s)")
    for k in kills:
        print(f"  kill rank {k.rank} at step {k.step}"
              + (f" phase {k.phase}" if k.phase else ""))

    obs = Observatory(tracing=args.trace is not None)
    with tempfile.TemporaryDirectory() as ckpt_dir, \
            TieredCheckpointStore(ckpt_dir, n_nodes=args.ranks) as store:
        coord = RecoveryCoordinator(store, observe=obs)
        res = coord.run(cfg, args.ranks, pos, vel, mass, fault_plan=plan)
        for r in res.recoveries:
            print(f"  recovered: rank {r.failed_rank} died at step "
                  f"{r.failed_step} ({r.failed_phase or 'compute'}); "
                  f"restored step {r.restored_step} from {r.tier}, "
                  f"{r.ranks_before} -> {r.ranks_after} ranks "
                  f"({r.n_requests} requests, {r.n_unsettled} unsettled)")
        print(f"final: a={cfg.a_final:g} on {res.n_ranks_final} ranks "
              f"after {res.n_attempts} attempt(s)")
        print(f"  state hash {state_hash(pos=res.pos, vel=res.vel)[:16]}")
        ok = True
        if res.recoveries:
            rp, rv, _ids = DistributedSimulation(cfg, args.ranks).run(
                pos, vel, mass)
            ok = state_hash(pos=rp, vel=rv) == \
                state_hash(pos=res.pos, vel=res.vel)
            print(f"  uninterrupted-run hash match: {ok}")
        san = coord.last_sim.world.sanitizer
        findings = san.findings if san is not None else []
        print(f"  sanitizer findings: {len(findings)}")
        ok = ok and not findings
    if args.trace is not None:
        obs.export_chrome_trace(args.trace)
        print(f"trace: {len(obs.tracer.events)} events -> {args.trace} "
              f"(open in ui.perfetto.dev)")
    return 0 if ok else 1


def cmd_demo(args) -> int:
    """Run a small end-to-end simulation and print its in situ report."""
    import numpy as np

    if args.ranks > 0:
        return _run_chaos_demo(args)

    from .analysis import InSituPipeline
    from .core.particles import make_gas_dm_pair
    from .core.simulation import Simulation, SimulationConfig
    from .cosmology import PLANCK18, zeldovich_ics
    from .observe import Observatory

    box = 20.0
    ics = zeldovich_ics(args.n, box, PLANCK18, a_init=0.25, seed=args.seed)
    parts = make_gas_dm_pair(
        ics.positions, ics.velocities, ics.particle_mass,
        PLANCK18.omega_b, PLANCK18.omega_m, u_init=20.0, box=box,
    )
    cfg = SimulationConfig(
        box=box, pm_grid=16, a_init=0.25, a_final=0.45,
        n_pm_steps=args.steps, cosmo=PLANCK18, subgrid=True, max_rung=3,
    )
    obs = Observatory(tracing=args.trace is not None)
    sim = Simulation(cfg, parts, observe=obs)
    pipe = InSituPipeline(n_grid=16, min_members=8)
    sim.insitu_hooks.append(pipe)
    print(f"demo: {len(parts)} particles, {args.steps} PM steps")
    records = sim.run()
    for rec, rep in zip(records, pipe.reports):
        print(f"  step {rec.step}: a={rec.a:.3f} substeps={rec.n_substeps} "
              f"halos={rep.n_halos} galaxies={rep.n_galaxies} "
              f"delta_rms={rep.clustering_rms:.3f}")
    p = sim.particles
    print(f"final: {int(p.gas.sum())} gas, {int(p.stars.sum())} stars, "
          f"{int(p.black_holes.sum())} BH; "
          f"T_med={sim.eos.temperature(np.median(p.u[p.gas])):.2e} K")
    if args.trace is not None:
        obs.export_chrome_trace(args.trace)
        n_events = len(obs.tracer.events)
        print(f"trace: {n_events} events -> {args.trace} "
              f"(open in ui.perfetto.dev)")
    return 0


def cmd_ensemble(args) -> int:
    """Plan an ensemble campaign under a node-hour budget (paper §VII)."""
    import numpy as np

    from .constants import FRONTIER_E_PARTICLES
    from .perfmodel import plan_ensemble

    print(f"ensemble planning under {args.budget:.1e} node-hours:")
    for frac, label in ((1.0, "Frontier-E twins"), (1 / 8, "1/8 size"),
                        (1 / 64, "1/64 size")):
        plan = plan_ensemble(args.budget, FRONTIER_E_PARTICLES * frac,
                             hydro=not args.gravity_only)
        cov = plan.covariance_precision()
        cov_str = f"{cov * 100:.1f}%" if np.isfinite(cov) else "undetermined"
        print(f"  {label:<18} {plan.n_members:5d} members "
              f"({plan.members[0].node_hours if plan.members else 0:.2e} "
              f"node-h each) -> covariance precision {cov_str}")
    return 0


def cmd_lint(args) -> int:
    """Run every lint rule; exit 0 clean / 1 findings or unreadable path."""
    import os

    from .sanitize import LintEngine, render_text

    engine = LintEngine()
    result = engine.lint_paths(
        args.paths or [os.path.dirname(os.path.abspath(__file__))])
    print(render_text(result, engine.rules))
    return 0 if result.clean else 1


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="CRK-HACC / Frontier-E reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    camp = sub.add_parser(
        "campaign",
        help="Frontier-E campaign summary, or run a sweep with --spec",
    )
    camp.add_argument("--spec", metavar="SPEC.json", default=None,
                      help="run a many-universe campaign from a spec file")
    camp.add_argument("--workers", type=int, default=0,
                      help="override the spec's worker-pool size")
    camp.add_argument("--trace", metavar="OUT.json", default=None,
                      help="export a Chrome/Perfetto trace of the campaign")
    camp.add_argument("--model-trace", metavar="OUT.json", default=None,
                      help="export the 625-step model schedule "
                           "(simulated clock) as a Perfetto trace")
    sub.add_parser("scaling", help="Fig. 4 scaling table")
    sub.add_parser("landscape", help="Fig. 1 landscape table")
    sub.add_parser("utilization", help="Fig. 6 utilization numbers")
    demo = sub.add_parser("demo", help="small end-to-end simulation")
    demo.add_argument("--n", type=int, default=7, help="particles per dim")
    demo.add_argument("--steps", type=int, default=3, help="PM steps")
    demo.add_argument("--seed", type=int, default=1)
    demo.add_argument("--trace", metavar="OUT.json", default=None,
                      help="export a Chrome/Perfetto trace of the run")
    demo.add_argument("--ranks", type=int, default=0,
                      help="run the distributed chaos demo on this many "
                           "simulated ranks (0 = serial in situ demo)")
    demo.add_argument("--inject-fault", metavar="RANK:STEP[:PHASE]",
                      default=None,
                      help="kill rank(s) mid-run and recover, e.g. 2:1:rung "
                           "(comma-separate multiple kills)")
    demo.add_argument("--mtti", type=float, default=0.0,
                      help="draw seeded rank deaths with this mean time to "
                           "interruption (in steps)")
    ens = sub.add_parser("ensemble", help="plan an ensemble campaign")
    ens.add_argument("--budget", type=float, default=2.0e7,
                     help="node-hour budget")
    ens.add_argument("--gravity-only", action="store_true")
    lint = sub.add_parser("lint", help="run the repo's AST lint rules")
    lint.add_argument("paths", nargs="*",
                      help="files/directories (default: the repro package)")

    args = parser.parse_args(argv)
    return {
        "campaign": cmd_campaign,
        "scaling": cmd_scaling,
        "landscape": cmd_landscape,
        "utilization": cmd_utilization,
        "demo": cmd_demo,
        "ensemble": cmd_ensemble,
        "lint": cmd_lint,
    }[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
