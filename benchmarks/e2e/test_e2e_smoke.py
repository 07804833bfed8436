"""Tier-1 bitrot guard for the end-to-end benchmark (``--scale smoke``).

Runs every workload once through the traced protocol in this process, and
one workload through ``run.py`` the way the benchmark driver calls it.
Timings at smoke scale mean nothing and are not asserted; names, counts,
checks and the bypass zeros are.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import e2e_compare
import e2e_protocol
import e2e_trace
import run as e2e_run
from e2e_workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
METRICS = e2e_run.METRICS
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced smoke run of every workload (pass 0, an untraced pass, a
    wrapped pass and, on the driver workloads, an Observatory pass)."""
    return {
        name: e2e_protocol.run_workload(
            name, seed=42, scale="smoke", seconds=0, trace=True,
            workdir=tmp_path_factory.mktemp(name))
        for name in WORKLOADS
    }


def _pick(rows, *keys):
    return [tuple(r[k] for k in keys) for r in rows]


def test_benchmark_json_agrees_with_the_tables():
    end_to_end = [m for m in METRICS["end_to_end"]
                  if m["name"] not in e2e_run.ZERO_WHEN_HEALTHY]
    fields = ("name", "unit", "better", "bound")
    assert (_pick(BENCHMARK["end_to_end"], *fields)
            == _pick(end_to_end, *fields))
    assert (_pick(BENCHMARK["per_layer"], *fields[:3])
            == _pick(METRICS["per_layer"], *fields[:3]))
    assert _pick(BENCHMARK["workloads"], "name", "why") == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert tuple(WORKLOADS) == e2e_run.WORKLOAD_NAMES
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert BENCHMARK["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert BENCHMARK["run_seconds"] == e2e_run.RUN_SECONDS
    names = [m["name"] for k in ("workloads", "end_to_end", "per_layer")
             for m in BENCHMARK[k]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in BENCHMARK["end_to_end"])


def test_every_declared_layer_metric_is_emitted_and_no_other(traced):
    declared = [m["name"] for m in BENCHMARK["per_layer"]]
    for name, record in traced.items():
        assert set(record["metrics"]) <= set(declared), name
        entry = {"runs": [], "traced_runs": [record],
                 "per_layer": e2e_run.roll_up([record], METRICS["per_layer"])}
        line = json.loads(e2e_run.contract_line(entry, trace=1))
        assert list(line["metrics"]) == declared
        assert line["correct"] and line["failed"] == 0, record["failed_checks"]
        assert record["missing_targets"] == []


def test_bypass_zeros_hold(traced):
    sedov = traced["sedov_hydro"]["metrics"]
    assert sedov.get("core.gravity.short_range_calls", 0) == 0
    assert sedov.get("core.gravity.pairs", 0) == 0
    assert sedov["core.sph.calls"] > 0
    dist = traced["dist2_clustered"]["metrics"]
    assert dist.get("core.sph.calls", 0) == 0
    assert dist["parallel.comm.collective_calls"] > 0
    assert dist["parallel.swfft.calls"] > 0
    for serial in ("cosmo_full_serial", "sedov_hydro", "campaign_sweep"):
        assert not [k for k, v in traced[serial]["metrics"].items()
                    if k.startswith("parallel.") and v], serial
    for other in ("sedov_hydro", "dist2_clustered"):
        assert not [k for k, v in traced[other]["metrics"].items()
                    if k.startswith(("campaign.", "analysis.", "iosim."))
                    and v], other
    assert traced["cosmo_full_serial"]["metrics"]["iosim.checkpoint_bytes"] > 0
    assert traced["campaign_sweep"]["metrics"]["campaign.cache_hits"] > 0


def test_counts_repeat_and_wrappers_are_restored(traced):
    # pass 0 and the wrapped pass are two traced passes of the same inputs
    for name, record in traced.items():
        assert record["varying"] == [], name
    assert e2e_trace.wrapped_names() == []


def test_layer_budget_sums_to_the_traced_wall(traced):
    for name, record in traced.items():
        b = record["budget"]
        total = (sum(b["layers"].values()) + b["driver_self_s"]
                 + b["unattributed_s"])
        assert total == pytest.approx(b["traced_wall_s"], rel=0.02), name
        assert b["driver_self_s"] >= 0 and b["unattributed_s"] >= 0, name


def test_driver_form_prints_the_result_line_last():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "sedov_hydro",
         "--seed", "3", "--seconds", "0", "--trace", "0", "--scale", "smoke"],
        stdout=subprocess.PIPE, text=True, timeout=120, check=True)
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"]
                                     for m in BENCHMARK["end_to_end"]]
    for m in BENCHMARK["end_to_end"]:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
    assert not (HERE / ".work").exists()


def test_compare_verdicts():
    wall = next(m for m in METRICS["end_to_end"] if m["name"] == "run_wall_s")
    rate = next(m for m in METRICS["end_to_end"]
                if m["name"] == "particle_updates_per_s")
    err = next(m for m in METRICS["end_to_end"] if m["name"] == "result_err")
    steady = [1.00, 1.01, 0.99]
    slower = [s * (1 + 2 * wall["bound"]) for s in steady]
    assert e2e_compare.verdict(wall, steady, steady) == "same"
    assert e2e_compare.verdict(wall, steady, slower) == "worse"
    assert e2e_compare.verdict(wall, slower, steady) == "better"
    assert e2e_compare.verdict(rate, steady, slower) == "better"
    wide = [1.0, 1.0 + 3 * wall["bound"], 1.0 + 6 * wall["bound"]]
    assert e2e_compare.verdict(wall, wide, wide) == "unresolved"
    assert e2e_compare.verdict(wall, wide, [0.5, 0.6, 0.7]) == "better"
    assert e2e_compare.verdict(err, [0.0], [1e-3]) == "worse"
    assert e2e_compare.verdict(err, [0.0], [0.0]) == "same"
