"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper: it prints
the same rows/series the paper reports (shape-comparable, not
absolute-hardware-comparable) and records the key numbers in
``benchmark.extra_info`` so they land in the pytest-benchmark JSON.

Smoke mode (the default under plain ``pytest``): every ``bench_*`` script
runs a tiny-N version of itself in a few seconds, exercising the full
code path so benchmark bitrot fails tier-1 immediately.  Timing-ratio
assertions only make sense at real problem sizes, so they are gated on
``REPRO_BENCH_FULL=1``.  Recorded performance numbers with provenance
come from ``benchmarks/e2e/``, not from these figure regenerators.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

#: full-size benchmark run (REPRO_BENCH_FULL=1); default is the tiny-N
#: smoke configuration used as a tier-1 bitrot check
FULL = os.environ.get("REPRO_BENCH_FULL", "") == "1"
SMOKE = not FULL


def scaled(full_value, smoke_value):
    """Pick the full-run or smoke-run value of a benchmark size knob."""
    return full_value if FULL else smoke_value


def print_table(title: str, headers: list[str], rows: list[tuple]) -> None:
    """Render an aligned text table to stdout (shown with -s or on failure)."""
    widths = [
        max(len(str(h)), max((len(_fmt(r[i])) for r in rows), default=0))
        for i, h in enumerate(headers)
    ]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for r in rows:
        print("  ".join(_fmt(v).ljust(w) for v, w in zip(r, widths)))


def _fmt(v) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1e5 or abs(v) < 1e-3:
            return f"{v:.3e}"
        return f"{v:.3f}"
    return str(v)


def series_summary(name: str, values) -> str:
    v = np.asarray(values, dtype=np.float64)
    return (
        f"{name}: n={len(v)} min={v.min():.3g} med={np.median(v):.3g} "
        f"max={v.max():.3g}"
    )


@pytest.fixture
def table_printer():
    return print_table


@pytest.fixture
def trace_path(request, tmp_path):
    """Where a benchmark should drop its Perfetto trace, if it records one.

    Defaults to the per-test tmp dir (discarded); set ``REPRO_TRACE_DIR``
    to collect traces somewhere inspectable after the run.
    """
    out_dir = os.environ.get("REPRO_TRACE_DIR", "")
    base = out_dir if out_dir else str(tmp_path)
    os.makedirs(base, exist_ok=True)
    name = request.node.name.replace("/", "_").replace("[", "_").rstrip("]")
    return os.path.join(base, f"{name}.trace.json")
