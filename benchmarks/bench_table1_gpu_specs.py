"""Table I: GPU specifications and peak-kernel throughput per device.

Regenerates the table of peak single-precision rates and exercises the
paper's peak-FLOP measurement methodology: run the CRK-coefficient kernel
(the highest-throughput kernel, Section V-B) on each simulated device and
report counted FLOPs and modeled utilization.
"""

import numpy as np

from repro.gpusim import (
    TABLE_I,
    crk_coefficient_kernel,
    execute_leaf_pair_warpsplit,
    peak_utilization,
    table_i_rows,
)

from conftest import print_table


def _run_peak_kernel(device):
    rng = np.random.default_rng(42)
    n = 128
    pos_i = rng.uniform(0, 1, (n, 3))
    pos_j = rng.uniform(0, 1, (n, 3))
    state = {"h": np.full(n, 0.4), "vol": rng.uniform(0.9, 1.1, n) * 1e-3}
    kern = crk_coefficient_kernel()
    _, _, counters = execute_leaf_pair_warpsplit(
        kern, pos_i, state, pos_j, state, device
    )
    return counters


def test_table1_gpu_specs(benchmark):
    counters_by_device = {}

    def run():
        for device in TABLE_I:
            counters_by_device[device.name] = _run_peak_kernel(device)
        return counters_by_device

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for device in TABLE_I:
        c = counters_by_device[device.name]
        util = peak_utilization(device)
        rows.append(
            (
                device.name,
                device.peak_fp32_tflops,
                device.warp_size,
                c.flops,
                f"{c.arithmetic_intensity:.1f}",
                f"{util * 100:.1f}%",
            )
        )
        benchmark.extra_info[device.name] = {
            "peak_fp32_tflops": device.peak_fp32_tflops,
            "peak_kernel_utilization": util,
            "counted_flops": int(c.flops),
        }
    print_table(
        "Table I: GPU specifications (+ peak-kernel measurement)",
        ["Device", "Peak FP32 (TFLOPs)", "Warp", "Kernel FLOPs",
         "AI (FLOP/B)", "Peak util"],
        rows,
    )

    # paper values, exactly
    assert dict(table_i_rows())["AMD MI250X (per GCD)"] == 23.9
    assert dict(table_i_rows())["Intel Max 1550 (per tile)"] == 22.5
    assert dict(table_i_rows())["NVIDIA SXM5 H100"] == 66.9
