#!/usr/bin/env python3
"""Architecture comparison: ECSSD vs eight baselines (paper §6.7, Fig. 13).

Times the three large-scale extreme-classification benchmarks on every
modeled architecture — CPU, GenStore-style in-storage, SmartSSD near-storage
(3 and 6 GB/s switches), each with and without the approximate screening
algorithm — and prints the slowdown table next to the paper's published
factors, the §7.2/§7.3 GPU and ENMC efficiency discussions and the §7.1
scalability tables.

Run:  python examples/architecture_comparison.py
"""

from repro.analysis import artifacts
from repro.baselines.gpu_enmc import EnmcComparison, GpuComparison
from repro.workloads.benchmarks import get_benchmark


def gpu_discussion() -> None:
    print("=== §7.2: GPU comparison (RTX 3090 class) ===")
    gpu = GpuComparison()
    spec = get_benchmark("XMLCNN-S100M")
    print(f"One RTX 3090 holds {gpu.gpu_memory_bytes / 2**30:.0f} GiB —"
          f" the S100M matrix needs {spec.fp32_matrix_bytes / 2**30:.0f} GiB.")
    print(f"GPUs needed to hold S100M entirely in device memory:"
          f" {gpu.gpus_needed(spec)} (paper: >= 18)")
    print(f"Single-GPU power vs ECSSD: {gpu.single_gpu_power_ratio():.0f}x (paper: 32x)")
    print(f"Fleet power vs ECSSD: {gpu.power_ratio_vs_ecssd(spec):.0f}x (paper: >= 573x)")
    print()


def enmc_discussion() -> None:
    print("=== §7.3: ENMC near-DRAM comparison ===")
    enmc = EnmcComparison()
    print(f"ENMC: {enmc.enmc_peak_gflops:.0f} GFLOPS peak,"
          f" {enmc.enmc_power_w:.0f} W, ${enmc.enmc_cost_usd:,.0f}")
    print(f"ECSSD energy efficiency advantage:"
          f" {enmc.energy_efficiency_ratio():.2f}x (paper: 1.19x)")
    print(f"ECSSD cost efficiency advantage:"
          f" {enmc.cost_efficiency_ratio():.2f}x (paper: 8.87x)")
    big = get_benchmark("XMLCNN-S100M").scaled(200_000_000, "S200M")
    print(f"S200M fits ENMC's 512 GB DRAM: {enmc.fits(big)} — ECSSD scales"
          " out instead (see §7.1).")


def main() -> None:
    print(artifacts.fig13().table, end="\n\n")
    gpu_discussion()
    enmc_discussion()
    print()
    print(artifacts.sec71_scalability().table, end="\n\n")
    print(artifacts.sec71_scale_out().table)


if __name__ == "__main__":
    main()
