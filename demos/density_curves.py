#!/usr/bin/env python3
# Output-probability density of shallow hypercubic circuits against Haar.
# The sampler takes the ensemble itself: a circuit, or the mode count M for
# Haar on U(M).  One sweep leaves visible structure; three sweeps are
# statistically indistinguishable at this sample size.  Writes
# density_curves.png if matplotlib is around.
import math

from scipy.stats import ks_2samp

from shallowbs import (
    RngStream,
    build_nlhs,
    density_function,
    fbs_probability_samples,
)

M, N, SAMPLES, BUCKETS = 16, 3, 2000, 25

haar = fbs_probability_samples(M, N, SAMPLES, RngStream(31))
curves = {"haar": haar}
for rounds in (1, 3):
    curves[f"{rounds} sweep(s)"] = fbs_probability_samples(
        build_nlhs(4, rounds), N, SAMPLES, RngStream(32 + rounds))

crit = 1.6276 * math.sqrt(2.0 / SAMPLES)
print(f"two-sample KS against Haar ({SAMPLES} samples, 1% critical value {crit:.4f}):")
for label, samples in curves.items():
    if label != "haar":
        print(f"  {label}: {ks_2samp(samples, haar).statistic:.4f}")

print("\nHaar density in equal-count buckets (bucket point, density):")
for row in density_function(haar, BUCKETS).to_rows()[:6]:
    dens = "degenerate" if row["density"] is None else f"{row['density']:.3e}"
    print(f"  {row['x']:.3e}  {dens}")
print("  ...")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not installed, skipping the plot")
else:
    fig, ax = plt.subplots()
    for label, samples in curves.items():
        rows = [r for r in density_function(samples, BUCKETS).to_rows()
                if r["density"] is not None]
        ax.plot([r["x"] for r in rows], [r["density"] for r in rows],
                marker="o", ms=3, label=label)
    ax.set_xscale("log")
    ax.set_yscale("log")
    ax.set_xlabel("output probability p")
    ax.set_ylabel("density")
    ax.legend()
    fig.savefig("density_curves.png", dpi=150)
    print("\nwrote density_curves.png")
