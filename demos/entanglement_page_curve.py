#!/usr/bin/env python3
"""Subsystem entropy against subsystem size for squeezed light in random circuits.

``page_curve`` takes the ensemble itself: a circuit, or the mode count M for
Haar on U(M).  A Haar circuit produces the symmetric tent-shaped curve; a
single hypercubic sweep falls short of it and a second sweep closes the gap.
Writes page_curve.png when matplotlib is available.
"""
from shallowbs import RngStream, build_nlhs, page_curve

M, R, SAMPLES = 8, 0.4, 400

curves = {}
curves["haar"] = page_curve(M, R, SAMPLES, RngStream(41))
for rounds in (1, 2):
    curves[f"{rounds} sweep(s)"] = page_curve(
        build_nlhs(3, rounds), R, SAMPLES, RngStream(41 + rounds))

print(f"mean Renyi-2 entropy, {M} modes, r = {R}, {SAMPLES} samples per size:")
header = "".join(f"{label:>14}" for label in curves)
print(f"{'k':>3}{header}")
for i in range(M - 1):
    cells = "".join(f"{rows[i][1]:>14.4f}" for rows in curves.values())
    print(f"{curves['haar'][i][0]:>3}{cells}")

mid = M // 2 - 1
for label, rows in curves.items():
    k, mean, se = rows[mid]
    print(f"  {label}: S2(k={k}) = {mean:.4f} +- {se:.4f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed, skipping the plot")
else:
    fig, ax = plt.subplots()
    for label, rows in curves.items():
        ks = [k for k, _, _ in rows]
        means = [mean for _, mean, _ in rows]
        errs = [se for _, _, se in rows]
        ax.errorbar(ks, means, yerr=errs, marker="o", ms=3, capsize=2, label=label)
    ax.set_xlabel("subsystem size k")
    ax.set_ylabel("mean Renyi-2 entropy")
    ax.legend()
    fig.savefig("page_curve.png", dpi=150)
    print("wrote page_curve.png")
