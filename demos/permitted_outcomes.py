#!/usr/bin/env python3
"""How many outcomes can a shallow circuit reach at all?

Counts lightcone-permitted outcomes exactly against the analytic bounds as
depth grows, then prints the closed-form depth thresholds separating the
forbidden-dominated and concentrated regimes.
"""
from shallowbs import (
    build_local_parallel,
    count_permitted_fbs,
    count_permitted_gbs,
    fbs_depth_thresholds,
    gbs_depth_thresholds,
)

M, N = 12, 3
INPUT = (0, 5, 10)

print(f"single photons: M = {M} chain, input {INPUT}")
print(f"{'depth':>5} {'permitted':>9} {'bound':>7} {'ratio':>7}")
for depth in range(1, 7):
    arch = build_local_parallel(1, [M], depth)
    rep = count_permitted_fbs(arch, INPUT, depth)
    print(f"{depth:>5} {rep.exact_count:>9} {rep.upper_bound:>7.0f} {rep.exact_ratio:>7.3f}")
print(f"  ({rep.total_outcomes} outcomes in total; the ratio climbs toward 1 "
      "once cones overlap)")

PAIRS = 2
print(f"\nsqueezed light: {PAIRS} pairs, every mode a source")
print(f"{'depth':>5} {'permitted':>9} {'bound':>9}")
for depth in range(1, 5):
    arch = build_local_parallel(1, [M], depth)
    rep = count_permitted_gbs(arch, range(M), PAIRS, depth)
    print(f"{depth:>5} {rep.exact_count:>9} {rep.upper_bound:>9.0f}")

print("\ndepth thresholds at N = 16 photons, M = 2 N^1.2, d = 1:")
for label, thr in [
    ("single photons", fbs_depth_thresholds(16, 1.2, 2.0, 1, 1.0, 0.5)),
    ("squeezed pairs ", gbs_depth_thresholds(8, 1.2, 2.0, 1, 1.0, 0.5)),
]:
    print(f"  {label}: almost all outcomes forbidden below depth "
          f"{thr.forbidden_depth:.1f}; concentration below depth "
          f"{thr.concentration_depth:.1f} at additive error {thr.additive_error:.1e}")
