#!/usr/bin/env python3
# Two ensemble diagnostics, each taking the ensemble itself: a circuit, or the
# mode count M for Haar on U(M).  The frame potential E|Tr(U^dag V)|^(2k) / k!
# approaches 1 from above as an ensemble approaches a unitary k-design, so
# the sweep count at which it settles says how fast the hypercubic family
# converges.  The hiding check compares Haar-submatrix permanents with
# Ginibre permanents: at M >> N the two distributions coincide.
import math

from scipy.stats import ks_2samp

from shallowbs import (
    RngStream,
    build_nlhs,
    fbs_probability_samples,
    frame_potential,
    hiding_samples,
)

N_SAM = 4000

print("frame potential, normalized by the Haar value k!:")
for k in (1, 2):
    est = frame_potential(4, k, N_SAM, RngStream(51, k))
    print(f"  Haar U(4), k={k}: {est.normalized:.4f} +- {est.bootstrap_std:.4f}")
for rounds in (1, 2, 3):
    est = frame_potential(build_nlhs(3, rounds), 2, N_SAM, RngStream(52, rounds))
    print(f"  8-mode circuit, {rounds} sweep(s), k=2: "
          f"{est.normalized:.4f} +- {est.bootstrap_std:.4f}")

m, n = 32, 3
sub = fbs_probability_samples(m, n, N_SAM, RngStream(53))
gin = hiding_samples("fbs", m, n, N_SAM, RngStream(54))
ks = ks_2samp(sub * m**n, gin * m**n).statistic
crit = 1.6276 * math.sqrt(2.0 / N_SAM)
print(f"\nhiding at M={m}, N={n}: KS = {ks:.4f} "
      f"({'below' if ks < crit else 'ABOVE'} the 1% critical value {crit:.4f})")
