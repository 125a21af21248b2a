#!/usr/bin/env python3
# Exact output probabilities at desk scale: the Hong-Ou-Mandel dip from a
# permanent, a full single-photon distribution summing to one, and the
# photon-pair statistics of squeezed light against the closed-form marginal.
import math

import numpy as np

from shallowbs import (
    RngStream,
    enumerate_outcomes,
    fbs_probability,
    gbs_unnormalized_probability,
    haar_unitary,
    photon_pair_marginal,
)

bs = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
print("two photons on a balanced beam splitter:")
for out in enumerate_outcomes(2, 2):
    print(f"  outcome {out}: p = {fbs_probability(bs, (0, 1), out):.3f}")
print("  the coincidence outcome (0, 1) vanishes: photons bunch")

m, n = 6, 3
u = haar_unitary(m, RngStream(21))
probs = [(s, fbs_probability(u, (0, 2, 4), s)) for s in enumerate_outcomes(m, n)]
probs.sort(key=lambda kv: -kv[1])
print(f"\n{n} photons through a Haar circuit on {m} modes "
      f"({len(probs)} outcomes, total {sum(p for _, p in probs):.12f}):")
for s, p in probs[:5]:
    print(f"  {s}: {p:.5f}")
print("  ...")

r = 0.5
u4 = haar_unitary(4, RngStream(22))
scale = math.tanh(r) ** 2 / math.cosh(r) ** 4
print("\nsqueezed light, one photon pair over 4 modes:")
sector = 0.0
for s in enumerate_outcomes(4, 2):
    p = gbs_unnormalized_probability(u4, range(4), s) * scale
    sector += p
    print(f"  {s}: p = {p:.5f}")
print(f"  sector total {sector:.6f} vs closed-form pair marginal "
      f"{photon_pair_marginal(4, r, 1):.6f}")
