"""Acceptance suite: twelve end-to-end criteria, one pass/fail line each.

Every test measures its own wall time against the stated budget and reports
one summary line through the shared terminal hook.  Statistical criteria run
at fixed recorded seeds; the seeds were chosen once and frozen, not tuned
per run.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.stats import ks_2samp

from shallowbs import (
    RngStream,
    build_local_parallel,
    build_nlhs,
    count_permitted_fbs,
    count_permitted_gbs,
    enumerate_outcomes,
    fbs_probability,
    fbs_probability_samples,
    forward_lightcone,
    frame_potential,
    gbs_unnormalized_probability,
    haar_unitary,
    hafnian,
    hafnian_oracle,
    hiding_samples,
    is_permitted_fbs,
    is_permitted_gbs,
    page_curve,
    path_count,
    permanent,
    permanent_oracle,
    photon_pair_marginal,
    realize,
    select_submatrix,
)
from shallowbs.cli import main
from shallowbs.fock import pattern_factorial


def _finish(criterion, num: int, label: str, t0: float, budget: float, fails: list[str]) -> None:
    elapsed = time.perf_counter() - t0
    if elapsed > budget:
        fails.append(f"runtime {elapsed:.1f}s exceeds {budget:.0f}s budget")
    detail = f"{label} ({elapsed:.1f}s)" if not fails else "; ".join(fails)
    criterion(num, not fails, detail)
    assert not fails, "; ".join(fails)


def test_01_matrix_function_oracles(criterion):
    t0 = time.perf_counter()
    fails: list[str] = []
    rng = RngStream(100)
    worst_per = 0.0
    for n in range(2, 7):
        gen = rng.derive(n).generator()
        for _ in range(100):
            a = gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n))
            ref = permanent_oracle(a)
            worst_per = max(worst_per, abs(permanent(a) - ref) / abs(ref))
    worst_haf = 0.0
    for half in range(1, 5):
        gen = rng.derive(100 + half).generator()
        for _ in range(100):
            b = gen.normal(size=(2 * half, 2 * half)) + 1j * gen.normal(size=(2 * half, 2 * half))
            a = b + b.T
            ref = hafnian_oracle(a)
            worst_haf = max(worst_haf, abs(hafnian(a) - ref) / abs(ref))
    if worst_per > 1e-10:
        fails.append(f"permanent relative error {worst_per:.2e} > 1e-10")
    if worst_haf > 1e-10:
        fails.append(f"hafnian relative error {worst_haf:.2e} > 1e-10")
    _finish(criterion, 1, f"permanent/hafnian vs oracles, worst {max(worst_per, worst_haf):.1e}",
            t0, 10.0, fails)


def test_02_fbs_normalization(criterion):
    t0 = time.perf_counter()
    fails: list[str] = []
    rng = RngStream(200)
    worst = 0.0
    for idx, (m, n) in enumerate([(6, 2), (5, 3)]):
        for trial in range(20):
            u = haar_unitary(m, rng.derive(100 * idx + trial))
            total = sum(fbs_probability(u, tuple(range(n)), s) for s in enumerate_outcomes(m, n))
            worst = max(worst, abs(total - 1.0))
    if worst > 1e-9:
        fails.append(f"normalization defect {worst:.2e} > 1e-9")
    _finish(criterion, 2, f"sum of probabilities is 1 within {worst:.1e}", t0, 30.0, fails)


def _nullity_fbs_instances():
    """50 realized chain circuits over depths 1..3 with random 2-photon inputs."""
    rng = RngStream(300)
    depths = [1] * 17 + [2] * 17 + [3] * 16
    out = []
    for i, depth in enumerate(depths):
        arch = build_local_parallel(1, [8], depth)
        stream = rng.derive(i)
        u = realize(arch, stream.derive(0))
        inp = tuple(sorted(stream.derive(1).generator().choice(8, size=2, replace=False)))
        out.append((arch, depth, inp, u))
    return out


def _nullity_gbs_instances():
    rng = RngStream(301)
    depths = [1] * 7 + [2] * 7 + [3] * 6
    out = []
    for i, depth in enumerate(depths):
        arch = build_local_parallel(1, [8], depth)
        out.append((arch, depth, realize(arch, rng.derive(i))))
    return out


def test_03_lightcone_nullity(criterion):
    t0 = time.perf_counter()
    fails: list[str] = []
    forbidden_seen = 0
    worst = 0.0
    for arch, depth, inp, u in _nullity_fbs_instances():
        for s in enumerate_outcomes(8, 2):
            if not is_permitted_fbs(arch, inp, s, depth):
                forbidden_seen += 1
                worst = max(worst, fbs_probability(u, inp, s))
    if forbidden_seen == 0:
        fails.append("no forbidden single-photon outcome was exercised")
    if worst >= 1e-12:
        fails.append(f"forbidden single-photon outcome carries probability {worst:.2e}")

    gbs = _nullity_gbs_instances()
    gbs_forbidden = 0
    gbs_worst = 0.0
    for arch, depth, u in gbs:
        for s in enumerate_outcomes(8, 4):
            if not is_permitted_gbs(arch, range(8), s, depth):
                gbs_forbidden += 1
                gbs_worst = max(gbs_worst, gbs_unnormalized_probability(u, range(8), s))
    if gbs_forbidden == 0:
        fails.append("no forbidden squeezed-light outcome was exercised")
    if gbs_worst >= 1e-12:
        fails.append(f"forbidden squeezed-light outcome carries weight {gbs_worst:.2e}")
    _finish(criterion, 3,
            f"{forbidden_seen} + {gbs_forbidden} forbidden outcomes all below 1e-12",
            t0, 120.0, fails)


def test_04_count_bound_dominance(criterion):
    t0 = time.perf_counter()
    fails: list[str] = []
    checked = 0
    for arch, depth, inp, _ in _nullity_fbs_instances():
        rep = count_permitted_fbs(arch, inp, depth)
        bound = round(rep.upper_bound)
        if rep.upper_bound != bound:
            fails.append(f"non-integer product bound {rep.upper_bound} at depth {depth}")
        if rep.exact_count > bound:
            fails.append(f"exact {rep.exact_count} > bound {bound} for input {inp} depth {depth}")
        checked += 1
    for arch, depth, _ in _nullity_gbs_instances():
        rep = count_permitted_gbs(arch, range(8), 2, depth)
        bound = round(rep.upper_bound)
        if rep.upper_bound != bound:
            fails.append(f"non-integer pairing bound {rep.upper_bound} at depth {depth}")
        if rep.exact_count > bound:
            fails.append(f"exact {rep.exact_count} > bound {bound} at depth {depth}")
        checked += 1
    _finish(criterion, 4, f"exact count <= bound on all {checked} configurations", t0, 120.0, fails)


def test_05_nlhs_first_moment(criterion):
    t0 = time.perf_counter()
    fails: list[str] = []
    m, n_real = 16, 100_000
    arch = build_nlhs(4, 1)
    rng = RngStream(1002)
    s1 = np.zeros((m, m))
    s2 = np.zeros((m, m))
    for i in range(n_real):
        w = np.abs(realize(arch, rng.derive(i))) ** 2
        s1 += w
        s2 += w * w
    mean = s1 / n_real
    var = (s2 / n_real - mean**2) * n_real / (n_real - 1)
    se = np.sqrt(var / n_real)
    dev = np.abs(mean - 1.0 / m) / se
    if dev.max() >= 3.0:
        fails.append(f"entry deviates by {dev.max():.2f} standard errors")
    over_2 = int(np.count_nonzero(dev > 2.0))
    if over_2 > 0.05 * m * m:
        fails.append(f"{over_2} of {m * m} entries beyond 2 sigma (allowed {int(0.05 * m * m)})")
    _finish(criterion, 5,
            f"all 256 first moments within 3 SE of 1/16, {over_2} beyond 2 sigma",
            t0, 60.0, fails)


def test_06_nlhs_connectivity_and_paths(criterion):
    t0 = time.perf_counter()
    fails: list[str] = []
    for p in (3, 4, 5):
        arch = build_nlhs(p, 1)
        m = 2**p
        short = [i for i in range(m) if len(forward_lightcone(arch, i, arch.depth)) != m]
        if short:
            fails.append(f"p={p}: modes {short} do not reach all {m} outputs in one round")
    for rounds in (1, 2, 3):
        arch = build_nlhs(3, rounds)
        want = 8 ** (rounds - 1)
        bad = [(i, j) for i in range(8) for j in range(8) if path_count(arch, i, j) != want]
        if bad:
            fails.append(f"rounds={rounds}: {len(bad)} mode pairs miss path count {want}")
    _finish(criterion, 6, "full one-round connectivity and M^(C-1) path counts", t0, 60.0, fails)


def test_07_frame_potential(criterion):
    t0 = time.perf_counter()
    fails: list[str] = []
    n_sam = 20_000
    for k in (2, 3):
        est = frame_potential(8, k, n_sam, RngStream(2000, k))
        if abs(est.normalized - 1.0) > 3.0 * est.bootstrap_std:
            fails.append(f"Haar k={k}: {est.normalized:.4f} +- {est.bootstrap_std:.4f} misses 1")
    norms: dict[int, float] = {}
    stds: dict[int, float] = {}
    for rounds in (1, 2, 3):
        arch = build_nlhs(4, rounds)
        est = frame_potential(arch, 2, n_sam, RngStream(2001, rounds))
        norms[rounds], stds[rounds] = est.normalized, est.bootstrap_std
    if not norms[1] > norms[2] > norms[3]:
        fails.append(f"estimates not strictly decreasing: {norms}")
    gap_sigma = (norms[1] - norms[2]) / math.hypot(stds[1], stds[2])
    if gap_sigma <= 3.0:
        fails.append(f"round 1 -> 2 drop only {gap_sigma:.1f} sigma")
    for rounds in (2, 3):
        if abs(norms[rounds] - 1.0) > 3.0 * stds[rounds]:
            fails.append(f"rounds={rounds} estimate {norms[rounds]:.4f} not within 3 sigma of 1")
    _finish(criterion, 7,
            f"Haar at k!, stacked sweeps {norms[1]:.3f} > {norms[2]:.3f} > {norms[3]:.3f} toward 1",
            t0, 300.0, fails)


def test_08_page_curve(criterion):
    t0 = time.perf_counter()
    fails: list[str] = []
    m, r, samples = 16, 0.4, 2000

    def curve(ensemble, rng):
        rows = page_curve(ensemble, r, samples, rng)
        return {k: (mean, se) for k, mean, se in rows}

    haar = curve(m, RngStream(3000))
    for k in range(1, m):
        a, sa = haar[k]
        b, sb = haar[m - k]
        if abs(a - b) >= 3.0 * math.hypot(sa, sb):
            fails.append(f"Haar curve asymmetric at k={k}: {a:.4f} vs {b:.4f}")

    arch2 = build_nlhs(4, 2)
    two = curve(arch2, RngStream(3007))
    worst2 = max(abs(two[k][0] - haar[k][0]) / math.hypot(two[k][1], haar[k][1]) for k in haar)
    if worst2 >= 3.0:
        fails.append(f"two-sweep curve deviates from Haar by {worst2:.2f} sigma")

    arch1 = build_nlhs(4, 1)
    one = curve(arch1, RngStream(3002))
    worst1 = max(abs(one[k][0] - haar[k][0]) / math.hypot(one[k][1], haar[k][1]) for k in haar)
    if worst1 <= 3.0:
        fails.append(f"one-sweep curve stays within {worst1:.2f} sigma of Haar")
    _finish(criterion, 8,
            f"symmetric Haar curve, two sweeps match ({worst2:.1f} sigma), one sweep breaks ({worst1:.0f} sigma)",
            t0, 600.0, fails)


def test_09_density_convergence(criterion):
    t0 = time.perf_counter()
    fails: list[str] = []
    m, photons, n_sam = 16, 3, 5000
    haar = fbs_probability_samples(m, photons, n_sam, RngStream(4000))
    arch3 = build_nlhs(4, 3)
    deep = fbs_probability_samples(arch3, photons, n_sam, RngStream(4001))
    arch1 = build_nlhs(4, 1)
    shallow = fbs_probability_samples(arch1, photons, n_sam, RngStream(4002))
    crit = 1.6276 * math.sqrt(2.0 / n_sam)
    ks_deep = ks_2samp(deep, haar).statistic
    ks_shallow = ks_2samp(shallow, haar).statistic
    if ks_deep >= crit:
        fails.append(f"three-sweep KS {ks_deep:.4f} >= critical {crit:.4f}")
    if ks_shallow <= crit:
        fails.append(f"one-sweep KS {ks_shallow:.4f} <= critical {crit:.4f}")
    _finish(criterion, 9,
            f"KS three sweeps {ks_deep:.3f} < {crit:.3f} < one sweep {ks_shallow:.3f}",
            t0, 600.0, fails)


def test_10_gbs_fock_oracle(criterion):
    t0 = time.perf_counter()
    fails: list[str] = []
    m = k_in = 4
    r, cutoff = 0.3, 6
    u = haar_unitary(m, RngStream(6000))

    # SMSV amplitude on 2k photons: (-tanh r)^k sqrt((2k)!) / (2^k k! sqrt(cosh r))
    def smsv_coeff(k: int) -> float:
        return (-math.tanh(r)) ** k * math.sqrt(math.factorial(2 * k)) / (
            2**k * math.factorial(k) * math.sqrt(math.cosh(r)))

    def occ_to_pattern(occ: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(occ) for _ in range(c))

    even_occs = [occ for occ in itertools.product(range(0, cutoff + 1, 2), repeat=m)]
    worst_ratio = 0.0
    worst_mass = 0.0
    for pairs in range(0, 4):
        total = 2 * pairs
        inputs = [occ for occ in even_occs if sum(occ) == total]
        outcomes = list(enumerate_outcomes(m, total))
        oracle = np.empty(len(outcomes))
        direct = np.empty(len(outcomes))
        scale = math.tanh(r) ** total / math.cosh(r) ** k_in
        for idx, s in enumerate(outcomes):
            amp = 0.0 + 0.0j
            for occ in inputs:
                c_in = math.prod(smsv_coeff(c // 2) for c in occ)
                t_pat = occ_to_pattern(occ)
                amp += c_in * permanent(select_submatrix(u, s, t_pat)) / math.sqrt(
                    pattern_factorial(s) * pattern_factorial(t_pat))
            oracle[idx] = abs(amp) ** 2
            direct[idx] = gbs_unnormalized_probability(u, range(k_in), s) * scale
        worst_ratio = max(worst_ratio, float(np.max(
            np.abs(oracle / oracle.sum() - direct / direct.sum()) / (direct / direct.sum()))))
        marginal = photon_pair_marginal(k_in, r, pairs)
        worst_mass = max(worst_mass, abs(oracle.sum() - marginal) / marginal)
    if worst_ratio > 1e-6:
        fails.append(f"sector probability ratios disagree by {worst_ratio:.2e}")
    if worst_mass > 1e-6:
        fails.append(f"sector mass off the pair marginal by {worst_mass:.2e}")
    _finish(criterion, 10,
            f"photon-basis oracle matches, worst {max(worst_ratio, worst_mass):.1e}",
            t0, 120.0, fails)


def test_11_hiding(criterion):
    t0 = time.perf_counter()
    fails: list[str] = []
    m, photons, n_sam = 64, 4, 5000
    scale = float(m) ** photons
    sub = fbs_probability_samples(m, photons, n_sam, RngStream(5000)) * scale
    gin = hiding_samples("fbs", m, photons, n_sam, RngStream(5001)) * scale
    crit = 1.6276 * math.sqrt(2.0 / n_sam)
    ks = ks_2samp(sub, gin).statistic
    if ks >= crit:
        fails.append(f"KS {ks:.4f} >= critical {crit:.4f}")
    _finish(criterion, 11, f"Haar submatrices hide in Ginibre, KS {ks:.3f} < {crit:.3f}",
            t0, 300.0, fails)


_CLI_CASES = [
    ("arch-info", ["--ensemble", "local-parallel", "--modes", "8", "--dim", "1", "--depth", "3"]),
    ("permitted-count", ["--ensemble", "local-parallel", "--modes", "8", "--dim", "1",
                         "--depth", "2", "--scheme", "fbs", "--photons", "2", "--input", "0,4"]),
    ("thresholds", ["--photons", "4", "--pairs", "2", "--gamma", "1.0", "--c-const", "2.0",
                    "--lambda", "1.0", "--beta", "0.5"]),
    ("density-fbs", ["--ensemble", "haar", "--modes", "6", "--photons", "2",
                     "--samples", "300", "--buckets", "10"]),
    ("density-gbs", ["--ensemble", "haar", "--modes", "6", "--photons", "2",
                     "--samples", "200", "--buckets", "8"]),
    ("page-curve", ["--ensemble", "nlhs", "--modes", "8", "--rounds", "2",
                    "--squeeze", "0.3", "--samples", "30"]),
    ("frame-potential", ["--ensemble", "nlhs", "--modes", "8", "--rounds", "1",
                         "--k-moment", "2", "--samples", "400"]),
    ("hiding", ["--kind", "fbs", "--modes", "16", "--photons", "2", "--samples", "300"]),
]


def test_12_cli_determinism(criterion, tmp_path):
    t0 = time.perf_counter()
    fails: list[str] = []
    for name, flags in _CLI_CASES:
        blobs = []
        for run, threads in enumerate((1, 1, 2)):
            out = tmp_path / f"{name}-{run}.out"
            rc = main([name, *flags, "--seed", "99", "--threads", str(threads),
                       "--out", str(out)])
            if rc != 0:
                fails.append(f"{name}: exit code {rc}")
                break
            blobs.append(out.read_bytes())
        else:
            if blobs[0] != blobs[1]:
                fails.append(f"{name}: repeat run differs")
            if blobs[0] != blobs[2]:
                fails.append(f"{name}: --threads 2 run differs")
    _finish(criterion, 12, "all 8 subcommands byte-identical across reruns and thread counts",
            t0, 120.0, fails)
