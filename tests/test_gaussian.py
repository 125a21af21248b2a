import math
import time
import tracemalloc

import numpy as np
import pytest

from shallowbs import fock
from shallowbs.arch import (
    backward_lightcone,
    build_local_parallel,
    build_nlhs,
    forward_lightcone,
    realize,
)
from shallowbs.fock import GuardError, enumerate_outcomes
from shallowbs.gaussian import (
    _ENTROPY_SQUEEZING_LIMIT,
    count_permitted_gbs,
    evolve_covariance,
    gbs_depth_thresholds,
    gbs_permitted_ratio_bound,
    gbs_unnormalized_probability,
    is_permitted_gbs,
    is_valid_covariance,
    page_curve,
    photon_pair_marginal,
    reduced_covariance,
    renyi2_entropy,
    smsv_covariance,
    symplectic_from_unitary,
)
from shallowbs.linalg import RngStream, haar_unitary


def test_gaussian_functions_refuse_bad_values():
    arch = build_local_parallel(1, [4], 2)
    u = np.eye(4, dtype=complex)
    for refused in (
        lambda: smsv_covariance(4, (), 0.4),
        lambda: gbs_unnormalized_probability(u, (), (0, 0)),
        lambda: is_permitted_gbs(arch, (), (0, 0), 2),
        lambda: count_permitted_gbs(arch, (), 0, 2),
    ):
        with pytest.raises(ValueError, match="at least one squeezed mode"):
            refused()
    with pytest.raises(ValueError, match="need 0 <= pairs <= 2"):
        count_permitted_gbs(arch, (0, 1), 3, 2)
    with pytest.raises(ValueError, match="got pairs=-1"):
        count_permitted_gbs(arch, (0, 1), -1, 2)
    assert count_permitted_gbs(arch, (0, 1), 0, 2).exact_count == 1
    for squeeze_r in (0.0, -0.4):
        with pytest.raises(ValueError, match=f"squeezing must be positive, got {squeeze_r}"):
            smsv_covariance(4, (0, 1), squeeze_r)
        with pytest.raises(ValueError, match=f"squeezing must be positive, got {squeeze_r}"):
            photon_pair_marginal(2, squeeze_r, 1)
    for k_inputs in (0, -1):
        with pytest.raises(ValueError, match="at least one squeezed source"):
            photon_pair_marginal(k_inputs, 0.4, 1)
    # finite squeezing whose variance exp(2r) overflows a float
    with pytest.raises(ValueError, match=r"exp\(2r\) at r=800.0 overflows a float"):
        photon_pair_marginal(4, 800.0, 1)
    with pytest.raises(ValueError, match=r"exp\(2r\) at r=400.0 overflows a float"):
        smsv_covariance(4, (0, 1), 400.0)


def test_smsv_covariance_structure():
    sigma = smsv_covariance(3, (0, 2), 0.5)
    expect = np.diag(
        [math.exp(-1.0), 1.0, math.exp(-1.0), math.exp(1.0), 1.0, math.exp(1.0)]
    )
    np.testing.assert_allclose(sigma, expect, rtol=1e-12)
    np.testing.assert_allclose(np.linalg.det(sigma), 1.0, rtol=1e-12)
    with pytest.raises(ValueError):
        smsv_covariance(3, (0, 0, 2), 0.5)


def test_symplectic_from_unitary_properties():
    u = haar_unitary(5, RngStream(3, 0))
    o = symplectic_from_unitary(u)
    np.testing.assert_allclose(o @ o.T, np.eye(10), atol=1e-12)
    eye, zero = np.eye(5), np.zeros((5, 5))
    omega = np.block([[zero, eye], [-eye, zero]])
    np.testing.assert_allclose(o @ omega @ o.T, omega, atol=1e-12)
    for v in (u, np.eye(3), realize(build_nlhs(2, 1), RngStream(3, 1))):
        block = np.block([[v.real, -v.imag], [v.imag, v.real]])
        o = symplectic_from_unitary(v)
        assert o.dtype == block.dtype
        np.testing.assert_array_equal(o, block)
        np.testing.assert_array_equal(np.signbit(o), np.signbit(block))


def test_evolve_covariance_keeps_vacuum_and_purity():
    u = haar_unitary(4, RngStream(5, 1))
    np.testing.assert_allclose(evolve_covariance(np.eye(8), u), np.eye(8), atol=1e-12)
    sigma = evolve_covariance(smsv_covariance(4, range(4), 0.3), u)
    np.testing.assert_allclose(np.linalg.det(sigma), 1.0, rtol=1e-10)
    assert is_valid_covariance(sigma)
    with pytest.raises(ValueError):
        evolve_covariance(sigma, u * 1.01)
    with pytest.raises(ValueError, match=r"shape \(4, 4\) does not match the \(8, 8\) of a 4-mode"):
        evolve_covariance(np.eye(4), u)


def test_reduced_covariance_picks_blocks():
    sigma = np.arange(36.0).reshape(6, 6)
    sigma = sigma + sigma.T
    red = reduced_covariance(sigma, [1])
    idx = np.array([1, 4])
    np.testing.assert_array_equal(red, sigma[np.ix_(idx, idx)])
    with pytest.raises(ValueError):
        reduced_covariance(sigma, [])
    with pytest.raises(ValueError):
        reduced_covariance(sigma, [0, 1, 2])
    with pytest.raises(IndexError):
        reduced_covariance(sigma, [3])
    with pytest.raises(TypeError):
        reduced_covariance(sigma, [0.6, 1.2])


def tmsv_covariance(r):
    c, s = math.cosh(2 * r), math.sinh(2 * r)
    x = np.array([[c, s], [s, c]])
    p = np.array([[c, -s], [-s, c]])
    out = np.zeros((4, 4))
    out[:2, :2] = x
    out[2:, 2:] = p
    return out


def test_renyi2_entropy_two_mode_squeezed():
    """One arm of a two-mode squeezed state has entropy ln cosh(2r)."""
    for r in (0.2, 0.6, 1.1):
        sigma = tmsv_covariance(r)
        assert is_valid_covariance(sigma)
        np.testing.assert_allclose(renyi2_entropy(sigma), 0.0, atol=1e-12)
        np.testing.assert_allclose(
            renyi2_entropy(reduced_covariance(sigma, [0])),
            math.log(math.cosh(2 * r)),
            rtol=1e-12,
        )
    with pytest.raises(ValueError):
        renyi2_entropy(np.diag([-1.0, 1.0, 1.0, 1.0]))


def test_entropy_complement_symmetry_exact():
    # a pure Gaussian state has equal subsystem entropies across any cut
    u = haar_unitary(6, RngStream(8, 4))
    sigma = evolve_covariance(smsv_covariance(6, range(6), 0.4), u)
    for subset in ([0], [0, 3], [1, 2, 5]):
        complement = [i for i in range(6) if i not in subset]
        np.testing.assert_allclose(
            renyi2_entropy(reduced_covariance(sigma, subset)),
            renyi2_entropy(reduced_covariance(sigma, complement)),
            rtol=1e-9,
        )


def test_is_valid_covariance_rejects_subvacuum():
    assert is_valid_covariance(np.eye(8))
    assert not is_valid_covariance(0.5 * np.eye(8))
    assert not is_valid_covariance(np.eye(7))
    skew = np.eye(4)
    skew[0, 1] = 0.2
    assert not is_valid_covariance(skew)


def test_page_curve_rows_and_determinism():
    rows = page_curve(4, 0.4, 10, RngStream(42, 0))
    assert [r[0] for r in rows] == [1, 2, 3]
    assert all(mean > -1e-9 and err >= 0 for _, mean, err in rows)
    again = page_curve(4, 0.4, 10, RngStream(42, 0))
    assert rows == again


def test_page_curve_validation():
    with pytest.raises(ValueError):
        page_curve(1, 0.4, 10, RngStream(0, 0))
    with pytest.raises(ValueError):
        page_curve(4, 0.4, 1, RngStream(0, 0))
    with pytest.raises(ValueError, match="squeezing must be positive, got 0.0"):
        page_curve(4, 0.0, 10, RngStream(0, 0))
    with pytest.raises(ValueError, match="float64 precision"):
        page_curve(4, _ENTROPY_SQUEEZING_LIMIT, 10, RngStream(0, 0))


def test_page_curve_at_the_largest_admitted_squeezing():
    """Just below the limit every entropy of a one-sweep circuit keeps a positive determinant."""
    r = math.nextafter(_ENTROPY_SQUEEZING_LIMIT, 0.0)
    for p in (2, 3, 4, 5, 6):
        arch = build_nlhs(p, 1)
        for seed in range(20):
            assert len(page_curve(arch, r, 2, RngStream(seed))) == 2**p - 1


def test_gbs_probability_single_source_identity_circuit():
    u = np.eye(3, dtype=complex)
    np.testing.assert_allclose(
        gbs_unnormalized_probability(u, (0,), (0, 0)), 0.5, rtol=1e-12
    )
    assert gbs_unnormalized_probability(u, (0,), (0, 1)) == 0.0
    assert gbs_unnormalized_probability(u, (0,), (1, 1)) == 0.0
    assert gbs_unnormalized_probability(u, (0,), ()) == 1.0
    with pytest.raises(ValueError):
        gbs_unnormalized_probability(u, (0,), (0,))


def test_gbs_probability_balanced_beamsplitter_antibunches():
    """U U^T = I for the real balanced splitter, so split pairs are forbidden."""
    u = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    assert gbs_unnormalized_probability(u, (0, 1), (0, 1)) < 1e-15
    np.testing.assert_allclose(
        gbs_unnormalized_probability(u, (0, 1), (0, 0)), 0.5, rtol=1e-12
    )


def pairing_exists_brute_force(sources, outcome):
    """Try every way of pairing the photons; a pair needs a common source."""
    if not outcome:
        return True
    first, rest = outcome[0], outcome[1:]
    return any(
        sources[first] & sources[rest[j]]
        and pairing_exists_brute_force(sources, rest[:j] + rest[j + 1 :])
        for j in range(len(rest))
    )


def source_sets(arch, inputs, depth):
    """Per output mode, the squeezed inputs inside its backward lightcone."""
    return [
        backward_lightcone(arch, mode, depth) & set(inputs) for mode in range(arch.mode_count)
    ]


GBS_ARCHS = (
    build_local_parallel(1, [8], 2),
    build_local_parallel(2, [2, 4], 2),
    build_nlhs(3, 1),
)


def test_is_permitted_gbs_against_brute_force():
    gen = np.random.default_rng(61)
    seen = set()
    for arch in GBS_ARCHS:
        m = arch.mode_count
        for _ in range(60):
            depth = int(gen.integers(0, arch.depth + 1))
            pairs = int(gen.integers(1, 6))
            k = int(gen.integers(pairs, m + 1))
            t = tuple(sorted(gen.choice(m, size=k, replace=False).tolist()))
            sources = source_sets(arch, t, depth)
            outcome = tuple(sorted(gen.integers(0, m, size=2 * pairs).tolist()))
            expect = pairing_exists_brute_force(sources, outcome)
            assert is_permitted_gbs(arch, t, outcome, depth) == expect
            seen.add(expect)
    assert seen == {True, False}


def test_is_permitted_gbs_many_photons():
    # 14 and 16 photons: sums of random allowed pairs are permitted, and
    # swapping in a mode that no input reaches makes them forbidden
    gen = np.random.default_rng(67)
    arch = build_local_parallel(1, [16], 2)
    t = tuple(range(8))
    sources = source_sets(arch, t, 2)
    allowed = [(a, b) for a in range(16) for b in range(a, 16) if sources[a] & sources[b]]
    dead = [mode for mode in range(16) if not sources[mode]]
    assert dead
    for pairs in (7, 8):
        for _ in range(20):
            picks = gen.integers(0, len(allowed), size=pairs)
            outcome = sorted(mode for i in picks for mode in allowed[i])
            assert is_permitted_gbs(arch, t, outcome, 2)
            outcome[int(gen.integers(0, 2 * pairs))] = int(gen.choice(dead))
            assert not is_permitted_gbs(arch, t, sorted(outcome), 2)


def test_count_permitted_gbs_against_brute_force():
    gen = np.random.default_rng(71)
    for arch in GBS_ARCHS:
        m = arch.mode_count
        for _ in range(4):
            depth = int(gen.integers(0, arch.depth + 1))
            pairs = int(gen.integers(1, 4))
            k = int(gen.integers(pairs, m + 1))
            t = tuple(sorted(gen.choice(m, size=k, replace=False).tolist()))
            sources = source_sets(arch, t, depth)
            expect = sum(
                pairing_exists_brute_force(sources, s)
                for s in enumerate_outcomes(m, 2 * pairs)
            )
            report = count_permitted_gbs(arch, t, pairs, depth)
            assert report.exact_count == expect


@pytest.mark.parametrize("arch", GBS_ARCHS, ids=["chain", "lattice", "nlhs"])
def test_gbs_counts_equal_filtered_enumeration(arch):
    """GBS counts against every even outcome filtered by ``is_permitted_gbs``.

    The sweep runs from depth 0 and from no pairs, whose one outcome is
    empty, and counts the permitted outcomes that put two photons on one mode.
    """
    gen = np.random.default_rng(73)
    m = arch.mode_count
    collisions = 0
    for depth in range(arch.depth + 1):
        for pairs in (0, 1, 2, 3):
            k = int(gen.integers(max(pairs, 1), m + 1))
            t = tuple(sorted(gen.choice(m, size=k, replace=False).tolist()))
            permitted = [
                s for s in enumerate_outcomes(m, 2 * pairs) if is_permitted_gbs(arch, t, s, depth)
            ]
            assert count_permitted_gbs(arch, t, pairs, depth).exact_count == len(permitted)
            if pairs == 0:
                assert permitted == [()]
            collisions += sum(len(set(s)) < 2 * pairs for s in permitted)
    assert collisions > 0


def test_heavy_dedupe_gbs_count_memory():
    # all 136 mode pairs of a full-depth 16-mode nlhs circuit are allowed, so
    # the last step forms 3876 x 136 = 527,136 candidates for 54,264
    # outcomes.  The build that held each pattern as a tuple in a Python set
    # peaked at 6.65 MiB under tracemalloc on this count (Python 3.11, numpy 2.4)
    arch = build_nlhs(4, 1)
    tracemalloc.start()
    try:
        report = count_permitted_gbs(arch, range(16), 3, arch.depth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.exact_count == report.total_outcomes == 54264
    assert peak <= 6.6 * 2**20


def test_is_permitted_gbs_frozen_chain():
    arch = build_local_parallel(1, [8], 1)
    t = tuple(range(8))
    assert is_permitted_gbs(arch, t, (0, 1), 1)
    assert is_permitted_gbs(arch, t, (0, 0), 1)
    assert not is_permitted_gbs(arch, t, (0, 5), 1)
    assert is_permitted_gbs(arch, t, (0, 1, 2, 3), 1)
    assert not is_permitted_gbs(arch, t, (0, 1, 2, 5), 1)


def test_is_permitted_gbs_respects_input_support():
    arch = build_local_parallel(1, [8], 1)
    assert not is_permitted_gbs(arch, (0, 1), (6, 7), 1)
    assert is_permitted_gbs(arch, (6, 7), (6, 7), 1)


def test_forbidden_gbs_outcomes_carry_no_probability():
    arch = build_local_parallel(1, [8], 1)
    t = tuple(range(8))
    for i in range(2):
        u = realize(arch, RngStream(83, i))
        for s in enumerate_outcomes(8, 4):
            if not is_permitted_gbs(arch, t, s, 1):
                assert gbs_unnormalized_probability(u, t, s) < 1e-12


def test_count_permitted_gbs_frozen_and_support():
    """Exact counts cross-checked against the nonzero-probability support."""
    t = tuple(range(8))
    expected = {1: (74, 144.0), 2: (219, 1296.0), 3: (314, 2304.0)}
    for depth, (count, bound) in expected.items():
        arch = build_local_parallel(1, [8], depth)
        report = count_permitted_gbs(arch, t, 2, depth)
        assert report.exact_count == count
        assert report.upper_bound == bound
        assert report.total_outcomes == 330
        assert report.exact_count <= report.upper_bound
        u = realize(arch, RngStream(500, 0))
        support = sum(
            1
            for s in enumerate_outcomes(8, 4)
            if gbs_unnormalized_probability(u, t, s) > 1e-12
        )
        assert support == count


def test_count_permitted_gbs_nlhs_fallback_bound():
    arch = build_nlhs(3, 1)
    report = count_permitted_gbs(arch, tuple(range(8)), 2, arch.depth)
    assert report.exact_count == report.total_outcomes == 330
    assert report.exact_count <= report.upper_bound == 2304.0


SWEEP_ARCHS = pytest.mark.parametrize(
    "arch",
    [build_local_parallel(1, [m], 6) for m in (4, 6, 8, 10, 12)]
    + [build_local_parallel(2, sides, 6) for sides in ([2, 2], [2, 3], [3, 3], [3, 4])]
    + [build_nlhs(2, 2), build_nlhs(3, 2)],
    ids=lambda arch: f"{arch.family}-{'x'.join(map(str, arch.side_lengths or [arch.mode_count]))}",
)


def reference_count_gbs(arch, inputs, pairs, depth):
    """Count and bound with every mode pair tested for a shared source, and R
    as the most modes whose backward lightcones meet that of one mode."""
    m = arch.mode_count
    sources = source_sets(arch, inputs, depth)
    allowed = [(a, b) for a in range(m) for b in range(a, m) if sources[a] & sources[b]]
    backs = [backward_lightcone(arch, mode, depth) for mode in range(m)]
    r = max(sum(1 for other in backs if other & back) for back in backs)
    bound = float(math.comb(m + pairs - 1, pairs) * r**pairs)
    return fock._count_sums(m, 2 * pairs, [np.array(allowed, dtype=int).reshape(-1, 2)] * pairs, bound)


@SWEEP_ARCHS
def test_count_permitted_gbs_matches_all_pairs_reference(arch):
    # pairs listed from the forward cones of the squeezed inputs give the
    # counts and bounds of testing every mode pair, with all modes squeezed
    # and with a seeded half of them
    gen = np.random.default_rng(arch.mode_count)
    m = arch.mode_count
    for depth in range(arch.depth + 1):
        half = sorted(gen.choice(m, size=max(1, m // 2), replace=False).tolist())
        for inputs in (range(m), half):
            for pairs in range(1, min(4, len(inputs)) + 1):
                report = count_permitted_gbs(arch, inputs, pairs, depth)
                assert report == reference_count_gbs(arch, inputs, pairs, depth), (depth, pairs)


def test_count_permitted_gbs_few_inputs_on_many_modes_quickly():
    # two fed inputs on a 4000-mode chain: only their forward cones are paired
    arch = build_local_parallel(1, [4000], 1)
    start = time.perf_counter()
    report = count_permitted_gbs(arch, (0, 2000), 2, 1)
    assert time.perf_counter() - start < 0.1
    assert report.exact_count == 19


@SWEEP_ARCHS
def test_count_permitted_gbs_bound_holds(arch):
    # every mode squeezed, every depth from 0 and 1 to 4 pairs; the pairing
    # bound that divided by 2^pairs fell below the exact count at depth 0 and
    # on nlhs circuits
    for depth in range(arch.depth + 1):
        for pairs in range(1, 5):
            report = count_permitted_gbs(arch, range(arch.mode_count), pairs, depth)
            assert report.exact_count <= report.upper_bound, (depth, pairs)


def test_count_permitted_gbs_guard(monkeypatch):
    arch = build_nlhs(7, 1)
    monkeypatch.setattr(fock, "ENUMERATION_GUARD", 10**6)
    with pytest.raises(GuardError):
        count_permitted_gbs(arch, tuple(range(128)), 4, arch.depth)


def test_count_permitted_gbs_guard_bounds_build_visits(monkeypatch):
    # full connectivity: the 36 allowed pairs give 36 + 36*36 visits
    arch = build_nlhs(3, 1)
    monkeypatch.setattr(fock, "ENUMERATION_GUARD", 1332)
    report = count_permitted_gbs(arch, range(8), 2, arch.depth)
    assert report.exact_count == report.total_outcomes == 330
    monkeypatch.setattr(fock, "ENUMERATION_GUARD", 1331)
    with pytest.raises(GuardError, match="1332 partial outcomes"):
        count_permitted_gbs(arch, range(8), 2, arch.depth)


def test_heavy_dedupe_gbs_count_refused_at_its_peak(monkeypatch):
    # all 136 pairs of a 16-mode nlhs circuit, 4 pairs: 7.4 million candidates
    # for 490,314 outcomes, the count whose peak is the largest multiple of
    # the rows it keeps.  A byte budget of exactly that peak refuses it.
    arch = build_nlhs(4, 1)
    tracemalloc.start()
    try:
        report = count_permitted_gbs(arch, range(16), 4, arch.depth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.exact_count == report.total_outcomes == 490314
    monkeypatch.setattr(fock, "_GUARD_BYTES", peak)
    with pytest.raises(GuardError, match="byte budget"):
        count_permitted_gbs(arch, range(16), 4, arch.depth)


def test_large_gbs_count_refused_quickly():
    # 1024 modes: the guard stops while the allowed pairs are still listed
    arch = build_nlhs(10, 1)
    start = time.perf_counter()
    with pytest.raises(GuardError):
        count_permitted_gbs(arch, range(1024), 4, arch.depth)
    assert time.perf_counter() - start < 2.0


def test_is_permitted_gbs_at_photon_guard():
    # two disjoint 32-mode cones interleaved in mode order, with an odd number
    # of photons in each: no pairing exists and the search has to show it
    arch = build_local_parallel(2, [12, 12], 6)
    t = (62, 68)
    cones = [sorted(forward_lightcone(arch, mode, 6)) for mode in t]
    start = time.perf_counter()
    assert not is_permitted_gbs(arch, t, sorted(cones[0][:11] + cones[1][:13]), 6)
    assert is_permitted_gbs(arch, t, sorted(cones[0][:12] + cones[1][:12]), 6)
    # every photon on one fed mode: all 23!! pairings share a source
    assert is_permitted_gbs(arch, t, (62,) * 24, 6)
    assert time.perf_counter() - start < 5.0
    with pytest.raises(GuardError, match="hafnian guard: dimension 26 exceeds 24"):
        is_permitted_gbs(arch, t, sorted(cones[0][:13] + cones[1][:13]), 6)


def test_gbs_depth_thresholds_unit_constants():
    th = gbs_depth_thresholds(4, 1.0, 1.0, 1, 0.5, 0.5)
    np.testing.assert_allclose(th.forbidden_constant, math.e / 8, rtol=1e-14)
    np.testing.assert_allclose(th.concentration_constant, math.e**2 / 64, rtol=1e-14)
    assert th.scheme == "gbs"
    assert th.photons == 8
    # with m = n the additive error is (2n)!/n^(2n)
    np.testing.assert_allclose(
        th.additive_error, math.factorial(8) / 4**8, rtol=1e-12
    )


def test_gbs_ratio_bound_formula_and_domain():
    m, n, gamma, d, depth = 8, 2, 1.5, 1, 2
    c1 = m / n**gamma
    expect = 2.0 * (
        (2.0 ** (2 * d + 1) / (math.e * d**d * c1)) * depth**d * n ** (1 - gamma)
    ) ** n
    np.testing.assert_allclose(
        gbs_permitted_ratio_bound(m, n, gamma, c1, d, depth), expect, rtol=1e-12
    )
    with pytest.raises(ValueError):
        gbs_permitted_ratio_bound(m + 3, n, gamma, c1, d, depth)
    with pytest.raises(ValueError, match="depth must be non-negative, got -1"):
        gbs_permitted_ratio_bound(16, 3, 1.0, 16 / 3, 1, -1)


def test_photon_pair_marginal_values():
    r = 0.4
    np.testing.assert_allclose(
        photon_pair_marginal(2, r, 1), 0.12352105383470628, rtol=1e-12
    )
    # K = 2 reduces to a geometric law in tanh^2
    for n in range(5):
        np.testing.assert_allclose(
            photon_pair_marginal(2, r, n),
            math.tanh(r) ** (2 * n) / math.cosh(r) ** 2,
            rtol=1e-12,
        )


def test_photon_pair_marginal_normalizes_and_matches_mean():
    for k, r in ((2, 0.4), (4, 0.3), (8, 0.25)):
        probs = [photon_pair_marginal(k, r, n) for n in range(60)]
        np.testing.assert_allclose(sum(probs), 1.0, atol=1e-12)
        mean = sum(2 * n * p for n, p in enumerate(probs))
        np.testing.assert_allclose(mean, k * math.sinh(r) ** 2, rtol=1e-10)


def test_photon_pair_marginal_odd_sources_warns():
    with pytest.warns(UserWarning):
        photon_pair_marginal(3, 0.4, 1)
