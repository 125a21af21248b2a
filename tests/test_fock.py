import json
import math
import re
import time
import tracemalloc
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from shallowbs import fock
from shallowbs.arch import (
    build_local_parallel,
    build_nlhs,
    effective_lightcone_radius,
    forward_lightcone,
    mode_coordinates,
    realize,
)
from shallowbs.cli import main
from shallowbs.fock import (
    GuardError,
    count_permitted_fbs,
    count_permitted_fbs_effective,
    enumerate_outcomes,
    fbs_depth_thresholds,
    fbs_permitted_ratio_bound,
    fbs_probability,
    is_permitted_fbs,
    outcome_count,
    pattern_factorial,
    _minkowski_sum,
)
from shallowbs.gaussian import count_permitted_gbs
from shallowbs.linalg import RngStream, haar_unitary


def test_pattern_factorial():
    assert pattern_factorial(()) == 1
    assert pattern_factorial((0, 1, 2)) == 1
    assert pattern_factorial((0, 0, 1, 3, 3, 3)) == 12
    assert pattern_factorial((5, 5, 5, 5)) == 24


def test_pattern_rows_strictly_increase():
    """Drawn patterns repeat no mode, so the stacked rules leave out s!, which is 1."""
    for m in (1, 2, 5, 16):
        for photons in range(m + 1):
            gens = [RngStream(40, 100 * m + photons).derive(i).generator() for i in range(50)]
            rows = fock._pattern_rows(m, photons, gens)
            assert rows.shape == (50, photons)
            assert (np.diff(rows, axis=1) > 0).all()
            assert ((0 <= rows) & (rows < m)).all()


def test_only_the_public_rules_divide_by_pattern_factorials():
    src = Path(fock.__file__).parent
    calls = {p.name: len(re.findall(r"(?<!def )pattern_factorial\(", p.read_text()))
             for p in src.glob("*.py")}
    assert {name: n for name, n in calls.items() if n} == {"fock.py": 1, "gaussian.py": 1}


def test_outcome_space_counts_must_be_integers():
    with pytest.raises(TypeError, match="mode count must be an integer, got 4.0"):
        outcome_count(4.0, 2)
    with pytest.raises(TypeError, match="photon number must be an integer, got 2.0"):
        enumerate_outcomes(4, 2.0)
    with pytest.raises(ValueError, match="photon number must be non-negative, got -1"):
        outcome_count(4, -1)
    assert outcome_count(np.int64(4), np.uint8(2)) == 10


def test_fbs_probability_balanced_beamsplitter():
    """Two photons into a balanced splitter bunch; the split outcome cancels."""
    u = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    np.testing.assert_allclose(fbs_probability(u, (0, 1), (0, 0)), 0.5, rtol=1e-12)
    np.testing.assert_allclose(fbs_probability(u, (0, 1), (1, 1)), 0.5, rtol=1e-12)
    assert fbs_probability(u, (0, 1), (0, 1)) < 1e-15


def test_fbs_probability_validation():
    u = np.eye(4, dtype=complex)
    with pytest.raises(ValueError):
        fbs_probability(u, (0, 1), (0,))
    with pytest.raises(ValueError):
        fbs_probability(u, (1, 0), (0, 1))
    with pytest.raises(ValueError):
        fbs_probability(u, (0, 0), (0, 1))
    with pytest.raises(IndexError):
        fbs_probability(u, (0, 4), (0, 1))
    with pytest.raises(TypeError):
        fbs_probability(u, (0.6, 1.2, 2.9), (0, 1, 2))
    assert fbs_probability(u, (), ()) == 1.0


@pytest.mark.parametrize("shape", [(3, 5), (4,), (1, 4, 4)])
def test_fbs_probability_requires_a_square_matrix(shape):
    expect = f"fbs_probability requires a square matrix, got shape {shape}"
    with pytest.raises(ValueError, match=re.escape(expect)):
        fbs_probability(np.ones(shape), [0, 1], [0, 1])


def test_fbs_probabilities_normalize():
    for m, t, seed in ((5, (0, 2, 4), 0), (6, (1, 3), 1)):
        u = haar_unitary(m, RngStream(77, seed))
        total = sum(fbs_probability(u, t, s) for s in enumerate_outcomes(m, len(t)))
        np.testing.assert_allclose(total, 1.0, atol=1e-9)


def test_outcome_enumeration_agrees_with_count():
    for m, n in ((1, 3), (4, 0), (5, 2), (6, 3)):
        outcomes = list(enumerate_outcomes(m, n))
        assert len(outcomes) == outcome_count(m, n)
        assert len(set(outcomes)) == len(outcomes)
        assert all(tuple(sorted(s)) == s for s in outcomes)


def matching_exists_brute_force(cones, outcome):
    n = len(outcome)
    for perm in permutations(range(n)):
        if all(outcome[perm[k]] in cones[k] for k in range(n)):
            return True
    return False


def count_brute_force(m, cones):
    return sum(
        matching_exists_brute_force(cones, s) for s in enumerate_outcomes(m, len(cones))
    )


def test_cone_matching_against_brute_force():
    gen = np.random.default_rng(31)
    arch = build_local_parallel(1, [8], 3)
    for _ in range(200):
        depth = int(gen.integers(0, 4))
        n = int(gen.integers(1, 5))
        t = sorted(gen.choice(8, size=n, replace=False).tolist())
        cones = [forward_lightcone(arch, mode, depth) for mode in t]
        outcome = tuple(sorted(gen.integers(0, 8, size=n).tolist()))
        assert is_permitted_fbs(arch, t, outcome, depth) == matching_exists_brute_force(
            cones, outcome
        )


def test_count_permitted_fbs_against_brute_force():
    gen = np.random.default_rng(47)
    archs = (
        build_local_parallel(1, [9], 3),
        build_local_parallel(2, [3, 3], 3),
        build_nlhs(3, 1),
    )
    for arch in archs:
        m = arch.mode_count
        for _ in range(6):
            depth = int(gen.integers(0, arch.depth + 1))
            n = int(gen.integers(1, 4))
            t = sorted(gen.choice(m, size=n, replace=False).tolist())
            cones = [forward_lightcone(arch, mode, depth) for mode in t]
            report = count_permitted_fbs(arch, t, depth)
            assert report.exact_count == count_brute_force(m, cones)


def test_effective_count_against_brute_force():
    gen = np.random.default_rng(53)
    for sides in ([12], [4, 3]):
        arch = build_local_parallel(len(sides), sides, 6)
        coords = mode_coordinates(sides)
        for _ in range(6):
            depth = int(gen.integers(1, 7))
            n = int(gen.integers(1, 4))
            lam, beta = float(gen.choice([0.1, 0.5])), float(gen.choice([0.5, 0.9]))
            t = sorted(gen.choice(arch.mode_count, size=n, replace=False).tolist())
            radius = effective_lightcone_radius(n, depth, lam, beta, len(sides))
            cones = [
                {
                    c
                    for c in forward_lightcone(arch, mode, depth)
                    if np.abs(coords[c] - coords[mode]).max() <= radius
                }
                for mode in t
            ]
            report = count_permitted_fbs_effective(arch, t, depth, lam, beta)
            assert report.exact_count == count_brute_force(arch.mode_count, cones)


def clipped_cones(arch, t, depth, radius):
    coords = mode_coordinates(arch.side_lengths)
    return [
        {c for c in forward_lightcone(arch, mode, depth) if np.abs(coords[c] - coords[mode]).max() <= radius}
        for mode in t
    ]


@pytest.mark.parametrize(
    "arch",
    [build_local_parallel(1, [9], 4), build_local_parallel(2, [3, 4], 4), build_nlhs(3, 1)],
    ids=["chain", "lattice", "nlhs"],
)
def test_counts_equal_filtered_enumeration(arch):
    """Plain and effective counts against every outcome filtered by membership.

    The sweep runs from depth 0, where each cone is its input mode alone, and
    counts the permitted outcomes that put two photons on one mode.
    """
    gen = np.random.default_rng(67)
    m = arch.mode_count
    collisions = 0
    for depth in range(arch.depth + 1):
        for n in (1, 2, 4):
            t = sorted(gen.choice(m, size=n, replace=False).tolist())
            permitted = [s for s in enumerate_outcomes(m, n) if is_permitted_fbs(arch, t, s, depth)]
            assert count_permitted_fbs(arch, t, depth).exact_count == len(permitted)
            if depth == 0:
                assert permitted == [tuple(t)]
            collisions += sum(len(set(s)) < n for s in permitted)
            if arch.side_lengths is None:
                continue
            lam, beta = float(gen.choice([0.1, 0.5])), float(gen.choice([0.5, 0.9]))
            radius = effective_lightcone_radius(n, depth, lam, beta, len(arch.side_lengths))
            cones = clipped_cones(arch, t, depth, radius)
            effective = [s for s in enumerate_outcomes(m, n) if matching_exists_brute_force(cones, s)]
            report = count_permitted_fbs_effective(arch, t, depth, lam, beta)
            assert report.exact_count == len(effective)
    assert collisions > 0


def test_minkowski_sum_rows():
    def column(*modes):
        return np.array(modes).reshape(-1, 1)

    rows = _minkowski_sum([column(0, 1), column(1, 2), column(1)], 3)
    assert sorted(map(tuple, rows.tolist())) == [(0, 1, 1), (0, 1, 2), (1, 1, 1), (1, 1, 2)]
    pairs = np.array([[0, 1], [1, 1]])
    rows = _minkowski_sum([pairs, pairs], 2)
    assert sorted(map(tuple, rows.tolist())) == [(0, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 1)]
    # no choices leave the one empty pattern; an empty choice list leaves none
    assert _minkowski_sum([], 3).shape == (1, 0)
    assert _minkowski_sum([column(0, 1), column(), column(2)], 3).shape == (0, 3)


def test_chunked_build_matches_one_block(monkeypatch):
    lattice, chain, nlhs = build_local_parallel(2, [3, 4], 4), build_local_parallel(1, [12], 6), build_nlhs(3, 1)
    counts = [
        lambda: count_permitted_fbs(lattice, (0, 5, 6, 11), 4),
        lambda: count_permitted_fbs_effective(chain, (0, 3, 6, 9), 6, 0.1, 0.9),
        lambda: count_permitted_gbs(nlhs, range(8), 3, 2),
    ]
    whole = [count().exact_count for count in counts]
    # a one-byte budget gives every held row a chunk of its own
    monkeypatch.setattr(fock, "_SUM_CHUNK_BYTES", 1)
    assert [count().exact_count for count in counts] == whole


def test_count_past_a_base_m_code():
    # 16 disjoint 2-mode cones on 1000 modes: a base-1000 integer code of the
    # 16-photon patterns would pass 2^63, and the rows hold the modes instead
    arch = build_local_parallel(1, [1000], 1)
    t = range(0, 64, 4)
    assert 1000**16 > 2**63
    report = count_permitted_fbs(arch, t, 1)
    assert report.exact_count == math.prod(len(forward_lightcone(arch, mode, 1)) for mode in t) == 2**16


def test_lattice_count_memory_and_time(monkeypatch):
    # 949,440 permitted 8-photon outcomes on a 6x6 lattice at depth 3.  The
    # build that held each pattern as a tuple in a Python set peaked at
    # 161.3 MiB under tracemalloc on this count and took 11.8-12.3 s traced
    # (2.0-3.6 s untraced) on a shared 2-core Xeon, Python 3.11, numpy 2.4
    arch = build_local_parallel(2, [6, 6], 3)
    t = (0, 10, 15, 17, 19, 22, 24, 25)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        report = count_permitted_fbs(arch, t, 3)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.exact_count == 949440
    assert peak <= 161 * 2**20
    assert elapsed < 5.0
    # the byte rule predicts more than the count really took, so a budget of
    # exactly the measured peak refuses it
    monkeypatch.setattr(fock, "_GUARD_BYTES", peak)
    with pytest.raises(GuardError, match="byte budget"):
        count_permitted_fbs(arch, t, 3)


def test_is_permitted_fbs_frozen_chain():
    arch = build_local_parallel(1, [8], 1)
    permitted = {(0, 6), (0, 7), (1, 6), (1, 7)}
    for s in enumerate_outcomes(8, 2):
        assert is_permitted_fbs(arch, (0, 7), s, 1) == (s in permitted)


def test_forbidden_outcomes_carry_no_probability():
    arch = build_local_parallel(1, [8], 2)
    t = (0, 3, 6)
    for i in range(3):
        u = realize(arch, RngStream(91, i))
        for s in enumerate_outcomes(8, 3):
            if not is_permitted_fbs(arch, t, s, 2):
                assert fbs_probability(u, t, s) < 1e-12


def test_count_permitted_fbs_frozen():
    arch = build_local_parallel(1, [8], 1)
    report = count_permitted_fbs(arch, (0, 7), 1)
    assert report.exact_count == 4
    assert report.upper_bound == 4.0
    assert report.total_outcomes == 36
    np.testing.assert_allclose(report.exact_ratio, 4 / 36, rtol=1e-12)


def test_count_permitted_fbs_bound_dominates():
    gen = np.random.default_rng(13)
    arch = build_local_parallel(1, [10], 4)
    for _ in range(25):
        depth = int(gen.integers(1, 5))
        n = int(gen.integers(1, 4))
        t = sorted(gen.choice(10, size=n, replace=False).tolist())
        report = count_permitted_fbs(arch, t, depth)
        assert report.exact_count <= report.upper_bound
        assert 0.0 <= report.exact_ratio <= report.bound_ratio <= 1.0


def test_count_permitted_fbs_full_connectivity():
    arch = build_nlhs(3, 1)
    report = count_permitted_fbs(arch, (0, 5), arch.depth)
    assert report.exact_count == report.total_outcomes == outcome_count(8, 2)


def test_count_permitted_fbs_guard(monkeypatch):
    arch = build_nlhs(7, 1)
    monkeypatch.setattr(fock, "ENUMERATION_GUARD", 10**6)
    with pytest.raises(GuardError):
        count_permitted_fbs(arch, tuple(range(8)), arch.depth)


def test_count_permitted_fbs_guard_bounds_permitted_set():
    # 7.3e13 outcomes in total, but the depth-2 cones are disjoint, so the
    # permitted set is their product and the guard admits it
    arch = build_local_parallel(1, [200], 2)
    report = count_permitted_fbs(arch, range(0, 141, 20), 2)
    assert report.total_outcomes == outcome_count(200, 8) > 7 * 10**13
    assert report.exact_count == 3 * 4**7 == 49152


def test_count_permitted_fbs_guard_bounds_build_visits(monkeypatch):
    # full connectivity: the build visits 16 + 16*16 + 136*16 + 816*16 partial
    # sums for the 3876 outcomes, and the guard counts those visits
    arch = build_nlhs(4, 1)
    monkeypatch.setattr(fock, "ENUMERATION_GUARD", 15504)
    report = count_permitted_fbs(arch, range(4), arch.depth)
    assert report.exact_count == report.total_outcomes == 3876
    monkeypatch.setattr(fock, "ENUMERATION_GUARD", 15503)
    with pytest.raises(GuardError, match="15504 partial outcomes"):
        count_permitted_fbs(arch, range(4), arch.depth)


def test_count_refused_by_its_bytes_quickly():
    # 25 photons in disjoint 2-mode cones visit 2^26 - 2 sums, under the visit
    # cap, but would keep 2^25 rows of 25 bytes: the byte rule refuses the
    # count before anything is built
    arch = build_local_parallel(1, [50], 1)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(GuardError, match="byte budget"):
            count_permitted_fbs(arch, range(0, 50, 2), 1)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 2**26 - 2 < fock.ENUMERATION_GUARD
    assert elapsed < 1.0
    assert peak < 10 * 2**20


def test_dense_fbs_count_refused_before_building():
    # 6.2e7 outcomes, all permitted: the default guard refuses without building
    arch = build_nlhs(5, 1)
    start = time.perf_counter()
    with pytest.raises(GuardError):
        count_permitted_fbs(arch, range(8), arch.depth)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("effective", [False, True], ids=["plain", "effective"])
def test_count_guard_runs_before_the_product_bound(effective):
    # 200 photons on a 100-layer chain: the product bound overflows a float, and the guard
    # refuses the count before the bound is evaluated
    arch = build_local_parallel(1, [1000], 100)
    args = (0.5, 0.5) if effective else ()
    count = count_permitted_fbs_effective if effective else count_permitted_fbs
    with pytest.raises(GuardError):
        count(arch, range(200), 100, *args)


def test_effective_bound_is_the_clipped_cone_product():
    # the closed-form cone size 2^1000 squared, the bound reported before, overflowed a
    # float; a radius this large clips nothing, so the bound is the plain count's
    arch = build_local_parallel(2, [2, 4], 2)
    report = count_permitted_fbs_effective(arch, (0, 1), 2, 1000.0, 0.5)
    assert report.upper_bound == count_permitted_fbs(arch, (0, 1), 2).upper_bound
    # the closed form read 493.8 here, under the exact 4,886, and 0.0 at depth 0
    arch = build_local_parallel(1, [24], 5)
    t = (2, 8, 12, 21)
    radius = effective_lightcone_radius(len(t), 5, 0.5, 0.9, 1)
    report = count_permitted_fbs_effective(arch, t, 5, 0.5, 0.9)
    assert report.exact_count == 4886
    assert report.upper_bound == math.prod(map(len, clipped_cones(arch, t, 5, radius)))
    report = count_permitted_fbs_effective(arch, t, 0, 0.5, 0.9)
    assert report.exact_count == report.upper_bound == 1


@pytest.mark.parametrize(
    "arch",
    [build_local_parallel(1, [16], 6), build_local_parallel(2, [4, 5], 6)],
    ids=["chain", "lattice"],
)
def test_effective_bound_holds_from_depth_0(arch):
    gen = np.random.default_rng(71)
    for depth in range(arch.depth + 1):
        for n in (1, 2, 3, 4):
            t = sorted(gen.choice(arch.mode_count, size=n, replace=False).tolist())
            for lam, beta in ((0.1, 0.9), (0.5, 0.9), (0.5, 0.5), (1.0, 0.5)):
                report = count_permitted_fbs_effective(arch, t, depth, lam, beta)
                assert report.exact_count <= report.upper_bound, (depth, t, lam, beta)


def test_is_permitted_fbs_many_photons():
    # depth-2 cones are disjoint 4-mode blocks holding two inputs each, so an
    # outcome is permitted exactly when every block holds two photons
    gen = np.random.default_rng(37)
    arch = build_nlhs(6, 1)
    t = range(0, 60, 2)
    start = time.perf_counter()
    for _ in range(10):
        outcome = sorted(4 * b + int(x) for b in range(15) for x in gen.integers(0, 4, size=2))
        assert is_permitted_fbs(arch, t, outcome, 2)
        outcome[0] = 60 + int(gen.integers(0, 4))
        assert not is_permitted_fbs(arch, t, sorted(outcome), 2)
    assert time.perf_counter() - start < 5.0


def test_cli_counts_deep_forbidden_chain(tmp_path):
    out = tmp_path / "count.json"
    code = main(
        ["permitted-count", "--seed", "1", "--modes", "200", "--ensemble",
         "local-parallel", "--depth", "2", "--photons", "8", "--scheme", "fbs",
         "--input", ",".join(str(i) for i in range(0, 141, 20)), "--out", str(out)]
    )
    assert code == 0
    assert json.loads(out.read_text())["exact_count"] == 49152


def test_effective_count_without_clipping_matches_plain():
    # radius 5 exceeds what depth 3 can reach, so clipping changes nothing
    arch = build_local_parallel(1, [8], 3)
    plain = count_permitted_fbs(arch, (0, 4), 3)
    eff = count_permitted_fbs_effective(arch, (0, 4), 3, 0.5, 0.5)
    assert eff.exact_count == plain.exact_count


def test_effective_count_clips_wide_cones():
    arch = build_local_parallel(1, [12], 6)
    plain = count_permitted_fbs(arch, (0, 6), 6)
    eff = count_permitted_fbs_effective(arch, (0, 6), 6, 0.1, 0.9)
    assert eff.exact_count <= plain.exact_count
    assert eff.exact_count < plain.exact_count  # radius 4 trims depth-6 cones


def test_effective_count_requires_lattice():
    with pytest.raises(ValueError):
        count_permitted_fbs_effective(build_nlhs(3, 1), (0,), 3, 0.5, 0.5)


def test_ratio_bound_formula_and_domain():
    m, n, gamma, d, depth = 8, 2, 1.5, 1, 1
    c0 = m / n**gamma
    expect = 3 * math.sqrt(n) * (
        (2**d * depth**d * n ** (1 - gamma)) / (math.e * d**d * c0)
    ) ** n
    np.testing.assert_allclose(
        fbs_permitted_ratio_bound(m, n, gamma, c0, d, depth), expect, rtol=1e-12
    )
    with pytest.raises(ValueError):
        fbs_permitted_ratio_bound(m, n, gamma, c0 * 1.5, d, depth)
    with pytest.raises(ValueError, match="overflows a float"):
        fbs_permitted_ratio_bound(16, 4, 1e300, 1.0, 1, 2)
    with pytest.raises(ValueError, match="depth must be non-negative, got -1"):
        fbs_permitted_ratio_bound(16, 3, 1.0, 16 / 3, 1, -1)
    with pytest.raises(ValueError, match=r"mode count nan is not c0\*n\^gamma = 16.000"):
        fbs_permitted_ratio_bound(math.nan, 4, 1.0, 4.0, 1, 2)


def test_fbs_depth_thresholds_unit_constants():
    th = fbs_depth_thresholds(4, 1.0, 1.0, 1, 0.5, 0.5)
    np.testing.assert_allclose(th.forbidden_constant, math.e / 2, rtol=1e-14)
    np.testing.assert_allclose(th.concentration_constant, math.e**2 / 4, rtol=1e-14)
    np.testing.assert_allclose(th.forbidden_depth, th.forbidden_constant, rtol=1e-14)
    np.testing.assert_allclose(
        th.concentration_depth, th.concentration_constant / 2.0, rtol=1e-14
    )
    # with m = n the additive error is n!/n^n exactly
    np.testing.assert_allclose(th.additive_error, 24 / 256, rtol=1e-12)
    assert set(th.to_dict()) >= {"scheme", "forbidden_depth", "concentration_depth"}


def test_fbs_depth_thresholds_domain():
    with pytest.raises(ValueError):
        fbs_depth_thresholds(4, 0.9, 1.0, 1, 0.5, 0.5)
    with pytest.raises(ValueError):
        fbs_depth_thresholds(4, 1.0, 1.0, 1, 0.5, 1.0)
    with pytest.raises(ValueError):
        fbs_depth_thresholds(0, 1.0, 1.0, 1, 0.5, 0.5)
    with pytest.raises(ValueError, match="mode-scaling exponent must be >= 1, got nan"):
        fbs_depth_thresholds(4, math.nan, 1.0, 1, 0.5, 0.5)
