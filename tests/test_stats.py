import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import ks_2samp

import shallowbs.arch
import shallowbs.gaussian
import shallowbs.stats
from shallowbs.arch import build_local_parallel, build_nlhs, realize
from shallowbs.fock import fbs_probability
from shallowbs.gaussian import (
    evolve_covariance,
    gbs_unnormalized_probability,
    page_curve,
    photon_pair_marginal,
    reduced_covariance,
    renyi2_entropy,
    smsv_covariance,
)
from shallowbs.linalg import RngStream, _trial_generators, ginibre, haar_unitary
from shallowbs.matfn import hafnian, permanent
from shallowbs.stats import (
    bootstrap_std,
    density_function,
    fbs_probability_samples,
    frame_potential,
    gbs_probability_samples,
    hiding_samples,
    random_collision_free_pattern,
)


def test_density_function_equal_counts():
    curve = density_function([4.0, 2.0, 6.0, 1.0, 5.0, 3.0], 2)
    assert curve.total_samples == 6
    assert [b.count for b in curve.buckets] == [3, 3]
    assert [b.x for b in curve.buckets] == [2.0, 5.0]
    assert [b.width for b in curve.buckets] == [2.0, 2.0]
    np.testing.assert_allclose([b.density for b in curve.buckets], [0.25, 0.25])


def test_density_function_remainder_goes_first():
    curve = density_function(list(range(7)), 3)
    assert [b.count for b in curve.buckets] == [3, 2, 2]


def test_density_function_degenerate_bucket():
    curve = density_function([2.0] * 5, 2)
    assert all(b.density is None and b.width == 0.0 for b in curve.buckets)
    rows = curve.to_rows()
    assert rows[0]["density"] is None
    assert set(rows[0]) == {"x", "density", "count", "width"}


def test_density_function_integrates_to_one():
    gen = np.random.default_rng(19)
    for _ in range(10):
        samples = gen.normal(size=500)
        curve = density_function(samples, 25)
        mass = sum(b.density * b.width for b in curve.buckets)
        np.testing.assert_allclose(mass, 1.0, rtol=1e-12)


def test_density_function_validation():
    with pytest.raises(ValueError):
        density_function([], 1)
    with pytest.raises(ValueError):
        density_function([1.0, 2.0], 3)
    with pytest.raises(ValueError):
        density_function([1.0, 2.0], 0)


def test_bootstrap_std_refuses_anything_but_a_stream():
    with pytest.raises(TypeError, match="the bootstrap needs an RngStream, got Generator"):
        bootstrap_std([1.0, 2.0], 100, np.random.default_rng(0))


def test_bootstrap_std_basics():
    rng = RngStream(4, 0)
    assert bootstrap_std([3.0] * 50, 200, rng) == 0.0
    gen = np.random.default_rng(12)
    samples = gen.normal(size=400)
    est = bootstrap_std(samples, 500, rng)
    expect = samples.std() / 20.0
    assert 0.7 * expect < est < 1.3 * expect
    assert bootstrap_std(samples, 500, rng) == est
    with pytest.raises(ValueError):
        bootstrap_std([1.0], 200, rng)
    with pytest.raises(ValueError):
        bootstrap_std(samples, 50, rng)


def test_frame_potential_single_mode_is_exact():
    """Phases always satisfy |<u, v>| = 1, so the raw moment is exactly one."""
    est = frame_potential(1, 3, 50, RngStream(9, 0))
    np.testing.assert_allclose(est.raw_mean, 1.0, rtol=1e-12)
    np.testing.assert_allclose(est.normalized, 1.0 / 6.0, rtol=1e-12)


def test_frame_potential_haar_first_moment():
    est = frame_potential(3, 1, 3000, RngStream(14, 0))
    assert est.k_moment == 1
    assert est.n_sam == 3000
    assert abs(est.normalized - 1.0) < 3 * est.bootstrap_std
    again = frame_potential(3, 1, 3000, RngStream(14, 0))
    assert est == again


def test_frame_potential_validation():
    with pytest.raises(ValueError):
        frame_potential(2, 0, 100, RngStream(0, 0))
    with pytest.raises(ValueError):
        frame_potential(2, 2, 1, RngStream(0, 0))


def test_random_collision_free_pattern():
    seen = set()
    for i in range(600):
        pat = random_collision_free_pattern(4, 2, RngStream(6, i))
        assert pat == tuple(sorted(set(pat)))
        assert all(0 <= x < 4 for x in pat)
        seen.add(pat)
    assert len(seen) == 6
    with pytest.raises(ValueError):
        random_collision_free_pattern(3, 4, RngStream(0, 0))
    with pytest.raises(TypeError, match="expected RngStream or numpy Generator, got int"):
        random_collision_free_pattern(4, 2, 6)


def test_fbs_probability_samples_scale():
    rng = RngStream(25, 0)
    values = fbs_probability_samples(6, 2, 2000, rng)
    assert values.shape == (2000,)
    assert (values >= 0).all()
    np.testing.assert_array_equal(values, fbs_probability_samples(6, 2, 2000, rng))
    # Haar minors sit near the Ginibre scale n!/m^n
    assert 0.5 * 2 / 36 < values.mean() < 2.0 * 2 / 36


def test_gbs_probability_samples_shape():
    rng = RngStream(26, 0)
    values = gbs_probability_samples(6, 2, 500, rng)
    assert values.shape == (500,)
    assert (values >= 0).all()
    np.testing.assert_array_equal(values, gbs_probability_samples(6, 2, 500, rng))
    with pytest.raises(ValueError):
        gbs_probability_samples(6, 3, 100, rng)


@pytest.fixture
def draws(monkeypatch):
    """Every circuit draw and generator made while the test runs, as (name, result)."""
    calls = []

    def record(name, fn):
        def spy(*args):
            at = len(calls)
            calls.append((name, None))  # recorded before the call, in case it raises
            calls[at] = (name, fn(*args))
            return calls[at][1]
        return spy

    monkeypatch.setattr(shallowbs.arch, "realize", record("realize", shallowbs.arch.realize))
    monkeypatch.setattr(shallowbs.arch, "haar_unitary", record("haar", haar_unitary))
    monkeypatch.setattr(RngStream, "generator", record("generator", RngStream.generator))

    def trials(rng, count):
        for gen in _trial_generators(rng, count):
            # a generator the helper took from RngStream.generator is recorded already
            if not (calls and calls[-1][1] is gen):
                calls.append(("generator", gen))
            yield gen

    # every driver seeds its trials in batches, through arch._trial_chunks
    monkeypatch.setattr(shallowbs.arch, "_trial_generators", trials)
    return calls


@pytest.mark.parametrize("driver", [fbs_probability_samples, gbs_probability_samples])
def test_probability_samples_refuse_photons_over_modes_before_sampling(driver, draws):
    with pytest.raises(ValueError, match="cannot place 6 collision-free photons in 4 modes"):
        driver(4, 6, 10, RngStream(0, 0))
    assert draws == []


@pytest.mark.parametrize(
    "driver",
    [
        functools.partial(fbs_probability_samples, photons=2, n_sam=4),
        functools.partial(gbs_probability_samples, photons=2, n_sam=4),
        functools.partial(page_curve, squeeze_r=0.4, samples=2),
        functools.partial(frame_potential, k_moment=2, n_sam=2),
    ],
    ids=["fbs", "gbs", "page_curve", "frame_potential"],
)
@pytest.mark.parametrize(
    "ensemble, error, message",
    [
        (1.5, TypeError, "got 1.5"),
        ("nlhs", TypeError, "got 'nlhs'"),
        (0, ValueError, "mode count must be positive, got 0"),
    ],
    ids=["float", "name", "zero"],
)
def test_drivers_refuse_a_bad_ensemble_before_drawing(driver, ensemble, error, message, draws):
    with pytest.raises(error, match=message):
        driver(ensemble, rng=RngStream(0, 0))
    assert draws == []


def test_drivers_draw_through_module_globals(draws):
    """A wrapper on ``arch.realize`` or ``arch.haar_unitary`` sees every trial in the
    stacks it returns, and the ``draws`` fixture every generator, trial or bootstrap."""
    fbs_probability_samples(build_nlhs(2, 1), 2, 3, RngStream(0, 0))
    assert sum(len(stack) for name, stack in draws if name == "realize") == 3
    assert [name for name, _ in draws].count("generator") == 3
    frame_potential(4, 1, 2, RngStream(0, 0))
    assert sum(len(stack) for name, stack in draws if name == "haar") == 4
    assert [name for name, _ in draws].count("generator") == 3 + 4 + 1
    del draws[:]
    page_curve(4, 0.4, 4, RngStream(0, 0))  # 12 generators, seeded as one batch
    hiding_samples("gbs", 4, 2, 3, RngStream(0, 0))  # 3 generators, one batch too
    assert [name for name, _ in draws].count("generator") == 3 * 4 + 3


@pytest.mark.parametrize(
    "driver",
    [
        functools.partial(fbs_probability_samples, 4, 2, 3),
        functools.partial(gbs_probability_samples, 4, 2, 3),
        functools.partial(page_curve, 4, 0.4, 2),
        functools.partial(frame_potential, 4, 1, 2),
        functools.partial(hiding_samples, "fbs", 4, 2, 3),
    ],
    ids=["fbs", "gbs", "page-curve", "frame-potential", "hiding"],
)
def test_drivers_refuse_a_generator_before_drawing(driver, draws):
    with pytest.raises(TypeError, match="trials need an RngStream, got Generator"):
        driver(np.random.default_rng(0))
    assert draws == []


def test_hiding_samples_scales_and_validation():
    rng = RngStream(27, 0)
    values = hiding_samples("fbs", 16, 2, 4000, rng)
    assert values.shape == (4000,)
    # E|perm|^2 of a unit Ginibre matrix is exactly n!
    assert abs(values.mean() * 16**2 / math.factorial(2) - 1.0) < 0.2
    np.testing.assert_array_equal(values, hiding_samples("fbs", 16, 2, 4000, rng))
    gbs = hiding_samples("gbs", 8, 4, 200, rng)
    assert gbs.shape == (200,)
    assert (gbs >= 0).all()
    with pytest.raises(ValueError):
        hiding_samples("other", 8, 2, 100, rng)
    with pytest.raises(ValueError):
        hiding_samples("gbs", 8, 3, 100, rng)
    with pytest.raises(ValueError, match="mode count must be positive"):
        hiding_samples("fbs", 0, 2, 3, rng)
    with pytest.raises(ValueError, match="mode count must be positive"):
        hiding_samples("fbs", -2, 3, 3, rng)
    with pytest.raises(ValueError, match="hiding scale m\\^n at m=100000000000, n=30 overflows"):
        hiding_samples("fbs", 10**11, 30, 2, rng)


@pytest.mark.parametrize(
    "arch", [build_nlhs(3, 1), build_local_parallel(2, [2, 4], 3)], ids=["nlhs", "lattice"]
)
def test_drivers_compute_through_library_rules(arch):
    """Each trial of a driver equals the public rule applied to that trial's own draws.

    The drivers read the mode count from the circuit, so the patterns of the
    trials range over all of its modes.
    """
    m, n_sam, rng = arch.mode_count, 25, RngStream(31, 0)
    fbs, gbs, patterns = [], [], []
    for i in range(n_sam):
        gen = rng.derive(i).generator()
        u = realize(arch, gen)
        t = random_collision_free_pattern(m, 3, gen)
        s = random_collision_free_pattern(m, 3, gen)
        fbs.append(fbs_probability(u, t, s))
        gen = rng.derive(i).generator()
        u = realize(arch, gen)
        out = random_collision_free_pattern(m, 4, gen)
        gbs.append(gbs_unnormalized_probability(u, range(m), out))
        patterns += [t, s, out]
    assert set().union(*patterns) == set(range(m))
    np.testing.assert_array_equal(fbs_probability_samples(arch, 3, n_sam, rng), fbs)
    np.testing.assert_array_equal(gbs_probability_samples(arch, 4, n_sam, rng), gbs)

    sigma0 = smsv_covariance(m, range(m), 0.4)
    rows = []
    for k in range(1, m):
        entropies = []
        for trial in range(n_sam):
            gen = rng.derive((k - 1) * n_sam + trial).generator()
            u = realize(arch, gen)
            subset = gen.choice(m, size=k, replace=False)
            entropies.append(
                renyi2_entropy(reduced_covariance(evolve_covariance(sigma0, u), subset))
            )
        chunk = np.array(entropies)
        rows.append((k, float(chunk.mean()), float(chunk.std(ddof=1) / math.sqrt(n_sam))))
    assert page_curve(arch, 0.4, n_sam, rng) == rows


def test_drivers_match_per_trial_draws_across_chunks():
    """Drivers realize circuits in chunks of several trials; on 32 modes a few
    samples span several chunks, and every trial still equals its own single draw."""
    arch, n_sam, rng = build_nlhs(5, 1), 13, RngStream(32, 0)
    m = arch.mode_count
    per_trial = 16 * m * m
    assert 2 * per_trial <= shallowbs.arch._REALIZE_CHUNK_BYTES <= n_sam * per_trial / 3
    fbs, gbs = [], []
    for i in range(n_sam):
        gen = rng.derive(i).generator()
        u = realize(arch, gen)
        t = random_collision_free_pattern(m, 3, gen)
        fbs.append(fbs_probability(u, t, random_collision_free_pattern(m, 3, gen)))
        gen = rng.derive(i).generator()
        u = realize(arch, gen)
        out = random_collision_free_pattern(m, 2, gen)
        gbs.append(gbs_unnormalized_probability(u, range(m), out))
    np.testing.assert_array_equal(fbs_probability_samples(arch, 3, n_sam, rng), fbs)
    np.testing.assert_array_equal(gbs_probability_samples(arch, 2, n_sam, rng), gbs)

    overlaps = [
        abs(np.vdot(realize(arch, rng.derive(2 * i)), realize(arch, rng.derive(2 * i + 1)))) ** 4
        for i in range(n_sam)
    ]
    assert frame_potential(arch, 2, n_sam, rng).raw_mean == float(np.mean(overlaps))

    sigma0 = smsv_covariance(m, range(m), 0.4)
    # three trials per subsystem size, so chunks straddle the sizes
    rows = page_curve(arch, 0.4, 3, rng)
    for k, mean, _ in rows[::10]:
        entropies = []
        for trial in range(3):
            gen = rng.derive((k - 1) * 3 + trial).generator()
            u = realize(arch, gen)
            subset = gen.choice(m, size=k, replace=False)
            sigma = evolve_covariance(sigma0, u)
            entropies.append(renyi2_entropy(reduced_covariance(sigma, subset)))
        assert mean == float(np.mean(entropies))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: density_function([1.0, 2.0, math.nan, 3.0], 2), "sample 2 is nan"),
        (lambda: density_function([1.0, math.inf, 2.0], 1), "sample 1 is inf"),
        (lambda: bootstrap_std([1.0, math.nan], 100, RngStream(0, 0)), "sample 1 is nan"),
    ],
    ids=["density-nan", "density-inf", "bootstrap-nan"],
)
def test_non_finite_samples_are_refused_before_any_draw(call, message, draws):
    with pytest.raises(ValueError, match=f"samples must be finite; {message}"):
        call()
    assert draws == []


@pytest.fixture
def kernels(monkeypatch):
    """Stack sizes of every kernel call made while the test runs, as (name, B)."""
    calls = []
    for name in ("permanent", "hafnian"):
        fn = getattr(shallowbs.matfn, name)

        def spy(stack, fn=fn, name=name):
            calls.append((name, len(stack)))
            return fn(stack)

        monkeypatch.setattr(shallowbs.matfn, name, spy)
    return calls


@pytest.mark.parametrize("ensemble", [build_nlhs(4, 1), 16], ids=["nlhs", "haar"])
def test_drivers_call_one_stacked_kernel_per_chunk(ensemble, kernels):
    """On 16 modes a chunk of 16 x 16 unitaries holds 16 trials, so 40 trials take
    stacks of 16, 16 and 8; a Haar FBS chunk of 16 x 3 thin Qs holds 85, so one of 40."""
    rng = RngStream(33, 0)
    fbs_probability_samples(ensemble, 3, 40, rng)
    haar = not isinstance(ensemble, shallowbs.arch.CircuitArchitecture)
    assert kernels == ([("permanent", 40)] if haar else
                       [("permanent", 16), ("permanent", 16), ("permanent", 8)])
    kernels.clear()
    gbs_probability_samples(ensemble, 4, 40, rng)
    assert kernels == [("hafnian", 16), ("hafnian", 16), ("hafnian", 8)]


def test_hiding_calls_one_stacked_kernel_per_chunk(kernels):
    """A chunk holds 64 KiB of n x n matrices, Ginibre draws for FBS and the
    Bartlett products Y Y^T that stand for X X^T of 4 x 32 draws for GBS:
    256 of 4 x 4 either way."""
    rng = RngStream(34, 0)
    hiding_samples("fbs", 32, 4, 300, rng)
    assert kernels == [("permanent", 256), ("permanent", 44)]
    kernels.clear()
    hiding_samples("gbs", 32, 4, 300, rng)
    assert kernels == [("hafnian", 256), ("hafnian", 44)]


@pytest.mark.parametrize("kind", ["fbs", "gbs"])
def test_hiding_draws_match_their_own_values(kind):
    """A chunk holds 28 matrices of 12 x 12; 30 draws span two chunks, and each
    equals |perm(X)|^2 / m^n of its own 12 x 12 Ginibre draw for FBS, or
    |Haf(Y Y^T)|^2 / m^n of its own Bartlett factor for GBS, in bytes: the 24 x 20
    L draws its 20 chi-squares, then the entries below its diagonal row by row,
    and Y = (L[:12] + i L[12:]) / sqrt(2).  The modulus is numpy's, which can
    differ from Python's ``abs`` of a complex in the last bit."""
    m, photons, n_sam, rng = 20, 12, 30, RngStream(38, 0)
    assert shallowbs.arch._chunk_trials(16 * photons**2) == 28
    want = []
    for i in range(n_sam):
        gen = rng.derive(i).generator()
        if kind == "fbs":
            value = permanent(ginibre(photons, photons, gen))
        else:
            factor = np.zeros((2 * photons, m))
            factor[range(m), range(m)] = np.sqrt(gen.chisquare(m - np.arange(m)))
            for row in range(2 * photons):
                for col in range(min(row, m)):
                    factor[row, col] = gen.standard_normal()
            y = (factor[:photons] + 1j * factor[photons:]) / np.sqrt(2.0)
            value = hafnian(y @ y.T)
        want.append(np.abs(value) ** 2 / float(m) ** photons)
    assert hiding_samples(kind, m, photons, n_sam, rng).tobytes() == np.array(want).tobytes()


def test_hiding_gbs_draws_nothing_of_the_mode_count_size():
    """The Bartlett factor holds 2n x min(2n, m) entries, so a mode count past int64
    draws a 4 x 4 factor where an n x m Ginibre draw could not be held."""
    values = hiding_samples("gbs", 10**20, 2, 3, RngStream(63, 0))
    assert values.shape == (3,) and np.isfinite(values).all() and (values > 0).all()


@pytest.mark.parametrize("m, photons", [(16, 2), (12, 4), (8, 4), (5, 4), (3, 4)])
def test_bartlett_products_have_the_law_of_ginibre_products(m, photons):
    """|Haf(Y Y^T)|^2 from the 2n x min(2n, m) Bartlett factor agrees in law with
    |Haf(X X^T)|^2 of an n x m Ginibre X, for m above, at and below 2n: a two-sample
    KS test on log|Haf|^2 over 20,000 draws a side at fixed seeds."""
    draws = 20_000
    bartlett = hiding_samples("gbs", m, photons, draws, RngStream(61, m))
    x = ginibre(draws * photons, m, RngStream(62, m)).reshape(draws, photons, m)
    direct = np.abs(hafnian(x @ x.transpose(0, 2, 1))) ** 2 / float(m) ** photons
    assert ks_2samp(np.log(bartlett), np.log(direct)).pvalue > 0.01


def test_haar_fbs_draws_match_their_own_values(draws):
    """A Haar FBS chunk holds 16 thin Qs of 32 x 8; 20 trials span two chunks, and
    each equals |perm(Q[:8, :8])|^2 of the phase-fixed QR of its own generator's
    32 x 8 Ginibre draw, in bytes, and draws nothing else from that generator."""
    m, photons, n_sam, rng = 32, 8, 20, RngStream(71, 0)
    assert shallowbs.arch._chunk_trials(16 * m * photons) == 16
    want, after = [], []
    for i in range(n_sam):
        gen = rng.derive(i).generator()
        q, r = np.linalg.qr(ginibre(m, photons, gen))
        q *= np.diagonal(r) / np.abs(np.diagonal(r))
        want.append(np.abs(permanent(q[:photons])) ** 2)
        after.append(gen.random())
    del draws[:]
    assert fbs_probability_samples(m, photons, n_sam, rng).tobytes() == np.array(want).tobytes()
    assert [gen.random() for name, gen in draws] == after


def test_haar_fbs_draws_nothing_of_the_mode_count_squared():
    """A Haar FBS trial draws M x n, so 10^5 modes take 1.6 MB a trial where an
    M x M unitary would take 160 GB."""
    values = fbs_probability_samples(10**5, 2, 3, RngStream(73, 0))
    assert values.shape == (3,) and np.isfinite(values).all() and (values > 0).all()


@pytest.mark.parametrize("m, photons, draws", [(6, 2, 20_000), (16, 3, 20_000), (32, 8, 4_000)])
def test_haar_fbs_trials_have_the_law_of_full_unitary_blocks(m, photons, draws):
    """Haar measure is invariant under permuting rows and columns, so |perm(U[s, t])|^2
    at random collision-free patterns has the law of |perm(U[:n, :n])|^2, the block the
    thin-QR trials read: a two-sample KS test against full ``haar_unitary`` draws at
    fixed seeds."""
    thin = fbs_probability_samples(m, photons, draws, RngStream(76, m))
    gens = list(_trial_generators(RngStream(77, m), draws))
    full = []
    for start in range(0, draws, 64):
        chunk = gens[start : start + 64]
        u = haar_unitary(m, chunk)
        t, s = (np.array([random_collision_free_pattern(m, photons, g) for g in chunk])
                for _ in range(2))
        blocks = u[np.arange(len(chunk))[:, None, None], s[:, :, None], t[:, None, :]]
        full.append(np.abs(permanent(blocks)) ** 2)
    assert ks_2samp(thin, np.concatenate(full)).pvalue > 0.01


@pytest.mark.parametrize(
    "driver",
    [
        functools.partial(fbs_probability_samples, 6, 2),
        functools.partial(gbs_probability_samples, 6, 2),
        functools.partial(hiding_samples, "fbs", 6, 2),
        functools.partial(hiding_samples, "gbs", 6, 2),
    ],
    ids=["fbs", "gbs", "hiding-fbs", "hiding-gbs"],
)
@pytest.mark.parametrize(
    "n_sam, error, message",
    [
        (-3, ValueError, "sample count must be positive, got -3"),
        (0, ValueError, "sample count must be positive, got 0"),
        (2.5, TypeError, "sample count must be an integer, got 2.5"),
    ],
    ids=["negative", "zero", "float"],
)
def test_sample_counts_are_refused_before_any_draw(driver, n_sam, error, message, draws):
    with pytest.raises(error, match=message):
        driver(n_sam, RngStream(0, 0))
    assert draws == []


@pytest.mark.parametrize(
    "driver",
    [functools.partial(frame_potential, 6, 1), functools.partial(page_curve, 6, 0.4)],
    ids=["frame-potential", "page-curve"],
)
@pytest.mark.parametrize(
    "n_sam, error, message",
    [
        (1, ValueError, "need at least two samples, got 1"),
        (2.5, TypeError, "sample count must be an integer, got 2.5"),
    ],
    ids=["one", "float"],
)
def test_standard_error_sample_counts_are_refused_before_any_draw(
    driver, n_sam, error, message, draws
):
    with pytest.raises(error, match=message):
        driver(n_sam, RngStream(0, 0))
    assert draws == []


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda rng: fbs_probability_samples(8, 2.0, 3, rng), "photon number must be an integer, got 2.0"),
        (lambda rng: gbs_probability_samples(8, 2.0, 3, rng), "photon number must be an integer, got 2.0"),
        (lambda rng: hiding_samples("fbs", 8, 2.0, 3, rng), "photon number must be an integer, got 2.0"),
        (lambda rng: hiding_samples("fbs", 8.5, 2, 3, rng), "mode count must be an integer, got 8.5"),
        (lambda rng: random_collision_free_pattern(8, 2.0, rng),
         "photon number must be an integer, got 2.0"),
        (lambda rng: random_collision_free_pattern(8.0, 2, rng), "mode count must be an integer, got 8.0"),
        (lambda rng: frame_potential(16, 1.5, 2000, rng), "moment order must be an integer, got 1.5"),
        (lambda rng: bootstrap_std([1.0, 2.0], 150.5, rng), "resample count must be an integer, got 150.5"),
        (lambda rng: density_function([1.0, 2.0, 3.0], 2.5), "bucket count must be an integer, got 2.5"),
        (lambda rng: photon_pair_marginal(4.0, 0.4, 1), "source count must be an integer, got 4.0"),
        (lambda rng: photon_pair_marginal(4, 0.4, 1.5), "pair number must be an integer, got 1.5"),
    ],
    ids=["fbs-photons", "gbs-photons", "hiding-photons", "hiding-modes", "pattern-photons",
         "pattern-modes", "k-moment", "resamples", "buckets", "k-inputs", "pairs"],
)
def test_non_integer_counts_are_refused_before_any_draw(call, message, draws):
    with pytest.raises(TypeError, match=message):
        call(RngStream(0, 0))
    assert draws == []


def test_moment_rule_bounds_the_sums_of_an_ensemble_at_its_trial_bound(draws):
    """Every depth-0 draw is the identity, so each trial is exactly M^(2k): at
    M = 16 the trials' sum and the bootstrap stay finite up to k = 63."""
    depth0 = build_nlhs(4, 0)
    message = r"frame potential at k=64, M=16, 200 samples: k! or 1000\*M\^\(4k\) overflows a float"
    with pytest.raises(ValueError, match=message):
        frame_potential(depth0, 64, 200, RngStream(0))
    assert draws == []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = frame_potential(depth0, 63, 200, RngStream(0))
    assert (est.raw_mean, est.bootstrap_std) == (16.0**126, 0.0)


def test_integer_counts_of_any_integer_type_are_accepted():
    rng = RngStream(39, 0)
    assert bootstrap_std([1.0, 2.0], np.int64(100), rng) == bootstrap_std([1.0, 2.0], 100, rng)
    curve = density_function([1.0, 2.0, 3.0], np.uint8(2))
    assert [b.count for b in curve.buckets] == [2, 1]
    assert photon_pair_marginal(np.int16(4), 0.4, np.int8(1)) == photon_pair_marginal(4, 0.4, 1)
    assert frame_potential(4, np.int64(2), 3, rng) == frame_potential(4, 2, 3, rng)
    assert random_collision_free_pattern(np.int32(6), np.int64(3), rng.generator()) == (
        random_collision_free_pattern(6, 3, rng.generator())
    )


def test_page_curve_evolves_one_stack_per_chunk(monkeypatch):
    import shallowbs.gaussian

    stacks = []
    evolved = shallowbs.gaussian._evolved
    monkeypatch.setattr(
        shallowbs.gaussian, "_evolved", lambda sigma, u: stacks.append(len(u)) or evolved(sigma, u)
    )
    page_curve(build_nlhs(2, 1), 0.4, 7, RngStream(35, 0))
    assert stacks == [21]  # 3 sizes x 7 samples of 4 x 4 unitaries fit one chunk
    stacks.clear()
    page_curve(build_nlhs(4, 1), 0.4, 3, RngStream(35, 0))
    assert stacks == [16, 16, 13]


def bootstrap_loop(samples, resamples, rng):
    """The per-resample loop that ``bootstrap_std`` draws in blocks."""
    values = np.asarray(samples, dtype=float)
    gen = rng.generator()
    n = values.size
    means = np.empty(resamples)
    for r in range(resamples):
        means[r] = values[gen.integers(0, n, size=n)].mean()
    return float(means.std())


@pytest.mark.parametrize("n", [2, 7, 270])
@pytest.mark.parametrize("resamples", [100, 1000, 1001])
def test_bootstrap_blocks_match_the_loop(n, resamples, monkeypatch):
    samples = np.random.default_rng(n).lognormal(size=n)
    rng = RngStream(36, n)
    want = bootstrap_loop(samples, resamples, rng)
    assert bootstrap_std(samples, resamples, rng) == want
    # blocks of 7 rows: 1000 and 1001 resamples end inside a block
    monkeypatch.setattr(shallowbs.arch, "_REALIZE_CHUNK_BYTES", 7 * 8 * n)
    assert bootstrap_std(samples, resamples, rng) == want


def test_bootstrap_memory_stays_bounded():
    """At n = 10^5 a block is one row; drawing every resample at once would take 80 MB."""
    n = 10**5
    samples = np.random.default_rng(5).normal(size=n)
    tracemalloc.start()
    try:
        bootstrap_std(samples, 100, RngStream(37, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * n, peak
