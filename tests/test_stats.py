import functools
import math

import numpy as np
import pytest

import shallowbs.arch
from shallowbs.arch import build_local_parallel, build_nlhs, realize
from shallowbs.fock import fbs_probability
from shallowbs.gaussian import (
    evolve_covariance,
    gbs_unnormalized_probability,
    page_curve,
    reduced_covariance,
    renyi2_entropy,
    smsv_covariance,
)
from shallowbs.linalg import RngStream, haar_unitary
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
    """Every circuit draw and generator made while the test runs."""
    calls = []

    def record(name, fn):
        def spy(*args):
            calls.append(name)
            return fn(*args)
        return spy

    monkeypatch.setattr(shallowbs.arch, "realize", record("realize", shallowbs.arch.realize))
    monkeypatch.setattr(shallowbs.arch, "haar_unitary", record("haar", haar_unitary))
    monkeypatch.setattr(RngStream, "generator", record("generator", RngStream.generator))
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
    """A wrapper on ``arch.realize`` or ``arch.haar_unitary`` sees every draw."""
    fbs_probability_samples(build_nlhs(2, 1), 2, 3, RngStream(0, 0))
    assert draws.count("realize") == 3
    frame_potential(4, 1, 2, RngStream(0, 0))
    assert draws.count("haar") == 4


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
