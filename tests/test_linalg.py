import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shallowbs
import shallowbs.arch
import shallowbs.fock
import shallowbs.gaussian
import shallowbs.linalg
from shallowbs.arch import (
    backward_lightcone,
    build_local_parallel,
    build_nlhs,
    effective_lightcone_radius,
    forward_lightcone,
    leakage_rate,
    mode_coordinates,
    path_count,
    realize,
    truncate_unitary,
)
from shallowbs.fock import count_permitted_fbs, is_permitted_fbs
from shallowbs.gaussian import count_permitted_gbs, reduced_covariance, smsv_covariance
from shallowbs.matfn import GuardError
from shallowbs.linalg import (
    _SEED_BLOCK,
    RngStream,
    as_generator,
    ginibre,
    haar_unitary,
    _haar_u2_batch,
    _trial_generators,
)


def haar_u2(rng):
    """One Haar-random 2x2 unitary."""
    return _haar_u2_batch(as_generator(rng).random((4, 1)))[0]


def test_rng_stream_is_reproducible():
    a = RngStream(42, 0).generator().random(8)
    b = RngStream(42, 0).generator().random(8)
    np.testing.assert_array_equal(a, b)


def test_rng_stream_seed_and_stream_both_matter():
    base = RngStream(42, 0).generator().random(8)
    assert not np.array_equal(base, RngStream(43, 0).generator().random(8))
    assert not np.array_equal(base, RngStream(42, 1).generator().random(8))


def test_derive_builds_distinct_child_streams():
    root = RngStream(7, 0)
    children = [root.derive(i) for i in range(20)]
    assert len({c.stream for c in children}) == 20
    draws = [tuple(c.generator().random(4)) for c in children]
    assert len(set(draws)) == 20
    # nesting: children of different parents never collide
    grand = [root.derive(0).derive(i) for i in range(20)]
    assert {g.stream for g in grand}.isdisjoint({c.stream for c in children})


def test_derive_index_bounds():
    root = RngStream(7, 0)
    with pytest.raises(ValueError):
        root.derive(-1)
    with pytest.raises(ValueError):
        root.derive(2**32)


def assert_same_generators(gens, rng, indices):
    """Each generator has the bit-generator state and first draws of ``rng.derive(i)``'s."""
    gens = list(gens)
    assert len(gens) == len(indices)
    for gen, i in zip(gens, indices):
        ref = rng.derive(i).generator()
        assert gen.bit_generator.state == ref.bit_generator.state, i
        np.testing.assert_array_equal(gen.random(3), ref.random(3))
        np.testing.assert_array_equal(gen.integers(0, 2**63, 3), ref.integers(0, 2**63, 3))


@pytest.fixture
def reference_calls(monkeypatch):
    """Each stream whose generator ``RngStream.generator`` makes while the test runs."""
    calls = []
    generator = RngStream.generator
    monkeypatch.setattr(RngStream, "generator", lambda self: calls.append(self) or generator(self))
    return calls


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**63])
def test_trial_generators_match_derived_streams(seed, reference_calls):
    # one derive level (stream ids below 2^32) and two (ids of two words); at
    # most 4 entropy words, so every stream is hashed in a block
    root = RngStream(seed)
    for rng in (root, root.derive(0), root.derive(2**32 - 2)):
        gens = _trial_generators(rng, 40)
        assert reference_calls == []
        assert_same_generators(gens, rng, range(40))
        reference_calls.clear()


@pytest.mark.parametrize("tail", [1, 8])
def test_trial_generators_cross_a_block_boundary(tail, reference_calls):
    # a tail block is hashed as a batch however few streams it holds
    rng = RngStream(2**32 + 5).derive(3)
    gens = list(_trial_generators(rng, _SEED_BLOCK + tail))
    assert reference_calls == []
    picks = sorted({0, 1, _SEED_BLOCK - 1, _SEED_BLOCK, _SEED_BLOCK + tail - 1})
    assert_same_generators([gens[i] for i in picks], rng, picks)


def test_trial_generators_fall_back_past_four_entropy_words(reference_calls):
    # a 3-word seed and a 2-word stream: 3 + 1 + 2 words do not fit the pool
    rng = RngStream(2**64 + 7).derive(9)
    gens = list(_trial_generators(rng, 16))
    assert len(reference_calls) == 16
    assert_same_generators(gens, rng, range(16))


def test_trial_generators_keep_the_index_bound(monkeypatch, reference_calls):
    # the block reaching the last child index takes RngStream.generator, whose
    # derive refuses an index past it; a smaller bound keeps the test short
    monkeypatch.setattr(shallowbs.linalg, "_MAX_CHILD", _SEED_BLOCK + 20)
    gens = _trial_generators(RngStream(1), _SEED_BLOCK + 21)
    assert len([next(gens) for _ in range(_SEED_BLOCK + 20)]) == _SEED_BLOCK + 20
    assert len(reference_calls) == 20
    with pytest.raises(ValueError, match="child index must lie in"):
        next(gens)
    assert list(_trial_generators(RngStream(1), 0)) == []


@pytest.mark.parametrize("field", ["seed", "stream"])
@pytest.mark.parametrize(
    "value, error, message",
    [
        (-1, ValueError, "{field} must be non-negative, got -1"),
        (2.5, TypeError, "{field} must be an integer, got 2.5"),
        ("3", TypeError, "{field} must be an integer, got '3'"),
    ],
    ids=["negative", "float", "string"],
)
def test_rng_stream_refuses_a_bad_seed_or_stream(field, value, error, message):
    with pytest.raises(error, match=message.format(field=field)):
        RngStream(**{"seed": 1, field: value})


@pytest.fixture
def masks(monkeypatch):
    """Every list of lightcone masks built while the test runs."""
    built = []

    def spy(*args, **kwargs):
        built.append(cone_masks(*args, **kwargs))
        return built[-1]

    cone_masks = shallowbs.arch._cone_masks
    for module in (shallowbs.arch, shallowbs.fock, shallowbs.gaussian):
        monkeypatch.setattr(module, "_cone_masks", spy)
    return built


_NLHS8 = build_nlhs(3, 1)


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda gen: count_permitted_gbs(_NLHS8, [0, 1], 1.0, 2), "pair number"),
        (lambda gen: count_permitted_gbs(_NLHS8, [0, 1], 1, 2.0), "depth"),
        (lambda gen: count_permitted_fbs(_NLHS8, [0, 1], 1.0), "depth"),
        (lambda gen: count_permitted_fbs(_NLHS8, [0.0, 1], 1), "mode"),
        (lambda gen: is_permitted_fbs(_NLHS8, [0], [1], 1.0), "depth"),
        (lambda gen: forward_lightcone(_NLHS8, 1.0, 1), "mode"),
        (lambda gen: backward_lightcone(_NLHS8, 1, 1.0), "depth"),
        (lambda gen: path_count(_NLHS8, 0.0, 1), "mode"),
        (lambda gen: path_count(_NLHS8, 0, 1.0), "mode"),
        (lambda gen: leakage_rate(np.eye(4), [4], 1.0, 1), "mode"),
        (lambda gen: leakage_rate(np.eye(4), [4], 1, 1.5), "radius"),
        (lambda gen: truncate_unitary(np.eye(4), [4], 1.5), "radius"),
        (lambda gen: effective_lightcone_radius(16.0, 8, 0.5, 0.5, 1), "photon number"),
        (lambda gen: effective_lightcone_radius(16, 8.0, 0.5, 0.5, 1), "depth"),
        (lambda gen: ginibre(2.0, 2, gen), "row count"),
        (lambda gen: ginibre(2, 2.0, gen), "column count"),
        (lambda gen: haar_unitary(4.0, gen), "mode count"),
        (lambda gen: smsv_covariance(4.0, [0], 0.4), "mode count"),
        (lambda gen: reduced_covariance(np.eye(8), [0.0]), "mode"),
        (lambda gen: build_local_parallel(1, [4.0], 1), "side length"),
        (lambda gen: mode_coordinates([2, 2.0]), "side length"),
        (lambda gen: RngStream(2.5), "seed"),
        (lambda gen: RngStream(1).derive(1.5), "child index"),
    ],
    ids=["gbs-pairs", "gbs-depth", "fbs-depth", "fbs-input", "is-permitted-depth", "forward-mode",
         "backward-depth", "path-input", "path-output", "leakage-mode", "leakage-radius",
         "truncate-radius", "radius-photons", "radius-depth", "ginibre-rows", "ginibre-cols",
         "haar-modes", "smsv-modes", "reduced-modes", "lattice-sides", "coordinate-sides",
         "rng-seed", "child-index"],
)
def test_float_counts_are_refused_before_any_mask_or_draw(call, what, masks):
    gen = np.random.default_rng(0)
    state = gen.bit_generator.state
    with pytest.raises(TypeError, match=f"^{what} must be an integer, got "):
        call(gen)
    assert masks == []
    assert gen.bit_generator.state == state


def test_rng_stream_keeps_integer_fields_as_ints():
    rng = RngStream(np.uint64(2**63), np.int8(4))
    assert (type(rng.seed), type(rng.stream)) == (int, int)
    assert rng == RngStream(2**63, 4)


def test_no_generator_seed_sequence_is_spawned():
    # the batch helper's generators carry a seed sequence that cannot spawn
    gen = next(_trial_generators(RngStream(0), 8))
    with pytest.raises(TypeError, match="does not implement spawning"):
        gen.spawn(1)
    src = Path(shallowbs.__file__).parent
    callers = [p.name for p in src.glob("*.py") if re.search(r"\.spawn\(", p.read_text())]
    assert callers == []


def test_only_the_trial_loop_seeds_trials():
    # every Monte-Carlo driver runs its trials through arch._trial_chunks
    src = Path(shallowbs.__file__).parent
    calls = {p.name: len(re.findall(r"(?<!def )_trial_generators\(", p.read_text()))
             for p in src.glob("*.py")}
    assert {name: n for name, n in calls.items() if n} == {"arch.py": 1}


def test_import_leaves_numpy_random_out():
    # importing numpy.random raised the peak RSS after `import shallowbs.cli`
    # from 30.0 to 35.3 MB, and counting runs never need it
    code = "import sys, shallowbs, shallowbs.cli; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(shallowbs.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_as_generator_accepts_both_kinds():
    gen = np.random.default_rng(3)
    assert as_generator(gen) is gen
    out = as_generator(RngStream(3, 0))
    assert isinstance(out, np.random.Generator)


def unitarity_error(u):
    m = u.shape[0]
    return np.abs(u @ u.conj().T - np.eye(m)).max()


def test_haar_u2_is_unitary():
    for i in range(50):
        g = haar_u2(RngStream(11, i))
        assert g.shape == (2, 2)
        assert unitarity_error(g) < 1e-12


def test_haar_u2_batch_matches_single_draws():
    uniforms = RngStream(5, 9).generator().random((4, 6))
    batch = _haar_u2_batch(uniforms)
    assert batch.shape == (6, 2, 2)
    for j, g in enumerate(batch):
        assert unitarity_error(g) < 1e-12
        assert g.tobytes() == _haar_u2_batch(uniforms[:, j : j + 1])[0].tobytes()


def test_haar_u2_entry_moments():
    """For a Haar 2x2 block, |u00|^2 is uniform on [0, 1]."""
    gen = RngStream(17, 0).generator()
    batch = _haar_u2_batch(gen.random((4, 200_000)))
    w = np.abs(batch[:, 0, 0]) ** 2
    assert abs(w.mean() - 0.5) < 5e-3
    assert abs((w**2).mean() - 1.0 / 3.0) < 5e-3


def test_haar_unitary_is_unitary_and_reproducible():
    for m in (1, 2, 5, 8):
        u = haar_unitary(m, RngStream(23, m))
        assert u.shape == (m, m)
        assert unitarity_error(u) < 1e-10
        np.testing.assert_array_equal(u, haar_unitary(m, RngStream(23, m)))


def test_haar_unitary_entry_variance():
    # E|U_ij|^2 = 1/m for Haar measure
    m, reps = 4, 4000
    acc = np.zeros((m, m))
    for i in range(reps):
        acc += np.abs(haar_unitary(m, RngStream(31, i))) ** 2
    np.testing.assert_allclose(acc / reps, np.full((m, m), 1 / m), atol=0.02)


def test_dense_draws_are_guarded():
    # one entry over the cap; the guard refuses before numpy allocates anything
    with pytest.raises(GuardError, match="dense guard: a 8192 x 8193 matrix"):
        ginibre(1 << 13, (1 << 13) + 1, RngStream(0))
    with pytest.raises(GuardError, match="dense guard"):
        haar_unitary(100_000, RngStream(0))
    with pytest.raises(GuardError, match="dense guard"):
        realize(build_nlhs(14, 1), RngStream(0))
    with pytest.raises(GuardError, match="dense guard"):
        smsv_covariance(5000, range(5000), 0.4)


def test_ginibre_moments():
    x = ginibre(200, 200, RngStream(13, 0))
    assert x.dtype == np.complex128
    assert abs(x.mean()) < 5e-3
    assert abs((np.abs(x) ** 2).mean() - 1.0) < 5e-3


@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 7), (7, 1), (3, 5), (12, 144), (20, 400)])
def test_ginibre_keeps_the_bytes_of_two_draws(rows, cols):
    """One draw of both parts, filled in place, gives the bytes of two draws
    joined as ``(a + 1j b) / sqrt(2)``, and leaves the generator where they did."""
    for seed in range(20):
        gen = np.random.default_rng(seed)
        want = (gen.standard_normal((rows, cols)) + 1j * gen.standard_normal((rows, cols))) / np.sqrt(2.0)
        other = np.random.default_rng(seed)
        got = ginibre(rows, cols, other)
        assert got.shape == (rows, cols) and got.tobytes() == want.tobytes()
        assert other.random() == gen.random()
