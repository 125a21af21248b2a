import numpy as np
import pytest

from shallowbs.arch import build_nlhs, realize
from shallowbs.gaussian import smsv_covariance
from shallowbs.matfn import GuardError
from shallowbs.linalg import (
    RngStream,
    as_generator,
    ginibre,
    haar_unitary,
    _haar_u2_batch,
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
