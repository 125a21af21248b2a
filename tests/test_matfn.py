import math
from operator import index

import numpy as np
import pytest

from shallowbs.matfn import (
    GuardError,
    HAFNIAN_MAX_DIM,
    HAFNIAN_ORACLE_MAX_DIM,
    PERMANENT_MAX_DIM,
    PERMANENT_ORACLE_MAX_DIM,
    hafnian,
    hafnian_oracle,
    permanent,
    permanent_oracle,
)


def select_submatrix(u, rows, cols):
    """Submatrix with the given row and column indices; repeats duplicate lines."""
    u = np.asarray(u)
    if u.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {u.shape}")
    rows = np.asarray(list(map(index, rows)), dtype=int)
    cols = np.asarray(list(map(index, cols)), dtype=int)
    if rows.size and (rows.min() < 0 or rows.max() >= u.shape[0]):
        raise IndexError(f"row selection out of range for shape {u.shape}")
    if cols.size and (cols.min() < 0 or cols.max() >= u.shape[1]):
        raise IndexError(f"column selection out of range for shape {u.shape}")
    return u[np.ix_(rows, cols)]


def random_complex(gen, n):
    return gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n))


def test_permanent_known_values():
    assert permanent(np.array([[1.0, 2.0], [3.0, 4.0]])) == 10.0
    assert permanent(np.zeros((0, 0))) == 1.0
    assert permanent(np.array([[5.0]])) == 5.0
    for n in (2, 3, 4, 9, 12, 16):
        np.testing.assert_allclose(permanent(np.eye(n)), 1.0, rtol=1e-13)
        np.testing.assert_allclose(
            permanent(np.ones((n, n))), float(math.factorial(n)), rtol=1e-13
        )


def test_permanent_matches_oracle():
    gen = np.random.default_rng(101)
    for n in range(2, 7):
        for _ in range(20):
            a = random_complex(gen, n)
            fast = permanent(a)
            slow = permanent_oracle(a) if n <= PERMANENT_ORACLE_MAX_DIM else None
            np.testing.assert_allclose(fast, slow, rtol=1e-10)


def test_permanent_block_diagonal_factorizes():
    """Above the oracle's range: Per of shuffled diag(B, C) is Per(B) Per(C)."""
    gen = np.random.default_rng(66)
    for half in (6, 8):
        b = random_complex(gen, half)
        c = random_complex(gen, half)
        joint = np.zeros((2 * half, 2 * half), dtype=complex)
        joint[:half, :half] = b
        joint[half:, half:] = c
        joint = joint[gen.permutation(2 * half)][:, gen.permutation(2 * half)]
        np.testing.assert_allclose(
            permanent(joint), permanent_oracle(b) * permanent_oracle(c), rtol=1e-10
        )


def test_permanent_row_scaling_and_swap():
    gen = np.random.default_rng(7)
    for n in (5, 12):
        a = random_complex(gen, n)
        base = permanent(a)
        scaled = a.copy()
        scaled[2] *= 3.5 - 1.0j
        np.testing.assert_allclose(permanent(scaled), (3.5 - 1.0j) * base, rtol=1e-11)
        swapped = a[[1, 0, *range(2, n)]]
        np.testing.assert_allclose(permanent(swapped), base, rtol=1e-11)


def test_hafnian_known_values():
    assert hafnian(np.zeros((0, 0))) == 1.0
    assert hafnian(np.array([[0.0, 1.0], [1.0, 0.0]])) == 1.0
    # all-ones: (2n-1)!! perfect matchings of weight one
    np.testing.assert_allclose(hafnian(np.ones((4, 4))), 3.0, rtol=1e-13)
    np.testing.assert_allclose(hafnian(np.ones((6, 6))), 15.0, rtol=1e-13)


def test_hafnian_matches_oracle():
    gen = np.random.default_rng(202)
    for n2 in (2, 4, 6, 8):
        for _ in range(20):
            a = random_complex(gen, n2)
            a = a + a.T
            np.testing.assert_allclose(hafnian(a), hafnian_oracle(a), rtol=1e-10)


def test_hafnian_ignores_diagonal():
    gen = np.random.default_rng(33)
    a = random_complex(gen, 6)
    a = a + a.T
    b = a.copy()
    np.fill_diagonal(b, gen.normal(size=6))
    np.testing.assert_allclose(hafnian(a), hafnian(b), rtol=1e-12)


def test_hafnian_block_diagonal_factorizes():
    gen = np.random.default_rng(44)
    b = random_complex(gen, 4)
    b = b + b.T
    c = random_complex(gen, 6)
    c = c + c.T
    joint = np.zeros((10, 10), dtype=complex)
    joint[:4, :4] = b
    joint[4:, 4:] = c
    np.testing.assert_allclose(hafnian(joint), hafnian(b) * hafnian(c), rtol=1e-10)


def test_hafnian_of_permanent_embedding():
    """Haf([[0, A], [A^T, 0]]) equals Per(A), tying the two routines together."""
    gen = np.random.default_rng(55)
    for n in (2, 3, 4, 5):
        a = random_complex(gen, n)
        block = np.zeros((2 * n, 2 * n), dtype=complex)
        block[:n, n:] = a
        block[n:, :n] = a.T
        np.testing.assert_allclose(hafnian(block), permanent(a), rtol=1e-10)


def test_shape_and_symmetry_errors():
    with pytest.raises(ValueError):
        permanent(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        hafnian(np.zeros((3, 3)))
    bad = np.array([[0.0, 1.0], [1.0 + 1e-6, 0.0]])
    with pytest.raises(ValueError):
        hafnian(bad)


def test_resource_guards():
    with pytest.raises(GuardError):
        permanent(np.zeros((PERMANENT_MAX_DIM + 1,) * 2))
    with pytest.raises(GuardError):
        permanent_oracle(np.zeros((PERMANENT_ORACLE_MAX_DIM + 1,) * 2))
    with pytest.raises(GuardError):
        hafnian(np.zeros((HAFNIAN_MAX_DIM + 2,) * 2))
    with pytest.raises(GuardError):
        hafnian_oracle(np.zeros((HAFNIAN_ORACLE_MAX_DIM + 2,) * 2))


def test_select_submatrix_repeats_indices():
    u = np.arange(12).reshape(3, 4)
    sub = select_submatrix(u, [0, 0, 2], [1, 3])
    np.testing.assert_array_equal(sub, [[1, 3], [1, 3], [9, 11]])
    assert select_submatrix(u, [], [1]).shape == (0, 1)


def test_select_submatrix_bounds():
    u = np.zeros((3, 4))
    with pytest.raises(IndexError):
        select_submatrix(u, [3], [0])
    with pytest.raises(IndexError):
        select_submatrix(u, [0], [-5])
    with pytest.raises(TypeError):
        select_submatrix(u, [0.5, 1.9], [2.7])
