import math
import tracemalloc
from operator import index

import numpy as np
import pytest

from shallowbs import matfn
from shallowbs.gaussian import renyi2_entropy, symplectic_from_unitary
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


def hafnian_memo(a):
    """Hafnian by matching the lowest unmatched vertex with every partner, memoized
    on the bitmask of unmatched vertices; exact on 0/1 matrices up to 2n = 24."""
    rows = np.asarray(a).tolist()
    memo = {0: 1}

    def match(mask):
        if mask not in memo:
            low = mask & -mask
            i, rest = low.bit_length() - 1, mask ^ low
            total, others = 0, rest
            while others:
                bit = others & -others
                others ^= bit
                w = rows[i][bit.bit_length() - 1]
                if w != 0:
                    total += w * match(rest ^ bit)
            memo[mask] = total
        return memo[mask]

    return match((1 << len(rows)) - 1)


def kan_full_block(a, k):
    """Kan's sum with every cross row held at the full 2^k entries of the block,
    and q^n in a separate vector: the reference for ``matfn._kan``'s bytes."""
    n2 = a.shape[-1]
    n = n2 // 2
    sums = a.sum(axis=2)
    block = np.empty((len(a), n2, 1 << k), dtype=complex)
    np.multiply(sums, 2.0, out=block[:, :, 0])
    block[:, 0, 0] = sums.sum(axis=1) / 2.0
    a *= 4.0
    for i in range(1, k + 1):
        h = 1 << (i - 1)
        np.subtract(block[:, 0, :h], block[:, i, :h], out=block[:, 0, h : 2 * h])
        if i + 1 < n2:
            np.subtract(
                block[:, i + 1 :, :h], a[:, i, i + 1 :, None], out=block[:, i + 1 :, h : 2 * h]
            )
    q, cross, high = block[:, 0], block[:, k + 1 :], a[:, k + 1 :, k + 1 :]
    shift = np.zeros(cross.shape[:2], dtype=complex)
    signs = [1.0] * cross.shape[1]
    p = np.empty_like(q)
    parity = matfn._PARITY[: 1 << k]
    terms = np.empty((len(a), 1 << cross.shape[1]), dtype=complex)
    for step in range(terms.shape[1]):
        if step:
            j = (step & -step).bit_length() - 1
            if signs[j] > 0:
                q -= cross[:, j]
                q -= shift[:, j, None]
                shift -= high[:, j]
            else:
                q += cross[:, j]
                q += shift[:, j, None]
                shift += high[:, j]
            signs[j] = -signs[j]
        term = np.multiply(parity, matfn._power(q, n, p), out=p).sum(axis=1)
        terms[:, step] = -term if step & 1 else term
    return terms.sum(axis=1) * 2.0 / (math.factorial(n) * 4.0**n)


def random_complex(gen, n):
    return gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n))


def random_stack(gen, count, n):
    return gen.normal(size=(count, n, n)) + 1j * gen.normal(size=(count, n, n))


def random_symmetric(gen, n):
    a = random_complex(gen, n)
    return a + a.T


def disjoint(*blocks):
    """Adjacency matrix of the disjoint union of the given graphs."""
    a = np.zeros((sum(map(len, blocks)),) * 2)
    start = 0
    for block in blocks:
        a[start : start + len(block), start : start + len(block)] = block
        start += len(block)
    return a


def cliques(*sizes):
    """Disjoint cliques, loops included on the ignored diagonal."""
    return disjoint(*(np.ones((size, size)) for size in sizes))


def cycle(n, closed=True):
    """The cycle on n vertices, or the path when not ``closed``."""
    a = np.zeros((n, n))
    for i in range(n - 1 + closed):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1.0
    return a


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
    for n2 in (2, 4, 6, 8, 10, 12):
        for _ in range(20 if n2 <= 8 else 4):
            a = random_complex(gen, n2)
            a = a + a.T
            np.testing.assert_allclose(hafnian(a), hafnian_oracle(a), rtol=1e-10)


def test_hafnian_ignores_diagonal():
    gen = np.random.default_rng(33)
    for n2 in (6, 20):
        a = random_complex(gen, n2)
        a = a + a.T
        b = a.copy()
        np.fill_diagonal(b, gen.normal(size=n2))
        np.testing.assert_allclose(hafnian(a), hafnian(b), rtol=1e-12)
        # Fortran-ordered inputs and transposed views drop the diagonal too
        for other in (np.asfortranarray(b), b.T, np.asfortranarray(b.real)):
            want = hafnian(a) if other.dtype == complex else hafnian(np.ascontiguousarray(a.real))
            np.testing.assert_allclose(hafnian(other), want, rtol=1e-12)


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


def test_hafnian_block_diagonal_factorizes_above_oracle():
    """A 10 + 14 split under one symmetric shuffle: Haf is Haf(B) Haf(C)."""
    gen = np.random.default_rng(45)
    b, c = random_symmetric(gen, 10), random_symmetric(gen, 14)
    joint = np.zeros((24, 24), dtype=complex)
    joint[:10, :10] = b
    joint[10:, 10:] = c
    order = gen.permutation(24)
    joint = joint[np.ix_(order, order)]
    np.testing.assert_allclose(hafnian(joint), hafnian_oracle(b) * hafnian_memo(c), rtol=1e-10)


def test_hafnian_all_ones_double_factorial():
    for n2 in range(2, HAFNIAN_MAX_DIM + 1, 2):
        np.testing.assert_allclose(
            hafnian(np.ones((n2, n2))), float(math.prod(range(n2 - 1, 0, -2))), rtol=1e-12
        )


def test_hafnian_zero_one_sweep():
    """0/1 matrices up to 24 photons against the exact matching count.

    Membership rounds the float hafnian at 0.5, so its worst error over the
    sweep must stay well inside that: below 0.25.
    """
    gen = np.random.default_rng(91)
    cases = [cliques(*sizes) for sizes in (
        (1, 23), (3, 21), (11, 13), (5, 7, 12), (24,), (23, 1), (2, 22), (12, 12),
        (1, 1), (3, 5), (7, 9), (1, 3, 5, 7), (9, 11), (20,), (16,),
    )]
    cases += [cycle(n2, closed) for n2 in (2, 4, 10, 16, 22, 24) for closed in (False, True)]
    # odd cycles and paths side by side have no perfect matching
    cases += [disjoint(cycle(11), cycle(13)), disjoint(cycle(1), cycle(23, False)),
              disjoint(cycle(5), cycle(7, False), cycle(12))]
    for n2 in (8, 14, 20, 24):
        for density in (0.15, 0.5):
            upper = np.triu(gen.random((n2, n2)) < density, 1).astype(float)
            cases.append(upper + upper.T)
    worst = 0.0
    for a in cases:
        exact = hafnian_memo(a)
        value = hafnian(a)
        worst = max(worst, abs(value - exact))
        assert (abs(value) > 0.5) == (exact != 0)
    assert worst < 0.25, worst


def test_hafnian_block_fits_its_budget():
    """Every size's block fits the parity table and the byte budget, and
    tracemalloc sees the kernel, numpy's buffers included, stay under its
    budget plus small arrays."""
    for n2 in range(2, HAFNIAN_MAX_DIM + 1, 2):
        k = matfn._hafnian_bits(n2)
        assert 1 <= k < n2 and k <= matfn._PARITY_BITS
        assert matfn._hafnian_entries(n2, k) * 16 <= matfn._HAFNIAN_BLOCK_BYTES
    gen = np.random.default_rng(12)
    for n2 in (20, 24):
        a = random_symmetric(gen, n2)
        tracemalloc.start()
        try:
            hafnian(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= matfn._HAFNIAN_BYTES + 64 * 2**10, (n2, peak)


def test_hafnian_above_oracle_matches_memo():
    gen = np.random.default_rng(57)
    for n2 in (14, 16):
        a = random_symmetric(gen, n2)
        np.testing.assert_allclose(hafnian(a), hafnian_memo(a), rtol=1e-10)


def test_hafnian_of_permanent_embedding():
    """Haf([[0, A], [A^T, 0]]) equals Per(A), tying the two routines together
    up to 2n = 24, where Per comes from the independent Glynn kernel."""
    gen = np.random.default_rng(55)
    for n in range(2, 13):
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


def assert_slices_match(kernel, stack):
    """Slice b of a kernel's call on a stack equals its call on ``stack[b]``, in bytes."""
    got = kernel(stack)
    single = np.array([kernel(a) for a in stack])
    assert got.shape == single.shape and got.dtype == single.dtype
    assert got.tobytes() == single.tobytes()


@pytest.mark.parametrize("n", range(1, 14))
def test_stacked_permanents_match_single_calls(n):
    """From n = 12 on, the kernel loops over the signs of rows above its block."""
    gen = np.random.default_rng(300 + n)
    assert_slices_match(permanent, random_stack(gen, 5, n))


def test_stacked_permanents_split_by_budget():
    gen = np.random.default_rng(314)
    stack = random_stack(gen, 40, 8)
    assert matfn._sub_stack((2 * 8 + 1) << 7) == 18  # three sub-stacks
    assert_slices_match(permanent, stack)


@pytest.mark.parametrize("n2", range(2, 21, 2))
def test_stacked_hafnians_match_single_calls(n2):
    gen = np.random.default_rng(400 + n2)
    stack = random_stack(gen, 3, n2)
    assert_slices_match(hafnian, stack + stack.swapaxes(1, 2))


def test_stacked_hafnians_split_by_budget():
    """Thirty 10 x 10 hafnians take three sub-stacks, and two at 2n = 20 take two."""
    gen = np.random.default_rng(420)
    for count, n2, per in ((30, 10, 14), (2, 20, 1)):
        k = matfn._hafnian_bits(n2)
        assert matfn._sub_stack(matfn._hafnian_entries(n2, k)) == per
        stack = random_stack(gen, count, n2)
        assert_slices_match(hafnian, stack + stack.swapaxes(1, 2))


def test_gaussian_kernels_of_a_stack_match_single_calls():
    """The symplectic action and the Renyi-2 entropy take a stack the same way."""
    gen = np.random.default_rng(430)
    assert_slices_match(symplectic_from_unitary, random_stack(gen, 4, 5))
    a = gen.normal(size=(4, 6, 6))
    assert_slices_match(renyi2_entropy, a @ a.swapaxes(1, 2) + np.eye(6))


@pytest.mark.parametrize("n2", range(2, 21, 2))
def test_kan_matches_the_full_block_sum(n2):
    """At every k with at most 2^11 Gray-code steps, single matrices and stacks
    of three give the bytes of the sum that holds every row in full."""
    gen = np.random.default_rng(450 + n2)
    for count in (1, 3):
        a = random_stack(gen, count, n2)
        a = a + a.swapaxes(1, 2)
        a.reshape(count, -1)[:, :: n2 + 1] = 0.0
        for k in range(max(1, n2 - 12), min(n2 - 1, matfn._PARITY_BITS) + 1):
            got = matfn._kan(a.copy(), k)
            assert got.tobytes() == kan_full_block(a.copy(), k).tobytes(), (count, k)


def test_hafnian_bits_keep_small_sizes_and_grow_at_twenty():
    """Up to 2n = 12 one block takes every sign vector, as it did with full rows;
    at 2n = 20 the block grows to 2^11 sign vectors, from 2^10 with full rows."""
    for n2 in range(2, 13, 2):
        assert matfn._hafnian_bits(n2) == n2 - 1
    assert matfn._hafnian_bits(20) >= 11
    assert matfn._sub_stack(matfn._hafnian_entries(12, 11)) == 3


def test_empty_stacks():
    for kernel, n in ((permanent, 3), (hafnian, 4), (hafnian, 0)):
        got = kernel(np.zeros((0, n, n)))
        assert got.shape == (0,) and got.dtype == complex
    np.testing.assert_array_equal(permanent(np.zeros((2, 0, 0))), [1.0, 1.0])


@pytest.fixture
def sums(monkeypatch):
    """Names of the sign-vector sums run while the test runs."""
    calls = []
    for name in ("_glynn", "_kan"):
        fn = getattr(matfn, name)
        monkeypatch.setattr(matfn, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    return calls


def test_stacked_kernels_refuse_a_whole_stack_before_summing(sums):
    gen = np.random.default_rng(77)
    # two symmetric sub-stacks of fourteen, then one slice off by 1e-6
    stack = random_stack(gen, 29, 10)
    stack = stack + stack.swapaxes(1, 2)
    stack[-1, 0, 1] += 1e-6
    with pytest.raises(ValueError, match=r"hafnian requires a symmetric matrix; max \|a - a\^T\| = 1\.000e-06"):
        hafnian(stack)
    with pytest.raises(GuardError, match="hafnian guard: dimension 26 exceeds 24"):
        hafnian(np.zeros((2, HAFNIAN_MAX_DIM + 2, HAFNIAN_MAX_DIM + 2)))
    with pytest.raises(GuardError, match="permanent guard: dimension 31 exceeds 30"):
        permanent(np.zeros((2, PERMANENT_MAX_DIM + 1, PERMANENT_MAX_DIM + 1)))
    with pytest.raises(ValueError, match="hafnian requires even dimension, got 3"):
        hafnian(np.zeros((2, 3, 3)))
    for kernel in (permanent, hafnian):
        with pytest.raises(ValueError, match=r"requires a stack of square matrices, got shape \(2, 4, 2\)"):
            kernel(np.zeros((2, 4, 2)))
    assert sums == []
    hafnian(stack[:-1])
    assert sums == ["_kan"] * 2
    # a matrix is the B = 1 case: one sum, and slice 0 of the stack's values
    for kernel in (permanent, hafnian):
        got = kernel(stack[0])
        assert type(got) is complex
        assert np.array(got).tobytes() == kernel(stack[:1]).tobytes()
    assert sums == ["_kan"] * 2 + ["_glynn", "_glynn", "_kan", "_kan"]


def test_stacked_kernels_hold_one_sub_stack_at_a_time():
    """200 matrices at n = 8 and at 2n = 10 would take 2 and 16 MiB of blocks in one piece."""
    gen = np.random.default_rng(13)
    sym = random_stack(gen, 200, 10)
    for kernel, stack in ((permanent, random_stack(gen, 200, 8)),
                          (hafnian, sym + sym.swapaxes(1, 2))):
        tracemalloc.start()
        try:
            kernel(stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= matfn._HAFNIAN_BYTES + 2 * stack.nbytes + 64 * 2**10, (kernel, peak)
