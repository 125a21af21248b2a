"""Permanents and hafnians of small dense matrices.

Both functions are exponential-cost by nature, so each carries a hard size
guard and a slow but obviously-correct oracle for cross-checking.  Both fast
kernels are Ryser-style sums over sign vectors, built in blocks by numpy
doubling steps with a Python loop over the remaining signs.  The permanent
sums Glynn's formula, 2^10 sign vectors per block.  The hafnian sums Kan's
identity

    haf(A) = 2 / (n! 4^n) * sum over h in {+1, -1}^(2n) with h_0 = +1 of
             (prod_i h_i) * (sum over i < j of A_ij h_i h_j)^n,

with blocks of up to 2^12 sign vectors chosen by bytes, and a Gray-code
loop that moves the quadratic form by one vector add per step.  A hafnian
block keeps only the rows it still needs: the cross rows of its own
coordinates at half width, spent one per doubling step and then reused for
q^n, and full rows only for the coordinates above it.

Each kernel takes one matrix or a (B, n, n) stack and runs every numpy step
across the whole stack, so B small matrices cost about as many numpy calls
as one.  Every reduction runs along one matrix's own axis, so slice b of a
stacked call equals the call on ``a[b]`` alone bit for bit; a single matrix
is the B = 1 case.  A stack is split into sub-stacks whose blocks fit the
same byte budget as one matrix's.
"""

from __future__ import annotations

import math
from itertools import permutations, product
from math import inf, prod
from typing import Union

import numpy as np

__all__ = [
    "GuardError",
    "permanent",
    "permanent_oracle",
    "hafnian",
    "hafnian_oracle",
    "PERMANENT_MAX_DIM",
    "PERMANENT_ORACLE_MAX_DIM",
    "HAFNIAN_MAX_DIM",
    "HAFNIAN_ORACLE_MAX_DIM",
]

PERMANENT_MAX_DIM = 30
PERMANENT_ORACLE_MAX_DIM = 8
HAFNIAN_MAX_DIM = 24
HAFNIAN_ORACLE_MAX_DIM = 12

_HAFNIAN_SYMMETRY_TOL = 1e-10

# Bytes a kernel may hold for one sub-stack.  For the hafnian: q, the
# cross-term rows that ``_hafnian_entries`` counts (half width while they are
# built, full width for the coordinates above the block), one term per
# Gray-code step, and the three iterator buffers of np.getbufsize() complex
# entries that numpy allocates for a subtract over several rows of the block.
# For the permanent: its block of row sums, their shifted copy and their
# products, (2n + 1) 2^k entries a matrix.  Its k = min(n - 1, _BLOCK_BITS)
# is fixed, not chosen by bytes, so from n = 20 on one matrix's block passes
# the budget (671,744 B at n = 20, 999,424 B at n = 30) and each sub-stack
# holds a single matrix.
_HAFNIAN_BYTES = 1 << 20
_HAFNIAN_BLOCK_BYTES = _HAFNIAN_BYTES - 3 * np.getbufsize() * np.dtype(complex).itemsize

# Entry j is the sign product of the sign vector numbered j: bit i of j set
# means row i + 1 takes the sign -1.  It is complex, as the sums it weights
# are.  2^12 entries cover the permanent's blocks of 2^10 and every hafnian
# block the byte budget admits.
_BLOCK_BITS = 10
_PARITY_BITS = 12


def _parity_table(bits: int) -> np.ndarray:
    """Sign products of the 2^bits sign vectors, each doubling flipping one more sign."""
    parity = np.ones(1, dtype=complex)
    for _ in range(bits):
        parity = np.concatenate((parity, -parity))
    return parity


_PARITY = _parity_table(_PARITY_BITS)


class GuardError(ValueError):
    """An input exceeds a hard resource guard (matrix size or enumeration count)."""


# Bytes of the largest array a guarded routine may allocate: dense draws and
# the permitted-set build are refused before they pass it.
_GUARD_BYTES = 1 << 30


def _require_square(
    a: np.ndarray, name: str, max_dim: float = inf, even: bool = False, stack: bool = False
) -> int:
    """The dimension of a square matrix, or with ``stack`` set of a matrix or a
    (B, n, n) stack of them, that is even if ``even`` is set and at most ``max_dim``."""
    if a.ndim not in ((2, 3) if stack else (2,)) or a.shape[-2] != a.shape[-1]:
        what = "a stack of square matrices" if stack and a.ndim == 3 else "a square matrix"
        raise ValueError(f"{name} requires {what}, got shape {a.shape}")
    n = a.shape[-1]
    if even and n % 2 != 0:
        raise ValueError(f"{name} requires even dimension, got {n}")
    if n > max_dim:
        raise GuardError(f"{name} guard: dimension {n} exceeds {max_dim}")
    return n


def _sub_stack(entries: int) -> int:
    """Matrices per sub-stack when each holds ``entries`` complex entries: as
    many as fit ``_HAFNIAN_BLOCK_BYTES``, and at least one."""
    return max(1, _HAFNIAN_BLOCK_BYTES // (entries * np.dtype(complex).itemsize))


def permanent(a: np.ndarray) -> Union[complex, np.ndarray]:
    """Permanent of a matrix by Glynn's formula, summed over blocks of sign
    vectors; of a (B, n, n) stack, the B permanents as a complex array.

    perm(A) = 2^(1-n) * sum over delta in {+1, -1}^n with delta_0 = +1 of
    (prod_k delta_k) * prod_j (delta^T A)_j  (Glynn 2010).  The row sums for
    every sign vector over rows 1..min(n-1, 10) are built as one block, each
    row doubling the block; a loop runs over the sign patterns of any higher
    rows.  Cost is O(2^n * n) arithmetic.
    """
    a = np.asarray(a)
    n = _require_square(a, "permanent", PERMANENT_MAX_DIM, stack=True)
    stack = a if a.ndim == 3 else a[None]
    out = np.ones(len(stack), dtype=complex)
    if n:
        k = min(n - 1, _BLOCK_BITS)
        per = _sub_stack((2 * n + 1) << k)
        for start in range(0, len(stack), per):
            out[start : start + per] = _glynn(stack[start : start + per].astype(complex, copy=False), k)
    return out if a.ndim == 3 else complex(out[0])


def _glynn(a: np.ndarray, k: int) -> np.ndarray:
    """Glynn's sum for each matrix of a complex (B, n, n) stack, with 2^k sign vectors per block."""
    n = a.shape[-1]
    # numpy adds, not a matmul against a table of sign vectors: from n = 11 on
    # that matmul runs on threaded BLAS, which stalled for milliseconds per
    # call on a shared 2-core host (gone with OPENBLAS_NUM_THREADS=1)
    block = np.empty((len(a), 1 << k, n), dtype=complex)
    block[:, 0] = a[:, 0]
    for i in range(k):
        h = 1 << i
        np.subtract(block[:, :h], a[:, i + 1, None], out=block[:, h : 2 * h])
        block[:, :h] += a[:, i + 1, None]
    parity = _PARITY[: 1 << k]
    high = a[:, k + 1 :]
    row_sums = block
    total = np.zeros(len(a), dtype=complex)
    for signs in product((1.0, -1.0), repeat=high.shape[1]):
        if signs:
            # the signed high rows summed in order, row by row, for every matrix
            row_sums = block + (np.array(signs)[:, None] * high).sum(axis=1)[:, None]
        terms = row_sums.prod(axis=2)
        terms *= parity
        total += prod(signs) * terms.sum(axis=1)
    return total * 2.0 ** (1 - n)


def permanent_oracle(a: np.ndarray) -> complex:
    """Permanent by direct summation over all n! permutations (n <= 8)."""
    a = np.asarray(a)
    n = _require_square(a, "permanent oracle", PERMANENT_ORACLE_MAX_DIM)
    rows = a.astype(complex, copy=False).tolist()
    terms = (prod(rows[i][j] for i, j in enumerate(perm)) for perm in permutations(range(n)))
    return complex(sum(terms))


def _hafnian_entries(n2: int, k: int) -> int:
    """Complex entries one matrix holds in a hafnian block of 2^k sign vectors.

    q takes 2^k entries.  Each of the c = n2 - 1 - k coordinates above the
    block keeps a full row of 2^k, and one term is kept for each of the 2^c
    Gray-code steps.  Every other row the doubling steps build holds
    2^(k - 1) entries: the cross row of block coordinate i is spent after
    step i and never holds more, and each high row takes its first half
    there before the last step writes it in full.  Those rows later hold
    the 2^k entries of q^n, so there are two at least.
    """
    c = n2 - 1 - k
    return (1 << k) + (max(k + c, 2) << (k - 1)) + (c << k) + (1 << c)


def _hafnian_bits(n2: int) -> int:
    """Sign bits k < n2 of the largest hafnian block whose ``_hafnian_entries``
    fit the byte budget."""
    k = n2 - 1
    while _hafnian_entries(n2, k) * np.dtype(complex).itemsize > _HAFNIAN_BLOCK_BYTES:
        k -= 1
    return k


def _power(t: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """``t ** n`` by repeated squaring into ``out``, leaving ``t`` as it was.

    Multiplies, not ``**``: on 2,048 complex entries ``t ** n`` took 22-37 us
    against 8-9 us for these multiplies, at n = 6, 10 and 12 on a 2-core Xeon.
    """
    result = t
    for bit in bin(n)[3:]:
        np.multiply(result, result, out=out)
        result = out
        if bit == "1":
            out *= t
    return result


def hafnian(a: np.ndarray) -> Union[complex, np.ndarray]:
    """Hafnian of an even-dimensional symmetric matrix, diagonal entries ignored;
    of a (B, 2n, 2n) stack, the B hafnians as a complex array.

    haf(A) = 2 / (n! 4^n) * sum over h in {+1, -1}^(2n) with h_0 = +1 of
    (prod_i h_i) * q(h)^n, where q(h) = sum over i < j of A_ij h_i h_j
    (Kan 2008), taken with the diagonal zeroed.  Sign vector v of a block of
    2^k sets h_i = -1 where bit i - 1 of v is set.  Doubling steps build q for
    the whole block and each vector's cross terms to the coordinates above k;
    a Gray-code loop over the signs of those coordinates then moves q by one
    vector add per step.  q^n comes from repeated squaring into the spent
    rows of the block coordinates, and the terms are summed pairwise.
    ``_hafnian_bits`` picks the largest k that fits ``_HAFNIAN_BLOCK_BYTES``.
    Cost is O(2^(2n) log n) arithmetic.  Every matrix of a stack is checked
    for symmetry before any is summed, so one asymmetric matrix refuses the
    whole stack.
    """
    a = np.asarray(a)
    n2 = _require_square(a, "hafnian", HAFNIAN_MAX_DIM, even=True, stack=True)
    stack = a if a.ndim == 3 else a[None]
    out = np.ones(len(stack), dtype=complex)
    if n2 and len(stack):
        stack = stack.astype(complex, order="C")
        asym = float(abs(stack - stack.swapaxes(1, 2)).max())
        if asym > _HAFNIAN_SYMMETRY_TOL:
            raise ValueError(
                f"hafnian requires a symmetric matrix; max |a - a^T| = {asym:.3e}"
            )
        stack.reshape(len(stack), -1)[:, :: n2 + 1] = 0.0  # every diagonal, through a view of the copy
        k = _hafnian_bits(n2)
        per = _sub_stack(_hafnian_entries(n2, k))
        for start in range(0, len(stack), per):
            out[start : start + per] = _kan(stack[start : start + per], k)
    return out if a.ndim == 3 else complex(out[0])


def _kan(a: np.ndarray, k: int) -> np.ndarray:
    """Kan's sum for each matrix of a C-ordered complex (B, 2n, 2n) stack with
    zero diagonals, with 2^k sign vectors per block; ``a`` is overwritten."""
    n2 = a.shape[-1]
    n, c, half = n2 // 2, n2 - 1 - k, 1 << (k - 1)
    # q, and in row j - 1 of ``rows`` twice the cross term sum_i A_ij h_i of
    # coordinate j >= 1, starting from all signs +1.  Flipping coordinate i
    # in the upper half of the filled block lowers q by row i - 1 and the row
    # of every j > i by 4 A_ij; row i - 1 is then spent.  Rows of half width
    # hold the first k - 1 steps, so the last step writes the rows of the high
    # coordinates j > k in full, to ``cross``, and every half row is spent.
    sums = a.sum(axis=2)
    q = np.empty((len(a), 1 << k), dtype=complex)
    flat = np.empty(len(a) * max(k + c, 2) * half, dtype=complex)
    rows = flat.reshape(len(a), -1, half)
    q[:, 0] = sums.sum(axis=1) / 2.0
    np.multiply(sums[:, 1:], 2.0, out=rows[:, : k + c, 0])
    a *= 4.0
    for i in range(1, k):
        h = 1 << (i - 1)
        np.subtract(q[:, :h], rows[:, i - 1, :h], out=q[:, h : 2 * h])
        np.subtract(rows[:, i : k + c, :h], a[:, i, i + 1 :, None], out=rows[:, i : k + c, h : 2 * h])
    np.subtract(q[:, :half], rows[:, k - 1], out=q[:, half:])
    if c:  # read only by the Gray-code steps after the first; at c = 0 there are none
        cross = np.empty((len(a), c, 1 << k), dtype=complex)
        cross[:, :, :half] = rows[:, k : k + c]
        np.subtract(rows[:, k : k + c], a[:, k, k + 1 :, None], out=cross[:, :, half:])
        # Flipping high coordinate j from sign s moves q by -s (cross_j + shift_j),
        # where the scalar shift_j is the change of twice its cross term within
        # the high coordinates.
        high = a[:, k + 1 :, k + 1 :]
        shift = np.zeros((len(a), c), dtype=complex)
    signs = [1.0] * c
    # every half row is spent by now; the first 2^k B entries take q^n, as one block
    p = flat[: len(a) << k].reshape(len(a), 1 << k)
    parity = _PARITY[: 1 << k]
    terms = np.empty((len(a), 1 << c), dtype=complex)
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
        # Terms are summed pairwise, within the block and over the loop: a dot
        # product per block and a running total missed the 24-clique's 23!!
        # by 0.11 to 0.32.
        term = np.multiply(parity, _power(q, n, p), out=p).sum(axis=1)
        terms[:, step] = -term if step & 1 else term
    return terms.sum(axis=1) * 2.0 / (math.factorial(n) * 4.0**n)


def _pairings(items: tuple[int, ...]):
    """All ways to split ``items`` into unordered pairs."""
    if not items:
        yield ()
        return
    first = items[0]
    rest = items[1:]
    for k in range(len(rest)):
        pair = (first, rest[k])
        for tail in _pairings(rest[:k] + rest[k + 1 :]):
            yield (pair,) + tail


def hafnian_oracle(a: np.ndarray) -> complex:
    """Hafnian by explicit enumeration of all (2n-1)!! perfect matchings (2n <= 12)."""
    a = np.asarray(a)
    n2 = _require_square(a, "hafnian oracle", HAFNIAN_ORACLE_MAX_DIM, even=True)
    rows = a.astype(complex, copy=False).tolist()
    terms = (prod(rows[i][j] for i, j in pairs) for pairs in _pairings(tuple(range(n2))))
    return complex(sum(terms))
