"""Permanents and hafnians of small dense matrices.

Both functions are exponential-cost by nature, so each carries a hard size
guard and a slow but obviously-correct oracle for cross-checking.  The fast
permanent sums Glynn's formula over sign vectors, 2^10 of them per numpy
operation; the fast hafnian expands perfect matchings recursively with
memoization on the bitmask of unmatched vertices.
"""

from __future__ import annotations

from itertools import permutations, product
from math import inf, prod

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

# Entry j is the sign product of the sign vector numbered j: bit i of j set
# means row i + 1 takes the sign -1.
_BLOCK_BITS = 10
_PARITY = (
    1.0 - 2.0 * (np.arange(1 << _BLOCK_BITS)[:, None] >> np.arange(_BLOCK_BITS) & 1)
).prod(axis=1)


class GuardError(ValueError):
    """An input exceeds a hard resource guard (matrix size or enumeration count)."""


# Bytes of the largest array a guarded routine may allocate: dense draws and
# the permitted-set build are refused before they pass it.
_GUARD_BYTES = 1 << 30


def _require_square(a: np.ndarray, name: str, max_dim: float = inf, even: bool = False) -> int:
    """The dimension of a square (and, if ``even``, even-dimensional) matrix within ``max_dim``."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} requires a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if even and n % 2 != 0:
        raise ValueError(f"{name} requires even dimension, got {n}")
    if n > max_dim:
        raise GuardError(f"{name} guard: dimension {n} exceeds {max_dim}")
    return n


def permanent(a: np.ndarray) -> complex:
    """Permanent by Glynn's formula, summed over blocks of sign vectors.

    perm(A) = 2^(1-n) * sum over delta in {+1, -1}^n with delta_0 = +1 of
    (prod_k delta_k) * prod_j (delta^T A)_j  (Glynn 2010).  The row sums for
    every sign vector over rows 1..min(n-1, 10) are built as one block, each
    row doubling the block; a loop runs over the sign patterns of any higher
    rows.  Cost is O(2^n * n) arithmetic.
    """
    a = np.asarray(a)
    n = _require_square(a, "permanent", PERMANENT_MAX_DIM)
    if n == 0:
        return complex(1.0)
    a = a.astype(complex, copy=False)
    k = min(n - 1, _BLOCK_BITS)
    # numpy adds, not a matmul against a table of sign vectors: from n = 11 on
    # that matmul runs on threaded BLAS, which stalled for milliseconds per
    # call on a shared 2-core host (gone with OPENBLAS_NUM_THREADS=1)
    block = np.empty((1 << k, n), dtype=complex)
    block[0] = a[0]
    for i in range(k):
        h = 1 << i
        np.subtract(block[:h], a[i + 1], out=block[h : 2 * h])
        block[:h] += a[i + 1]
    parity = _PARITY[: 1 << k]
    high = a[k + 1 :]
    total = 0j
    for signs in product((1.0, -1.0), repeat=len(high)):
        row_sums = block + np.dot(signs, high)
        total += prod(signs) * (parity @ row_sums.prod(axis=1))
    return complex(total * 2.0 ** (1 - n))


def permanent_oracle(a: np.ndarray) -> complex:
    """Permanent by direct summation over all n! permutations (n <= 8)."""
    a = np.asarray(a)
    n = _require_square(a, "permanent oracle", PERMANENT_ORACLE_MAX_DIM)
    rows = a.astype(complex, copy=False).tolist()
    terms = (prod(rows[i][j] for i, j in enumerate(perm)) for perm in permutations(range(n)))
    return complex(sum(terms))


def hafnian(a: np.ndarray) -> complex:
    """Hafnian of an even-dimensional symmetric matrix; diagonal entries are ignored.

    Recursively matches the lowest unpaired vertex with every partner and
    memoizes on the bitmask of vertices still unmatched, which collapses the
    naive (2n-1)!! matching tree to at most O(2^(2n)) distinct states.
    """
    a = np.asarray(a)
    n2 = _require_square(a, "hafnian", HAFNIAN_MAX_DIM, even=True)
    if n2 == 0:
        return complex(1.0)
    a = a.astype(complex, copy=False)
    asym = float(np.max(np.abs(a - a.T)))
    if asym > _HAFNIAN_SYMMETRY_TOL:
        raise ValueError(
            f"hafnian requires a symmetric matrix; max |a - a^T| = {asym:.3e}"
        )
    rows = a.tolist()

    memo: dict[int, complex] = {}

    def match(mask: int) -> complex:
        if mask == 0:
            return 1.0 + 0.0j
        cached = memo.get(mask)
        if cached is not None:
            return cached
        low = mask & -mask
        i = low.bit_length() - 1
        rest = mask ^ low
        row_i = rows[i]
        acc = 0.0 + 0.0j
        mm = rest
        while mm:
            bit = mm & -mm
            mm ^= bit
            w = row_i[bit.bit_length() - 1]
            if w != 0:
                acc += w * match(rest ^ bit)
        memo[mask] = acc
        return acc

    return match((1 << n2) - 1)


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
