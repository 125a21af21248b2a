"""Seeded random-matrix ensembles and small dense-linear-algebra helpers.

Everything that draws randomness in this package goes through :class:`RngStream`,
a light handle around numpy's seeded generators.  Two streams with the same
``(seed, stream)`` pair always reproduce the same draw sequence, and derived
child streams are disjoint from their siblings, so each Monte-Carlo trial
draws from its own stream keyed by the trial index and a rerun with the same
seed reproduces every trial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .matfn import _GUARD_BYTES, GuardError

__all__ = [
    "RngStream",
    "as_generator",
    "haar_unitary",
    "ginibre",
]

_MAX_CHILD = 1 << 32

# Entries of the largest dense matrix drawn or built: 1 GiB of complex128.
_DENSE_ENTRIES = _GUARD_BYTES // np.dtype(complex).itemsize


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream keyed by a 64-bit seed and a stream id.

    The generator is built from ``SeedSequence([seed, stream])``, so identical
    pairs give identical sequences and distinct pairs are statistically
    independent.  ``derive`` packs child indices into fresh stream ids; the
    packing supports two levels of derivation (master -> per-trial -> inner),
    which covers every driver in this package.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh numpy generator positioned at the start of this stream."""
        return np.random.default_rng(np.random.SeedSequence([self.seed, self.stream]))

    def derive(self, index: int) -> "RngStream":
        """Child stream number ``index``, distinct from this stream and its other children."""
        if not 0 <= index < _MAX_CHILD:
            raise ValueError(f"child index must lie in [0, 2^32), got {index}")
        return RngStream(self.seed, (self.stream << 32) + index + 1)


def as_generator(rng: Union[RngStream, np.random.Generator]) -> np.random.Generator:
    """Accept either an RngStream or a ready generator and return a generator."""
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng).__name__}")


def _check_dense(rows: int, cols: int) -> None:
    """Refuse a dense matrix of more than ``_DENSE_ENTRIES`` entries before allocating it."""
    if rows * cols > _DENSE_ENTRIES:
        raise GuardError(f"dense guard: a {rows} x {cols} matrix exceeds {_DENSE_ENTRIES} entries")


def _haar_u2_batch(uniforms: np.ndarray) -> np.ndarray:
    """Haar 2x2 unitaries built from uniforms on [0, 1): shape (..., 4, k) to (..., k, 2, 2).

    Uses the exact parametrization of the unitary-group measure: row 0 holds
    the mixing variables cos^2(theta), rows 1-3 the phases phi, alpha and beta
    as fractions of a turn.  ``gen.random((4, k))`` therefore draws k gates.
    """
    xi = uniforms[..., 0, :]
    phi, alpha, beta = np.moveaxis(uniforms[..., 1:, :] * (2.0 * np.pi), -2, 0)
    c = np.sqrt(xi)
    s = np.sqrt(1.0 - xi)
    g = np.empty(xi.shape + (2, 2), dtype=complex)
    g[..., 0, 0] = c * np.exp(1j * (phi + alpha))
    g[..., 0, 1] = s * np.exp(1j * (phi + beta))
    g[..., 1, 0] = -s * np.exp(1j * (phi - beta))
    g[..., 1, 1] = c * np.exp(1j * (phi - alpha))
    return g


def haar_unitary(m: int, rng: Union[RngStream, np.random.Generator]) -> np.ndarray:
    """Haar-random m x m unitary via complex Ginibre QR with phase correction.

    The QR decomposition alone is not Haar distributed; multiplying each column
    of Q by the phase of the matching diagonal entry of R fixes the measure.
    """
    z = ginibre(m, m, as_generator(rng))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return q


def ginibre(rows: int, cols: int, rng: Union[RngStream, np.random.Generator]) -> np.ndarray:
    """Complex Ginibre matrix: i.i.d. entries with E[|X|^2] = 1."""
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be positive, got {rows} x {cols}")
    _check_dense(rows, cols)
    gen = as_generator(rng)
    # one draw of the real parts, then the imaginary parts, filled in place;
    # the complex division by sqrt(2) keeps the bytes of (a + 1j b) / sqrt(2)
    z = np.empty((rows, cols), dtype=complex)
    z.real, z.imag = gen.standard_normal((2, rows, cols))
    z /= np.sqrt(2.0)
    return z
