"""Seeded random-matrix ensembles and small dense-linear-algebra helpers.

Everything that draws randomness in this package goes through :class:`RngStream`,
a light handle around numpy's seeded generators.  Two streams with the same
``(seed, stream)`` pair always reproduce the same draw sequence, and derived
child streams are disjoint from their siblings, so each Monte-Carlo trial
draws from its own stream keyed by the trial index and a rerun with the same
seed reproduces every trial.

The Monte-Carlo drivers run their trials through ``arch._trial_chunks``, which
seeds them with ``_trial_generators``: the generators of ``rng.derive(i)`` for
a run of indices.  It hashes the SeedSequence pools of up to ``_SEED_BLOCK``
streams at once, which ties it to numpy's documented SeedSequence algorithm;
``tests/test_linalg.py`` checks that its generators have the bit-generator
state of ``RngStream.generator``, which stays the reference.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import index
from typing import Any, Callable, Iterator, Optional, Sequence, Union

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


def _count(value: Any, what: str, minimum: Optional[int] = 1, need: Optional[str] = None) -> int:
    """``value`` as an integer of at least ``minimum`` (any for None), the one rule for every
    count used as a size, index or loop bound, at each entry before any draw.  A smaller count
    reads "need at least <need>", or else "<what> must be positive" (non-negative for 0)."""
    try:
        value = index(value)
    except TypeError:
        raise TypeError(f"{what} must be an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        if need is not None:
            raise ValueError(f"need at least {need}, got {value}")
        raise ValueError(f"{what} must be {'positive' if minimum else 'non-negative'}, got {value}")
    return value


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream keyed by a 64-bit seed and a stream id.

    The generator is built from ``SeedSequence([seed, stream])``, so identical
    pairs give identical sequences and distinct pairs are statistically
    independent.  ``derive`` packs child indices into fresh stream ids; the
    packing supports two levels of derivation (master -> per-trial -> inner),
    which covers every driver in this package.  The drivers seed each trial
    ``rng.derive(i)`` through ``_trial_generators``, which gives the generator
    of this method bit for bit.  A negative or non-integer key is refused.
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream"):
            object.__setattr__(self, name, _count(getattr(self, name), name, 0))

    def generator(self) -> np.random.Generator:
        """Fresh numpy generator positioned at the start of this stream."""
        return np.random.default_rng(np.random.SeedSequence([self.seed, self.stream]))

    def derive(self, index: int) -> "RngStream":
        """Child stream number ``index``, distinct from this stream and its other children."""
        index = _count(index, "child index", None)
        if not 0 <= index < _MAX_CHILD:
            raise ValueError(f"child index must lie in [0, 2^32), got {index}")
        return RngStream(self.seed, (self.stream << 32) + index + 1)


# SeedSequence's hash (numpy.random.bit_generator), for its 4-word pool.
_MASK32 = 0xFFFFFFFF
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The XOR and multiplier words of ``steps`` successive hashmix steps from ``init``."""
    h = [init]
    for _ in range(steps):
        h.append(h[-1] * mult & _MASK32)
    return np.array(h[:-1], dtype=np.uint32), np.array(h[1:], dtype=np.uint32)


# the pool takes 4 entropy steps and 4 x 3 mixing steps, the state 8 output steps
_POOL_HASH = _hash_constants(_INIT_A, _MULT_A, _POOL_WORDS * _POOL_WORDS)
_STATE_HASH = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_WORDS)

# Streams whose seeds are hashed together.  The hash costs about 65 us
# whatever the block, so a block of 615 streams made a generator in 1.6-1.8 us
# against 11 us through its own SeedSequence (README, "Performance").
_SEED_BLOCK = 1024


def _hashmix(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    values = (values ^ xor) * mult
    return values ^ (values >> np.uint32(16))


def _pcg64_seeds(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for each row e of a (B, 4) uint32 array.

    Each row holds the entropy words, padded with zeros, which the pool hash
    takes in the place of missing words.
    """
    xor, mult = _POOL_HASH
    pool = _hashmix(entropy, xor[:_POOL_WORDS], mult[:_POOL_WORDS])
    step = _POOL_WORDS
    for src in range(_POOL_WORDS):
        dst = [d for d in range(_POOL_WORDS) if d != src]
        hashed = _hashmix(pool[:, src, None], xor[step : step + 3], mult[step : step + 3])
        mixed = pool[:, dst] * _MIX_MULT_L - hashed * _MIX_MULT_R
        pool[:, dst] = mixed ^ (mixed >> np.uint32(16))
        step += 3
    words = _hashmix(np.tile(pool, 2), *_STATE_HASH).astype(np.uint64)
    return words[:, 0::2] | words[:, 1::2] << np.uint64(32)


def _uint32_words(value: int) -> list[int]:
    """SeedSequence's little-endian 32-bit words of a non-negative integer; [0] for 0."""
    words = [value & _MASK32]
    while (value := value >> 32) > 0:
        words.append(value & _MASK32)
    return words


@functools.cache
def _preseeded() -> Callable[[np.ndarray], np.random.Generator]:
    """A map from four PCG64 seed words to a generator, built on first use.

    It imports ``numpy.random`` only here, so that importing this package
    does not.
    """
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class PresetState(ISeedSequence):
        """A seed sequence whose state words were generated in advance."""

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.words

    return lambda words: Generator(PCG64(PresetState(words)))


def _trial_generators(rng: RngStream, count: int) -> Iterator[np.random.Generator]:
    """Lazily, the generators ``rng.derive(i).generator()`` for ``i`` in ``range(count)``.

    Each is equal in state to its reference, but its ``seed_seq`` cannot spawn.
    Streams whose entropy, the words of the seed then of the stream id, fits
    SeedSequence's 4-word pool have their seeds hashed ``_SEED_BLOCK`` at a
    time.  Any other stream, and the block holding the child index 2^32 - 1,
    whose stream id carries into the parent's word, take ``RngStream.generator``.
    """
    prefix = _uint32_words(rng.seed)
    upper = _uint32_words(rng.stream) if rng.stream else []
    words = len(prefix) + 1 + len(upper)
    for start in range(0, count, _SEED_BLOCK):
        stop = min(start + _SEED_BLOCK, count)
        if words > _POOL_WORDS or stop >= _MAX_CHILD:
            yield from (rng.derive(i).generator() for i in range(start, stop))
            continue
        entropy = np.zeros((stop - start, _POOL_WORDS), dtype=np.uint32)
        entropy[:, : len(prefix)] = prefix
        entropy[:, len(prefix)] = np.arange(start + 1, stop + 1)
        entropy[:, len(prefix) + 1 : words] = upper
        yield from map(_preseeded(), _pcg64_seeds(entropy))


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


def haar_unitary(
    m: int,
    rng: Union[RngStream, np.random.Generator, Sequence[Union[RngStream, np.random.Generator]]],
) -> np.ndarray:
    """Haar-random m x m unitary: the Q of a complex Ginibre QR, phase-fixed.

    The QR decomposition alone is not Haar distributed; multiplying each column
    of Q by the phase of the matching diagonal entry of R fixes the measure
    (Mezzadri 2007).  Each unitary takes one ``ginibre(m, m, ...)`` draw.

    One stream or generator gives one (m, m) unitary.  A sequence of B of them
    gives a (B, m, m) stack from one ``np.linalg.qr`` of the B Ginibre draws,
    each from its own generator; slice b equals ``haar_unitary(m, rng[b])`` bit
    for bit and leaves generator b where that call would.
    """
    m = _count(m, "mode count")
    single = not isinstance(rng, Sequence)
    gens = [as_generator(r) for r in ((rng,) if single else rng)]
    _check_dense(len(gens) * m, m)  # the stack as one (B*m) x m array
    q, r = np.linalg.qr(np.array([ginibre(m, m, gen) for gen in gens]))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (d / np.abs(d))[:, None, :]
    return q[0] if single else q


# numpy divides a complex number by the real sqrt(2) as Smith's rule does, by
# multiplying each part by 1 / sqrt(2); x / sqrt(2) would round differently
_SQRT_HALF = 1.0 / np.sqrt(2.0)


def ginibre(rows: int, cols: int, rng: Union[RngStream, np.random.Generator]) -> np.ndarray:
    """Complex Ginibre matrix: i.i.d. entries with E[|X|^2] = 1.

    It draws ``standard_normal((2, rows, cols))``, the real parts then the
    imaginary parts, and gives the bytes of ``(a + 1j*b) / sqrt(2)``.
    """
    rows, cols = _count(rows, "row count"), _count(cols, "column count")
    _check_dense(rows, cols)
    parts = as_generator(rng).standard_normal((2, rows, cols))
    parts *= _SQRT_HALF
    z = np.empty((rows, cols), dtype=complex)
    z.real, z.imag = parts
    return z
