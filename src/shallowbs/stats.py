"""Distribution diagnostics for circuit ensembles.

The workhorses are the equal-count density estimator used to compare output
probability distributions, the k-th frame potential that measures closeness of
an ensemble to the full unitary group, and the reference sample generators
(probability samples of random circuits, and the Gaussian-matrix surrogates
they should reproduce when the circuit hides its submatrix structure).  A Haar
FBS sample reads only an n x n block, which by permutation invariance has the
law of the top of the first n columns, so it draws an M x n thin QR and no
patterns rather than an M x M unitary (Mezzadri 2007).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Optional, Sequence, Union

import numpy as np

from . import matfn
from .arch import (
    CircuitArchitecture,
    _chunk_trials,
    _closed_form,
    _ensemble_modes,
    _trial_chunks,
    _unitaries,
)
from .fock import _check_outcome_space, _fbs_probabilities, _input_pattern, _pattern_rows
from .gaussian import _check_even, _hafnian_weights
from .linalg import _SQRT_HALF, RngStream, _count, _haar_columns, as_generator, ginibre

__all__ = [
    "DensityBucket",
    "DensityCurve",
    "FramePotentialEstimate",
    "density_function",
    "frame_potential",
    "bootstrap_std",
    "random_collision_free_pattern",
    "hiding_samples",
    "fbs_probability_samples",
    "gbs_probability_samples",
]

# Bootstrap resamples behind the frame potential's reported standard deviation.
_FRAME_POTENTIAL_RESAMPLES = 1000


@dataclass(frozen=True)
class DensityBucket:
    """One equal-count bucket: representative point, height, occupancy, width.

    ``density`` is None for a degenerate (zero-width) bucket, which happens
    when every sample in the bucket is identical.
    """

    x: float
    density: Optional[float]
    count: int
    width: float


@dataclass(frozen=True)
class DensityCurve:
    buckets: tuple[DensityBucket, ...]
    total_samples: int

    def to_rows(self) -> list[dict]:
        return [asdict(b) for b in self.buckets]


def _check_buckets(n_buckets: int, samples: int) -> None:
    if not 1 <= n_buckets <= samples:
        raise ValueError(
            f"bucket count must lie in [1, {samples}] for {samples} samples, got {n_buckets}"
        )


def _finite(samples: Sequence[float]) -> np.ndarray:
    """The samples as a float array; ValueError naming the first that is not finite."""
    values = np.asarray(samples, dtype=float)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"samples must be finite; sample {bad[0]} is {values.flat[bad[0]]}")
    return values


def density_function(samples: Sequence[float], n_buckets: int) -> DensityCurve:
    """Empirical density from sorted samples split into equal-count buckets.

    Bucket sizes differ by at most one (the remainder goes to the earliest
    buckets); each bucket reports its midpoint and count/(total*width).
    Every sample must be finite.
    """
    values = np.sort(_finite(samples))
    total = _count(values.size, "sample count", 1, "one sample")
    n_buckets = _count(n_buckets, "bucket count")
    _check_buckets(n_buckets, total)
    buckets = []
    for chunk in np.array_split(values, n_buckets):
        size = chunk.size
        lo, hi = float(chunk[0]), float(chunk[-1])
        width = hi - lo
        density = (size / total) / width if width > 0 else None
        buckets.append(DensityBucket(x=(lo + hi) / 2.0, density=density, count=size, width=width))
    return DensityCurve(buckets=tuple(buckets), total_samples=total)


def bootstrap_std(
    samples: Sequence[float], resamples: int, rng: RngStream
) -> float:
    """Bootstrap standard deviation of the sample mean; every sample must be finite.

    Resample r takes the mean of ``gen.integers(0, n, size=n)`` picks.  The
    picks are drawn as blocks of rows holding at most ``_REALIZE_CHUNK_BYTES``
    of indices, which gives the same picks and means as one draw per resample.
    """
    if not isinstance(rng, RngStream):
        raise TypeError(f"the bootstrap needs an RngStream, got {type(rng).__name__}")
    values = _finite(samples)
    _count(values.size, "sample count", 2, "two samples")
    resamples = _count(resamples, "resample count", 100, "100 resamples")
    gen = rng.generator()
    n = values.size
    rows = _chunk_trials(8 * n)
    means = np.empty(resamples)
    for start in range(0, resamples, rows):
        picks = gen.integers(0, n, size=(min(rows, resamples - start), n))
        means[start : start + len(picks)] = values[picks].mean(axis=1)
    return float(means.std())


@dataclass(frozen=True)
class FramePotentialEstimate:
    """Monte-Carlo frame potential, raw and divided by the full-group value k!."""

    k_moment: int
    raw_mean: float
    normalized: float
    bootstrap_std: float
    n_sam: int

    def to_dict(self) -> dict:
        return asdict(self)


def _check_moment(m: int, k_moment: int, n_sam: int) -> int:
    """A moment order k whose k! and s M^(4k) are finite floats, s = max(n_sam, resamples).

    Each trial is at most M^(2k), so the sum of the trials, and the sum over the
    bootstrap's resamples of their squared deviations, stay below s M^(4k).
    """
    k = _count(k_moment, "moment order")
    s = max(n_sam, _FRAME_POTENTIAL_RESAMPLES)
    _closed_form(f"frame potential at k={k}, M={m}, {n_sam} samples: k! or {s}*M^(4k)",
                 lambda: (math.gamma(k + 1.0), s * float(m) ** (4 * k)))
    return k


def frame_potential(
    ensemble: Union[CircuitArchitecture, int],
    k_moment: int,
    n_sam: int,
    rng: RngStream,
) -> FramePotentialEstimate:
    """Estimate the k-th frame potential E |Tr(U^dag V)|^(2k) over ensemble pairs.

    The ensemble is a circuit, drawn with ``realize``, or an integer M for Haar
    on U(M).  Haar over the full group gives k!, so ``normalized`` tends to 1
    from above as the ensemble approaches a unitary k-design.
    ``bootstrap_std`` is reported on the normalized scale.
    """
    m = _ensemble_modes(ensemble)
    n_sam = _count(n_sam, "sample count", 2, "two samples")
    k_moment = _check_moment(m, k_moment, n_sam)
    # trial i pairs the unitaries of streams 2i and 2i + 1, which a chunk may split
    chunks = _trial_chunks(rng, 2 * n_sam, 16 * m * m)
    draws = (u for _, gens in chunks for u in _unitaries(ensemble, gens))
    values = np.array(
        [float(abs(np.vdot(u, v)) ** (2 * k_moment)) for u, v in zip(draws, draws)]
    )
    raw = float(values.mean())
    k_fact = math.factorial(k_moment)
    boot = bootstrap_std(values, _FRAME_POTENTIAL_RESAMPLES, rng.derive(2 * n_sam)) / k_fact
    return FramePotentialEstimate(
        k_moment=k_moment,
        raw_mean=raw,
        normalized=raw / k_fact,
        bootstrap_std=boot,
        n_sam=n_sam,
    )


def _check_placeable(m: int, photons: int) -> None:
    if photons > m:
        raise ValueError(f"cannot place {photons} collision-free photons in {m} modes")


def random_collision_free_pattern(
    m: int, photons: int, rng: RngStream | np.random.Generator
) -> tuple[int, ...]:
    """Uniformly random sorted pattern of distinct modes."""
    m, photons = _check_outcome_space(m, photons)
    _check_placeable(m, photons)
    return tuple(_pattern_rows(m, photons, [as_generator(rng)])[0].tolist())


def fbs_probability_samples(
    ensemble: Union[CircuitArchitecture, int],
    photons: int,
    n_sam: int,
    rng: RngStream,
) -> np.ndarray:
    """|perm|^2 samples of random circuits at random collision-free in/out patterns.

    The ensemble is a circuit, drawn with ``realize``, or an integer M for Haar
    on U(M); the patterns range over all of its M modes.  For a circuit, each
    chunk of trials draws its circuits as one stack, then each trial's input
    and output pattern, and takes all its probabilities with one stacked rule
    call.  Haar on U(M) is invariant under permuting rows and columns, so
    U[s, t] has the law of U[:n, :n], the top of U's first n columns: each Haar
    trial draws one M x n Ginibre matrix and no patterns, and its value is
    |perm(Q[:n, :n])|^2 of the phase-fixed thin Q (``_haar_columns``).
    """
    m = _ensemble_modes(ensemble)
    photons = _count(photons, "photon number")
    _check_placeable(m, photons)
    n_sam = _count(n_sam, "sample count")
    values = np.empty(n_sam)
    if not isinstance(ensemble, CircuitArchitecture):
        for rows, gens in _trial_chunks(rng, n_sam, 16 * m * photons):
            q = _haar_columns(m, photons, gens)
            values[rows] = abs(matfn.permanent(q[:, :photons])) ** 2
        return values
    for rows, gens in _trial_chunks(rng, n_sam, 16 * m * m):
        u = _unitaries(ensemble, gens)
        # each trial's generator still draws its input pattern before its output
        t = _pattern_rows(m, photons, gens)
        s = _pattern_rows(m, photons, gens)
        values[rows] = _fbs_probabilities(u, t, s)
    return values


def gbs_probability_samples(
    ensemble: Union[CircuitArchitecture, int],
    photons: int,
    n_sam: int,
    rng: RngStream,
) -> np.ndarray:
    """|Haf((U U^T)_s)|^2 samples with squeezed sources on every mode.

    The ensemble is a circuit, drawn with ``realize``, or an integer M for Haar
    on U(M).  ``photons`` counts output photons over its M modes and must be
    even.  Each chunk of trials draws its circuits as one stack, then each
    trial's output pattern, and takes all its weights with one stacked rule
    call.
    """
    m = _ensemble_modes(ensemble)
    photons = _count(photons, "photon number")
    _check_even(photons)
    _check_placeable(m, photons)
    n_sam = _count(n_sam, "sample count")
    t = _input_pattern(range(m), m)
    values = np.empty(n_sam)
    for rows, gens in _trial_chunks(rng, n_sam, 16 * m * m):
        u = _unitaries(ensemble, gens)
        values[rows] = _hafnian_weights(u, t, _pattern_rows(m, photons, gens))
    return values


def _hiding_scale(m: int, photons: int) -> float:
    """The normalization m^n of a hiding draw; ValueError when it overflows a float."""
    return _closed_form(f"hiding scale m^n at m={m}, n={photons}", lambda: float(m) ** photons)


def _bartlett_products(m: int, n: int, gens: list[np.random.Generator]) -> np.ndarray:
    """The (B, n, n) stack of Y Y^T, one per generator, each with the law of X X^T
    for an n x m complex Ginibre matrix X.

    X X^T depends on X = (A + iB) / sqrt(2) only through W = G G^T, where G is
    the real 2n x m Gaussian [A; B].  W has the law of L L^T for the 2n x w
    lower-trapezoidal Bartlett factor L, w = min(2n, m): L_ii = sqrt(chi^2_{m-i})
    and N(0, 1) entries below the diagonal (Bartlett 1933).  So
    Y = (L[:n] + i L[n:]) / sqrt(2) takes n(2n + 1) variates when m >= 2n, not
    2nm.  Each generator draws its w chi-squares, then the entries below the
    diagonal in row-major order.
    """
    w = min(2 * n, m)
    below = np.tril_indices(2 * n, -1, w)
    dof = float(m) - np.arange(w)  # m may pass int64; each m - i is exact below 2^53
    chi = np.empty((len(gens), w))
    normals = np.empty((len(gens), below[0].size))
    for b, gen in enumerate(gens):
        chi[b] = gen.chisquare(dof)
        gen.standard_normal(out=normals[b])
    factor = np.zeros((len(gens), 2 * n, w))
    factor[:, range(w), range(w)] = np.sqrt(chi)
    factor[:, below[0], below[1]] = normals
    # the bytes of (L[:n] + 1j * L[n:]) / sqrt(2), as in ``ginibre``
    factor *= _SQRT_HALF
    y = np.empty((len(gens), n, w), dtype=complex)
    y.real, y.imag = factor[:, :n], factor[:, n:]
    return y @ y.transpose(0, 2, 1)


def hiding_samples(
    kind: str,
    m: int,
    photons: int,
    n_sam: int,
    rng: RngStream,
) -> np.ndarray:
    """Gaussian-matrix surrogates for the probability samples of a hiding ensemble.

    For ``kind="fbs"`` each draw is |perm(X)|^2 / m^n with X an n x n complex
    Ginibre matrix.  For ``kind="gbs"`` it is |Haf(X X^T)|^2 / m^n with X an
    n x m Ginibre matrix and ``photons`` even; the product X X^T is drawn in
    law as Y Y^T from its Bartlett factor (``_bartlett_products``), never
    through X.  Draw i comes from stream i.  Both kinds stack n x n matrices,
    in chunks of at most ``_REALIZE_CHUNK_BYTES``, and each chunk takes its
    values with one ``permanent`` or ``hafnian`` call of the stack.
    """
    if kind not in ("fbs", "gbs"):
        raise ValueError(f"kind must be 'fbs' or 'gbs', got {kind!r}")
    m = _count(m, "mode count")
    photons = _count(photons, "photon number")
    if kind == "gbs":
        _check_even(photons)
    scale = _hiding_scale(m, photons)
    n_sam = _count(n_sam, "sample count")
    values = np.empty(n_sam)
    for rows, gens in _trial_chunks(rng, n_sam, 16 * photons * photons):
        if kind == "fbs":
            stack = np.array([ginibre(photons, photons, gen) for gen in gens])
            weights = abs(matfn.permanent(stack)) ** 2
        else:
            weights = abs(matfn.hafnian(_bartlett_products(m, photons, gens))) ** 2
        values[rows] = weights / scale
    return values
