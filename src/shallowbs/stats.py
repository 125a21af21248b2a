"""Distribution diagnostics for circuit ensembles.

The workhorses are the equal-count density estimator used to compare output
probability distributions, the k-th frame potential that measures closeness of
an ensemble to the full unitary group, and the reference sample generators
(probability samples of random circuits, and the Gaussian-matrix surrogates
they should reproduce when the circuit hides its submatrix structure).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Optional, Sequence, Union

import numpy as np

from .arch import CircuitArchitecture, _check_positive, _closed_form, _unitary_sampler
from .fock import _check_outcome_space, _input_pattern, fbs_probability
from .gaussian import _check_even, _check_samples, _hafnian_weight
from .linalg import RngStream, as_generator, ginibre

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


def density_function(samples: Sequence[float], n_buckets: int) -> DensityCurve:
    """Empirical density from sorted samples split into equal-count buckets.

    Bucket sizes differ by at most one (the remainder goes to the earliest
    buckets); each bucket reports its midpoint and count/(total*width).
    """
    values = np.sort(np.asarray(samples, dtype=float))
    total = values.size
    if total == 0:
        raise ValueError("need at least one sample")
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
    """Bootstrap standard deviation of the sample mean."""
    values = np.asarray(samples, dtype=float)
    _check_samples(values.size)
    if resamples < 100:
        raise ValueError(f"need at least 100 resamples, got {resamples}")
    gen = rng.generator()
    n = values.size
    means = np.empty(resamples)
    for r in range(resamples):
        means[r] = values[gen.integers(0, n, size=n)].mean()
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
    _, draw = _unitary_sampler(ensemble)
    _check_positive(k_moment, "moment order")
    _check_samples(n_sam)

    def one(i: int) -> float:
        u = draw(rng.derive(2 * i).generator())
        v = draw(rng.derive(2 * i + 1).generator())
        return float(abs(np.vdot(u, v)) ** (2 * k_moment))

    values = np.array([one(i) for i in range(n_sam)])
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
    _check_outcome_space(m, photons)
    _check_placeable(m, photons)
    picks = as_generator(rng).choice(m, size=photons, replace=False)
    return tuple(int(x) for x in np.sort(picks))


def fbs_probability_samples(
    ensemble: Union[CircuitArchitecture, int],
    photons: int,
    n_sam: int,
    rng: RngStream,
) -> np.ndarray:
    """|perm|^2 samples of random circuits at random collision-free in/out patterns.

    The ensemble is a circuit, drawn with ``realize``, or an integer M for Haar
    on U(M); the patterns range over all of its M modes.
    """
    m, draw = _unitary_sampler(ensemble)
    _check_positive(photons, "photon number")
    _check_placeable(m, photons)

    def one(i: int) -> float:
        gen = rng.derive(i).generator()
        u = draw(gen)
        t = random_collision_free_pattern(m, photons, gen)
        s = random_collision_free_pattern(m, photons, gen)
        return fbs_probability(u, t, s)

    return np.array([one(i) for i in range(n_sam)])


def gbs_probability_samples(
    ensemble: Union[CircuitArchitecture, int],
    photons: int,
    n_sam: int,
    rng: RngStream,
) -> np.ndarray:
    """|Haf((U U^T)_s)|^2 samples with squeezed sources on every mode.

    The ensemble is a circuit, drawn with ``realize``, or an integer M for Haar
    on U(M).  ``photons`` counts output photons over its M modes and must be
    even.
    """
    m, draw = _unitary_sampler(ensemble)
    _check_positive(photons, "photon number")
    _check_even(photons)
    _check_placeable(m, photons)
    t = _input_pattern(range(m), m)

    def one(i: int) -> float:
        gen = rng.derive(i).generator()
        u = draw(gen)
        s = random_collision_free_pattern(m, photons, gen)
        return _hafnian_weight(u, t, s)

    return np.array([one(i) for i in range(n_sam)])


def _hiding_scale(m: int, photons: int) -> float:
    """The normalization m^n of a hiding draw; ValueError when it overflows a float."""
    return _closed_form(f"hiding scale m^n at m={m}, n={photons}", lambda: float(m) ** photons)


def hiding_samples(
    kind: str,
    m: int,
    photons: int,
    n_sam: int,
    rng: RngStream,
) -> np.ndarray:
    """Gaussian-matrix surrogates for the probability samples of a hiding ensemble.

    For ``kind="fbs"`` each draw is |perm(X)|^2 / m^n with X an n x n complex
    Ginibre matrix; for ``kind="gbs"`` it is |Haf(X X^T)|^2 / m^n with X an
    n x m Ginibre matrix and ``photons`` even.
    """
    if kind not in ("fbs", "gbs"):
        raise ValueError(f"kind must be 'fbs' or 'gbs', got {kind!r}")
    _check_outcome_space(m, photons)
    _check_positive(photons, "photon number")
    if kind == "gbs":
        _check_even(photons)
    scale = _hiding_scale(m, photons)
    p = tuple(range(photons))

    def one(i: int) -> float:
        gen = rng.derive(i).generator()
        if kind == "fbs":
            return fbs_probability(ginibre(photons, photons, gen), p, p) / scale
        return _hafnian_weight(ginibre(photons, m, gen), range(m), p) / scale

    return np.array([one(i) for i in range(n_sam)])
