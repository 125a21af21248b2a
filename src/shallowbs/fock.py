"""Fock-state boson sampling: exact outcome probabilities and permitted-outcome counting.

Patterns are plain sorted tuples of mode indices, one entry per photon, so a
collision outcome repeats a mode.  The probability of outcome ``s`` given
collision-free input ``t`` is ``|perm(U[s, t])|^2 / s!`` where ``s!`` is the
product of the factorials of the mode multiplicities.

A shallow circuit forbids most outcomes: a photon entering mode t_j can only
exit inside the forward lightcone of t_j.  By Hall's theorem an outcome is
therefore *permitted* exactly when it is a multiset {c_1, ..., c_n} with each
c_j in the lightcone of t_j, so the permitted set is the Minkowski sum of the
input lightcones and is built directly, one cone at a time, without
enumerating the forbidden outcomes.  Counting permitted outcomes against the
full outcome count gives the support ratio that collapses below the hard/easy
depth thresholds computed at the bottom of this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from itertools import accumulate, combinations_with_replacement
from operator import index, or_
from typing import Iterable, Iterator, Sequence

import numpy as np

from .arch import (
    CircuitArchitecture,
    _cone_masks,
    _far_mask,
    _mask_modes,
    effective_lightcone_radius,
)
from .matfn import GuardError, permanent

__all__ = [
    "Pattern",
    "PermittedCountReport",
    "DepthThresholds",
    "ENUMERATION_GUARD",
    "pattern_factorial",
    "fbs_probability",
    "enumerate_outcomes",
    "outcome_count",
    "is_permitted_fbs",
    "count_permitted_fbs",
    "count_permitted_fbs_effective",
    "fbs_permitted_ratio_bound",
    "fbs_depth_thresholds",
]

Pattern = tuple[int, ...]

ENUMERATION_GUARD = 10**8


def _as_pattern(modes: Iterable[int], m: int, name: str) -> Pattern:
    pat = tuple(map(index, modes))
    if pat and (min(pat) < 0 or max(pat) >= m):
        raise IndexError(f"{name} pattern {pat} out of range for {m} modes")
    if list(pat) != sorted(pat):
        raise ValueError(f"{name} pattern must be sorted, got {pat}")
    return pat


def _input_pattern(modes: Iterable[int], m: int) -> Pattern:
    """A sorted, in-range, collision-free input pattern."""
    t = _as_pattern(modes, m, "input")
    if len(set(t)) != len(t):
        raise ValueError(f"input pattern must be collision-free, got {t}")
    return t


def _photon_patterns(
    m: int, input_modes: Iterable[int], output_modes: Iterable[int]
) -> tuple[Pattern, Pattern]:
    """Input and output patterns of one Fock outcome, holding equal photon numbers."""
    t = _input_pattern(input_modes, m)
    s = _as_pattern(output_modes, m, "output")
    if len(s) != len(t):
        raise ValueError(
            f"photon number mismatch: {len(t)} photons in, pattern of {len(s)} out"
        )
    return t, s


def pattern_factorial(pat: Sequence[int]) -> int:
    """Product of factorials of the mode multiplicities of a sorted pattern."""
    total = 1
    run = 1
    for i in range(1, len(pat)):
        run = run + 1 if pat[i] == pat[i - 1] else 1
        total *= run
    return total


def fbs_probability(
    u: np.ndarray, input_modes: Iterable[int], output_modes: Iterable[int]
) -> float:
    """Probability of ``output_modes`` for single photons in ``input_modes``.

    ``u`` follows the ``u[out, in]`` convention, so the relevant submatrix
    takes rows from the output pattern and columns from the input pattern.
    """
    u = np.asarray(u)
    t, s = _photon_patterns(u.shape[0], input_modes, output_modes)
    sub = u[np.ix_(s, t)]
    return float(abs(permanent(sub)) ** 2 / pattern_factorial(s))


def outcome_count(m: int, photons: int) -> int:
    """Number of photon-number outcomes of ``photons`` photons over ``m`` modes."""
    if m < 1:
        raise ValueError(f"mode count must be positive, got {m}")
    if photons < 0:
        raise ValueError(f"photon number must be non-negative, got {photons}")
    return math.comb(m + photons - 1, photons)


def enumerate_outcomes(m: int, photons: int) -> Iterator[Pattern]:
    """Lazily yield all sorted outcomes of ``photons`` photons over ``m`` modes."""
    if m < 1:
        raise ValueError(f"mode count must be positive, got {m}")
    if photons < 0:
        raise ValueError(f"photon number must be non-negative, got {photons}")
    return combinations_with_replacement(range(m), photons)


def _minkowski_sum(choices: Iterable[Sequence[Pattern]]) -> set[Pattern]:
    """Every sorted pattern formed by taking one tuple from each choice list."""
    sums: set[Pattern] = {()}
    for choice in choices:
        sums = {tuple(sorted(p + c)) for p in sums for c in choice}
    return sums


def _check_build(steps: Iterable[tuple[int, int]], guard: int) -> None:
    """Refuse a Minkowski-sum build that could visit more than ``guard`` sums.

    Each step gives a choice-list length and a cap on the distinct sums after
    it; the visits bound both the time and the memory of the build.
    """
    work, held = 0, 1
    for size, cap in steps:
        work += held * size
        held = min(held * size, cap)
        if work > guard:
            raise GuardError(
                f"enumeration guard: building the permitted set visits over "
                f"{work} partial outcomes, above the {guard} limit"
            )


def is_permitted_fbs(
    arch: CircuitArchitecture,
    input_modes: Iterable[int],
    output_modes: Iterable[int],
    depth: int,
) -> bool:
    """Whether the outcome can carry probability at the given circuit depth."""
    t, s = _photon_patterns(arch.mode_count, input_modes, output_modes)
    forward = _cone_masks(arch, depth, forward=True)
    cones = [forward[mode] for mode in t]
    owner: list[int] = [-1] * len(cones)  # output photon held by each input cone

    def augment(j: int, seen: set[int]) -> bool:
        for i, cone in enumerate(cones):
            if i not in seen and cone >> s[j] & 1:
                seen.add(i)
                if owner[i] < 0 or augment(owner[i], seen):
                    owner[i] = j
                    return True
        return False

    return all(augment(j, set()) for j in range(len(s)))


@dataclass(frozen=True)
class PermittedCountReport:
    """Exact permitted-outcome count next to its analytic bound.

    ``exact_ratio`` is permitted / total.  ``bound_ratio`` divides the product
    bound by the total and clips at 1, since a ratio above 1 says nothing.
    """

    exact_count: int
    upper_bound: float
    total_outcomes: int
    exact_ratio: float
    bound_ratio: float

    def to_dict(self) -> dict:
        return asdict(self)


def _count_sums(
    m: int, photons: int, choices: Iterable[Sequence[Pattern]], upper_bound: float
) -> PermittedCountReport:
    """Size of the Minkowski sum of ``choices`` next to the outcome total."""
    total = outcome_count(m, photons)
    exact = len(_minkowski_sum(choices))
    return PermittedCountReport(
        exact_count=exact,
        upper_bound=upper_bound,
        total_outcomes=total,
        exact_ratio=exact / total,
        bound_ratio=min(1.0, upper_bound / total),
    )


def _input_cones(
    arch: CircuitArchitecture, input_modes: Iterable[int], depth: int
) -> tuple[Pattern, list[int]]:
    """A nonempty input pattern and the forward lightcone bitmask of each of its photons."""
    t = _input_pattern(input_modes, arch.mode_count)
    if not t:
        raise ValueError("input pattern must contain at least one photon")
    forward = _cone_masks(arch, depth, forward=True)
    return t, [forward[mode] for mode in t]


def _count_cones(
    m: int, cones: Sequence[int], upper_bound: float, guard: int
) -> PermittedCountReport:
    # after k cones the sums are k-photon outcomes over the modes reached
    reached = accumulate(cones, or_)
    _check_build(
        (
            (c.bit_count(), math.comb(r.bit_count() + k - 1, k))
            for k, (c, r) in enumerate(zip(cones, reached), 1)
        ),
        guard,
    )
    choices = ([(x,) for x in _mask_modes(c)] for c in cones)
    return _count_sums(m, len(cones), choices, upper_bound)


def count_permitted_fbs(
    arch: CircuitArchitecture,
    input_modes: Iterable[int],
    depth: int,
    guard: int = ENUMERATION_GUARD,
) -> PermittedCountReport:
    """Count permitted outcomes exactly and report the lightcone product bound.

    The permitted set is built as the Minkowski sum of the input lightcones,
    one cone at a time; the guard bounds the partial sums that build visits.
    """
    _, cones = _input_cones(arch, input_modes, depth)
    bound = float(math.prod(c.bit_count() for c in cones))
    return _count_cones(arch.mode_count, cones, bound, guard)


def _check_lattice(arch: CircuitArchitecture) -> None:
    if arch.side_lengths is None:
        raise ValueError("effective clipping requires the local-parallel ensemble")


def count_permitted_fbs_effective(
    arch: CircuitArchitecture,
    input_modes: Iterable[int],
    depth: int,
    lam: float,
    beta: float,
    guard: int = ENUMERATION_GUARD,
) -> PermittedCountReport:
    """Permitted-outcome count with lightcones clipped to the effective radius.

    Each forward cone is intersected with the box of radius
    ``effective_lightcone_radius`` around its input mode, dimension by
    dimension, and the permitted set is the Minkowski sum of the clipped
    cones, guarded as in ``count_permitted_fbs``.  ``upper_bound`` is the
    closed-form effective-cone size raised to the photon number; unlike the
    plain count, near-boundary configurations can exceed it because the
    clipped box is wider than the size the formula assumes, so only
    ``exact_count`` is authoritative here.
    """
    _check_lattice(arch)
    t, cones = _input_cones(arch, input_modes, depth)
    d = len(arch.side_lengths)
    photons = len(t)
    radius = effective_lightcone_radius(photons, depth, lam, beta, d)
    far = _far_mask(arch.side_lengths, radius, t)
    cones = [cone & sum(1 << int(i) for i in np.flatnonzero(~row)) for cone, row in zip(cones, far)]
    per_cone = (2.0 * photons**lam * depth / (beta * d)) ** (d / 2.0)
    return _count_cones(arch.mode_count, cones, per_cone**photons, guard)


def _check_scaling_curve(
    m: int, n: int, noun: str, gamma: float, c: float, c_name: str, d: int
) -> None:
    """Reject ratio-bound arguments off the lattice scaling curve ``m = c * n**gamma``."""
    if n < 1:
        raise ValueError(f"{noun} number must be positive, got {n}")
    if d < 1:
        raise ValueError(f"lattice dimension must be positive, got {d}")
    if c <= 0:
        raise ValueError(f"mode-scaling constant must be positive, got {c}")
    expected = c * n**gamma
    if abs(m - expected) > 0.5 + 1e-9 * expected:
        raise ValueError(
            f"mode count {m} is not {c_name}*n^gamma = {expected:.3f} within rounding"
        )


def fbs_permitted_ratio_bound(
    m: int, photons: int, gamma: float, c0: float, d: int, depth: int
) -> float:
    """Closed-form bound on the permitted-outcome fraction of a lattice circuit.

    Valid in the scaling regime ``m = c0 * photons**gamma``; the call rejects
    mode counts that are off that curve by more than rounding.
    """
    _check_scaling_curve(m, photons, "photon", gamma, c0, "c0", d)
    n = photons
    return 3.0 * math.sqrt(n) * (
        (2.0**d * depth**d * n ** (1.0 - gamma)) / (math.e * d**d * c0)
    ) ** n


@dataclass(frozen=True)
class DepthThresholds:
    """Depth scales separating the sampling regimes for one scheme.

    Below ``forbidden_depth`` (prefactor ``forbidden_constant``) almost every
    outcome is forbidden for *any* gate ensemble, by counting alone.  Below
    ``concentration_depth`` (prefactor ``concentration_constant``) the locally
    random ensemble concentrates and output probabilities admit cheap additive
    estimation at error scale ``additive_error`` (polynomial factor taken as 1).
    """

    scheme: str
    forbidden_constant: float
    forbidden_depth: float
    concentration_constant: float
    concentration_depth: float
    additive_error: float
    photons: int
    modes: float
    gamma: float
    scaling_constant: float
    dimension: int
    lam: float
    beta: float

    def to_dict(self) -> dict:
        return asdict(self)


def _check_threshold_params(gamma: float, c: float, d: int, lam: float, beta: float) -> None:
    if gamma < 1:
        raise ValueError(f"mode-scaling exponent must be >= 1, got {gamma}")
    if c <= 0:
        raise ValueError(f"mode-scaling constant must be positive, got {c}")
    if d < 1:
        raise ValueError(f"lattice dimension must be positive, got {d}")
    if lam <= 0:
        raise ValueError(f"lightcone exponent must be positive, got {lam}")
    if not 0 < beta < 1:
        raise ValueError(f"leakage exponent must lie in (0, 1), got {beta}")


def _depth_thresholds(
    scheme: str, n: int, photons: int, gamma: float, c: float, d: int,
    lam: float, beta: float, kappa_div: float, alpha_div: float,
) -> DepthThresholds:
    """Regime-boundary depths at ``m = c * n**gamma`` from the scheme's divisors.

    ``n`` counts photons for Fock-state and pairs for Gaussian sampling.
    """
    m = c * n**gamma
    kappa = math.e ** (1.0 / d) * c ** (1.0 / d) * d / kappa_div
    alpha = math.e ** (2.0 / d) * c ** (2.0 / d) * beta * d / alpha_div
    eps = math.exp(math.lgamma(photons + 1) - photons * math.log(m))
    return DepthThresholds(
        scheme=scheme,
        forbidden_constant=kappa,
        forbidden_depth=kappa * n ** ((gamma - 1.0) / d),
        concentration_constant=alpha,
        concentration_depth=alpha * n ** (2.0 * (gamma - 1.0) / d - lam),
        additive_error=eps,
        photons=photons,
        modes=m,
        gamma=gamma,
        scaling_constant=c,
        dimension=d,
        lam=lam,
        beta=beta,
    )


def fbs_depth_thresholds(
    photons: int, gamma: float, c0: float, d: int, lam: float, beta: float
) -> DepthThresholds:
    """Regime-boundary depths for Fock-state sampling at ``m = c0 * photons**gamma``."""
    if photons < 1:
        raise ValueError(f"photon number must be positive, got {photons}")
    _check_threshold_params(gamma, c0, d, lam, beta)
    return _depth_thresholds("fbs", photons, photons, gamma, c0, d, lam, beta, 2.0, 2.0)
