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
enumerating the forbidden outcomes.  The build holds the sums as an integer
array with one sorted pattern per row, and numpy forms, sorts and
deduplicates the rows of each step.  Counting permitted outcomes against the
full outcome count gives the support ratio that collapses below the hard/easy
depth thresholds computed at the bottom of this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from itertools import accumulate, combinations_with_replacement
from operator import or_
from typing import Iterable, Iterator, Sequence

import numpy as np

from .arch import (
    CircuitArchitecture,
    _check_cone_params,
    _check_positive,
    _closed_form,
    _cone_masks,
    _far_mask,
    _mask_modes,
    effective_lightcone_radius,
)
from . import matfn
from .linalg import _count
from .matfn import _GUARD_BYTES, GuardError, _require_square

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
    pat = tuple(_count(k, "mode", None) for k in modes)
    if pat and (min(pat) < 0 or max(pat) >= m):
        raise IndexError(f"{name} pattern {pat} out of range for {m} modes")
    if list(pat) != sorted(pat):
        raise ValueError(f"{name} pattern must be sorted, got {pat}")
    return pat


def _input_pattern(modes: Iterable[int], m: int, holds: str = "") -> Pattern:
    """A sorted, in-range, collision-free input pattern, nonempty when it ``holds`` something."""
    t = _as_pattern(modes, m, "input")
    if len(set(t)) != len(t):
        raise ValueError(f"input pattern must be collision-free, got {t}")
    if holds and not t:
        raise ValueError(f"input pattern must hold at least one {holds}")
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


def _pattern_rows(m: int, photons: int, gens: Sequence[np.random.Generator]) -> np.ndarray:
    """One uniformly random sorted pattern of distinct modes from each generator,
    as a (B, photons) array whose rows strictly increase, so each pattern's
    factorial is 1; the caller has checked that they fit in ``m`` modes."""
    picks = [gen.choice(m, size=photons, replace=False) for gen in gens]
    return np.sort(np.reshape(picks, (len(gens), photons)), axis=1)


def fbs_probability(
    u: np.ndarray, input_modes: Iterable[int], output_modes: Iterable[int]
) -> float:
    """Probability of ``output_modes`` for single photons in ``input_modes``.

    ``u`` follows the ``u[out, in]`` convention, so the relevant submatrix
    takes rows from the output pattern and columns from the input pattern.
    This is the B = 1 case of ``_fbs_probabilities``, divided by ``s!``.
    """
    u = np.asarray(u)
    m = _require_square(u, "fbs_probability")
    t, s = _photon_patterns(m, input_modes, output_modes)
    rows = np.array([t, s], dtype=int).reshape(2, 1, len(t))
    return float(_fbs_probabilities(u[None], *rows)[0]) / pattern_factorial(s)


def _fbs_probabilities(u: np.ndarray, inputs: np.ndarray, outputs: np.ndarray) -> np.ndarray:
    """|perm(U[s, t])|^2 for each trial of a stack of circuits: ``fbs_probability``
    of a collision-free outcome, whose ``s!`` is 1.

    ``u`` is a (B, M, M) stack and ``inputs`` and ``outputs`` hold each trial's
    checked patterns as (B, n) rows.  One gather builds every U[s, t] and one
    ``permanent`` call takes the permanents of the stack.
    """
    trial = np.arange(len(u))[:, None, None]
    sub = u[trial, outputs[:, :, None], inputs[:, None, :]]
    return abs(matfn.permanent(sub)) ** 2


def _check_outcome_space(m: int, photons: int) -> tuple[int, int]:
    """A positive mode count and a non-negative photon number."""
    return _count(m, "mode count"), _count(photons, "photon number", 0)


def outcome_count(m: int, photons: int) -> int:
    """Number of photon-number outcomes of ``photons`` photons over ``m`` modes."""
    m, photons = _check_outcome_space(m, photons)
    return math.comb(m + photons - 1, photons)


def enumerate_outcomes(m: int, photons: int) -> Iterator[Pattern]:
    """Lazily yield all sorted outcomes of ``photons`` photons over ``m`` modes."""
    m, photons = _check_outcome_space(m, photons)
    return combinations_with_replacement(range(m), photons)


# Bytes of the largest block of candidate rows one Minkowski-sum step builds
# at once.  See README "Performance" for the sweep that chose it.
_SUM_CHUNK_BYTES = 1 << 20

# A step's peak over the bytes of the rows it keeps measured 4.05 to 6.29 by
# tracemalloc and up to 7.02 by RSS (README "Resource guards").
_MERGE_FACTOR = 8


def _mode_dtype(m: int) -> np.dtype:
    """The smallest unsigned dtype that holds every mode below ``m``."""
    return np.min_scalar_type(m - 1)


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a C-contiguous 2-D array, ordered by their bytes.

    Each row is viewed as one fixed-width byte string, so rows compare exactly
    whatever the mode count.  The sort is stable, which numpy runs as a merge
    of sorted runs: deduplicating a few concatenated distinct sets costs
    linear time.  ``rows`` is sorted in place.
    """
    keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()
    keys.sort(kind="stable")
    fresh = np.ones(len(keys), dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]
    return rows[fresh]


def _minkowski_sum(choices: Iterable[np.ndarray], m: int) -> np.ndarray:
    """Every sorted pattern formed by taking one row from each choice array.

    Each choice is an (L, w) array of L choices of w modes below ``m``.  The
    sums are held as an (H, k) array whose rows are the distinct sorted
    patterns, k bytes each up to 256 modes, in ``_mode_dtype(m)``.  Each step
    appends every choice to every held row, sorts the new rows and keeps the
    distinct ones.  Held rows enter in chunks whose candidate block fits in
    ``_SUM_CHUNK_BYTES``, so a step never holds all of its candidates at once.
    Each chunk's distinct rows wait until they outnumber the rows merged so
    far and are then merged in, so a merge costs at most about twice the rows
    it takes in, and the rows waiting never pass the rows merged by more than
    one chunk's.
    """
    dtype = _mode_dtype(m)
    held = np.zeros((1, 0), dtype=dtype)
    for choice in choices:
        size, w = choice.shape
        h, k = held.shape
        per = max(1, _SUM_CHUNK_BYTES // (max(size, 1) * (k + w) * dtype.itemsize))
        sums = np.zeros((0, k + w), dtype=dtype)
        waiting: list[np.ndarray] = []
        for start in range(0, h, per):
            block = held[start : start + per]
            candidates = np.empty((len(block), size, k + w), dtype=dtype)
            candidates[:, :, :k] = block[:, None, :]
            candidates[:, :, k:] = choice
            candidates = candidates.reshape(-1, k + w)
            candidates.sort(axis=1)
            waiting.append(_distinct_rows(candidates))
            if sum(map(len, waiting)) >= len(sums):
                sums = _distinct_rows(np.concatenate([sums, *waiting]))
                waiting = []
        held = _distinct_rows(np.concatenate([sums, *waiting]))
    return held


def _check_build(steps: Iterable[tuple[int, int]], m: int, width: int) -> None:
    """Refuse a Minkowski-sum build by its visits or by its bytes, before it allocates.

    Each step gives a choice-list length and a cap on the distinct sums held
    after it, each choice adding ``width`` modes below ``m``.  The build may
    visit at most ``ENUMERATION_GUARD`` sums, and a step may hold at most
    ``_GUARD_BYTES``: ``_MERGE_FACTOR`` times its held rows plus one candidate
    block.  The module constants are read at each call, not bound as defaults.
    """
    itemsize = _mode_dtype(m).itemsize
    work, held = 0, 1
    for k, (size, cap) in enumerate(steps, 1):
        work += held * size
        held = min(held * size, cap)
        if work > ENUMERATION_GUARD:
            raise GuardError(
                f"enumeration guard: building the permitted set visits over "
                f"{work} partial outcomes, above the {ENUMERATION_GUARD} limit"
            )
        row = k * width * itemsize
        need = held * row * _MERGE_FACTOR + max(_SUM_CHUNK_BYTES, size * row)
        if need > _GUARD_BYTES:
            raise GuardError(
                f"enumeration guard: building the permitted set needs about "
                f"{need} bytes, above the {_GUARD_BYTES} byte budget"
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
    m: int, photons: int, choices: Iterable[np.ndarray], upper_bound: float
) -> PermittedCountReport:
    """Number of rows of the Minkowski sum of ``choices`` next to the outcome total."""
    total = outcome_count(m, photons)
    exact = len(_minkowski_sum(choices, m))
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
    t = _input_pattern(input_modes, arch.mode_count, "photon")
    forward = _cone_masks(arch, depth, forward=True)
    return t, [forward[mode] for mode in t]


def _admit_cones(arch: CircuitArchitecture, cones: Sequence[int]) -> float:
    """The product bound of a count of ``cones``, evaluated only once ``_check_build`` admits it.

    Each permitted outcome takes one mode from each cone, so the product of
    the cone sizes bounds the count.
    """
    # after k cones the sums are k-photon outcomes over the modes reached
    reached = accumulate(cones, or_)
    _check_build(
        (
            (c.bit_count(), math.comb(r.bit_count() + k - 1, k))
            for k, (c, r) in enumerate(zip(cones, reached), 1)
        ),
        arch.mode_count,
        width=1,
    )
    return _closed_form("upper bound on the permitted count",
                        lambda: float(math.prod(c.bit_count() for c in cones)))


def _count_cones(m: int, cones: Sequence[int], bound: float) -> PermittedCountReport:
    choices = (np.array(_mask_modes(c), dtype=int).reshape(-1, 1) for c in cones)
    return _count_sums(m, len(cones), choices, bound)


def count_permitted_fbs(
    arch: CircuitArchitecture,
    input_modes: Iterable[int],
    depth: int,
) -> PermittedCountReport:
    """Count permitted outcomes exactly and report the lightcone product bound.

    The permitted set is built as the Minkowski sum of the input lightcones,
    one cone at a time.  ``_check_build`` refuses the count with
    ``GuardError`` before the build when it would visit too many partial sums
    or hold too many bytes.
    """
    _, cones = _input_cones(arch, input_modes, depth)
    return _count_cones(arch.mode_count, cones, _admit_cones(arch, cones))


def _check_lattice(arch: CircuitArchitecture) -> int:
    """The lattice dimension of a circuit that effective clipping can act on."""
    if arch.side_lengths is None:
        raise ValueError("effective clipping requires the local-parallel ensemble")
    return len(arch.side_lengths)


def _effective_cones(
    arch: CircuitArchitecture, input_modes: Iterable[int], depth: int, lam: float, beta: float
) -> tuple[list[int], float]:
    """Clipped forward cones and product bound of an effective count, with all of its refusals."""
    d = _check_lattice(arch)
    t, cones = _input_cones(arch, input_modes, depth)
    photons = len(t)
    radius = effective_lightcone_radius(photons, depth, lam, beta, d)
    far = _far_mask(arch.side_lengths, radius, t)
    cones = [cone & sum(1 << int(i) for i in np.flatnonzero(~row)) for cone, row in zip(cones, far)]
    return cones, _admit_cones(arch, cones)


def count_permitted_fbs_effective(
    arch: CircuitArchitecture,
    input_modes: Iterable[int],
    depth: int,
    lam: float,
    beta: float,
) -> PermittedCountReport:
    """Permitted-outcome count with lightcones clipped to the effective radius.

    Each forward cone is intersected with the box of radius
    ``effective_lightcone_radius`` around its input mode, dimension by
    dimension, and the permitted set is the Minkowski sum of the clipped
    cones, refused as in ``count_permitted_fbs``.  ``upper_bound`` is the
    product of the clipped cone sizes, as for the plain count.
    """
    cones, bound = _effective_cones(arch, input_modes, depth, lam, beta)
    return _count_cones(arch.mode_count, cones, bound)


def _scaling_modes(n: int, noun: str, gamma: float, c: float, d: int) -> float:
    """The mode count ``c * n**gamma`` of a d-dimensional lattice, refused when it overflows."""
    _count(n, f"{noun} number")
    _count(d, "lattice dimension")
    _check_positive(c, "mode-scaling constant")
    return _closed_form(f"mode count c*n^gamma at n={n}, gamma={gamma}, c={c}",
                        lambda: c * n**gamma)


def _check_scaling_curve(
    m: int, n: int, noun: str, gamma: float, c: float, c_name: str, d: int
) -> None:
    """Reject ratio-bound arguments off the lattice scaling curve ``m = c * n**gamma``."""
    expected = _scaling_modes(n, noun, gamma, c, d)
    if not abs(m - expected) <= 0.5 + 1e-9 * expected:
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
    n, depth = photons, _count(depth, "depth", 0)
    return _closed_form("fbs permitted-ratio bound", lambda: 3.0 * math.sqrt(n) * (
        (2.0**d * depth**d * n ** (1.0 - gamma)) / (math.e * d**d * c0)) ** n)


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


def _depth_thresholds(
    n: int, gamma: float, c: float, d: int, lam: float, beta: float, gaussian: bool
) -> DepthThresholds:
    """Regime-boundary depths at ``m = c * n**gamma``, refused outside their domain.

    ``n`` counts photons for Fock-state and pairs for Gaussian sampling.
    """
    scheme, noun, photons = ("gbs", "pair", 2 * n) if gaussian else ("fbs", "photon", n)
    if not gamma >= 1:
        raise ValueError(f"mode-scaling exponent must be >= 1, got {gamma}")
    _check_cone_params(lam, beta, d)
    m = _scaling_modes(n, noun, gamma, c, d)

    def depths() -> tuple[float, ...]:
        gbs_divs = 2.0 ** (1.0 / d + 2.0), 2.0 ** (2.0 / d + 3.0)
        kappa_div, alpha_div = gbs_divs if gaussian else (2.0, 2.0)
        kappa = math.e ** (1.0 / d) * c ** (1.0 / d) * d / kappa_div
        alpha = math.e ** (2.0 / d) * c ** (2.0 / d) * beta * d / alpha_div
        eps = math.exp(math.lgamma(photons + 1) - photons * math.log(m))
        return (kappa, kappa * n ** ((gamma - 1.0) / d),
                alpha, alpha * n ** (2.0 * (gamma - 1.0) / d - lam), eps)

    kappa, forbidden, alpha, concentration, eps = _closed_form(f"{scheme} depth thresholds", depths)
    return DepthThresholds(
        scheme=scheme,
        forbidden_constant=kappa,
        forbidden_depth=forbidden,
        concentration_constant=alpha,
        concentration_depth=concentration,
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
    return _depth_thresholds(photons, gamma, c0, d, lam, beta, gaussian=False)
