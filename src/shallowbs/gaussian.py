"""Gaussian states in covariance form and Gaussian boson sampling diagnostics.

Covariance matrices are 2M x 2M real, ordered as the M position quadratures
followed by the M momentum quadratures, with vacuum normalized to the
identity.  A single-mode squeezed vacuum with parameter r has x-variance
``exp(-2r)`` and p-variance ``exp(+2r)``.  A passive circuit with matrix U
acts as the orthogonal symplectic built from Re U and Im U.

Gaussian sampling probabilities reduce to hafnians of repeated-index
submatrices of ``B = U I_K U^T`` with I_K projecting onto the squeezed input
modes; entry B_ab vanishes unless some input mode sits in both backward
lightcones of a and b, which is what drives the pairing-based permitted
counting here.

Like their Fock-state counterparts, the functions take only the values they
read: the squeezed input modes as a sorted pattern, the squeezing r, the pair
number and the circuit or its mode count.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import or_
from typing import Iterable, Union

import numpy as np

from .arch import (
    CircuitArchitecture,
    _check_positive,
    _closed_form,
    _cone_masks,
    _ensemble_modes,
    _mask_modes,
    _trial_chunks,
    _unitaries,
)
from .fock import (
    DepthThresholds,
    PermittedCountReport,
    Pattern,
    _as_pattern,
    _check_scaling_curve,
    _check_build,
    _count_sums,
    _depth_thresholds,
    _input_pattern,
    _pattern_rows,
    pattern_factorial,
)
from . import matfn
from .linalg import RngStream, _check_dense, _count
from .matfn import _require_square, hafnian

__all__ = [
    "smsv_covariance",
    "evolve_covariance",
    "reduced_covariance",
    "renyi2_entropy",
    "symplectic_from_unitary",
    "is_valid_covariance",
    "page_curve",
    "gbs_unnormalized_probability",
    "is_permitted_gbs",
    "count_permitted_gbs",
    "gbs_depth_thresholds",
    "gbs_permitted_ratio_bound",
    "photon_pair_marginal",
]


def _check_squeezing(squeeze_r: float) -> None:
    """A positive squeezing whose p-variance exp(2r) is a finite float."""
    _check_positive(squeeze_r, "squeezing")
    _closed_form(f"squeezed variance exp(2r) at r={squeeze_r}", lambda: math.exp(2.0 * squeeze_r))


# An evolved covariance mixes variances exp(-2r) and exp(+2r); as their ratio
# exp(4r) nears 2^52, float64 rounding loses the smallest eigenvalue.  Circuits
# of 32 to 128 modes already lost it for some seeds at r = 9.0 (exp(4r) ~ 2^52),
# and none did below exp(4r) = 2^50, the limit kept here.
_ENTROPY_SQUEEZING_LIMIT = 12.5 * math.log(2)


def _check_entropy_squeezing(squeeze_r: float) -> None:
    """A squeezing whose evolved covariance keeps its determinant in float64."""
    _check_squeezing(squeeze_r)
    if squeeze_r >= _ENTROPY_SQUEEZING_LIMIT:
        raise ValueError(
            f"squeezing r={squeeze_r} reaches exp(4r) >= 2^50, past float64 precision for "
            f"entropies; need r < 12.5 ln 2 = {_ENTROPY_SQUEEZING_LIMIT:.4f}"
        )


def _check_even(photons: int) -> None:
    if photons % 2 != 0:
        raise ValueError(f"outcome must hold an even photon number, got {photons}")


def smsv_covariance(modes: int, input_modes: Iterable[int], squeeze_r: float) -> np.ndarray:
    """Covariance of identical squeezed vacua on ``input_modes``, vacuum elsewhere."""
    modes = _count(modes, "mode count")
    idx = np.array(_input_pattern(input_modes, modes, "squeezed mode"), dtype=int)
    _check_squeezing(squeeze_r)
    _check_dense(2 * modes, 2 * modes)
    diag = np.ones(2 * modes)
    diag[idx] = math.exp(-2.0 * squeeze_r)
    diag[idx + modes] = math.exp(2.0 * squeeze_r)
    return np.diag(diag)


def symplectic_from_unitary(u: np.ndarray) -> np.ndarray:
    """Orthogonal symplectic action of a passive circuit on (x, p) quadratures;
    of a (B, M, M) stack of circuits, the (B, 2M, 2M) stack of their actions."""
    u = np.asarray(u)
    m = _require_square(u, "symplectic_from_unitary", stack=True)
    re, im = u.real, u.imag
    o = np.empty(u.shape[:-2] + (2 * m, 2 * m), dtype=re.dtype)
    o[..., :m, :m] = o[..., m:, m:] = re
    o[..., :m, m:] = -im
    o[..., m:, :m] = im
    return o


def evolve_covariance(sigma: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Push a covariance through a passive circuit, unitary within 1e-8: sigma -> O sigma O^T."""
    sigma = np.asarray(sigma, dtype=float)
    u = np.asarray(u)
    m = _require_square(u, "evolve_covariance")
    if sigma.shape != (2 * m, 2 * m):
        raise ValueError(
            f"covariance shape {sigma.shape} does not match the {(2 * m, 2 * m)} "
            f"of a {m}-mode circuit"
        )
    with np.errstate(invalid="ignore"):  # an infinite entry makes NaN, which fails the test
        error = np.max(np.abs(u.conj().T @ u - np.eye(m)))
    if not error <= 1e-8:
        raise ValueError("circuit matrix is not unitary within 1e-8")
    return _evolved(sigma, u[None])[0]


def _evolved(sigma: np.ndarray, u: np.ndarray) -> np.ndarray:
    """O sigma O^T for each circuit of a (B, M, M) stack of unitaries, as one
    stacked product.

    The stack is trusted: ``page_curve`` draws it unitary, and
    ``evolve_covariance`` checks a caller's circuit.  Each slice is the 2-D
    product ``o @ sigma @ o.T`` of its own circuit, bit for bit.
    """
    o = symplectic_from_unitary(u)
    return o @ sigma @ o.swapaxes(1, 2)


def reduced_covariance(sigma: np.ndarray, modes: Iterable[int]) -> np.ndarray:
    """Covariance of the state restricted to a proper nonempty mode subset."""
    sigma = np.asarray(sigma)
    m = _require_square(sigma, "covariance", even=True) // 2
    keep = sorted({_count(k, "mode", None) for k in modes})
    if not keep:
        raise ValueError("mode subset must be nonempty")
    if len(keep) >= m:
        raise ValueError(f"mode subset must be proper, got all {m} modes")
    if keep[0] < 0 or keep[-1] >= m:
        raise IndexError(f"mode subset {keep} out of range for {m} modes")
    idx = np.array(keep + [k + m for k in keep], dtype=int)
    return sigma[np.ix_(idx, idx)]


def renyi2_entropy(sigma: np.ndarray) -> Union[float, np.ndarray]:
    """Second Renyi entropy of a Gaussian state, (1/2) ln det(sigma); of a
    (B, 2k, 2k) stack of covariances, the B entropies by one batched ``slogdet``."""
    sigma = np.asarray(sigma)
    _require_square(sigma, "renyi2_entropy", even=True, stack=True)
    with np.errstate(invalid="ignore"):
        sign, logdet = np.linalg.slogdet(sigma if sigma.ndim == 3 else sigma[None])
    # slogdet reads sign 1 for a matrix holding NaN or inf, so its log must be finite too
    if not ((sign > 0) & np.isfinite(logdet)).all():
        raise ValueError("covariance has a non-positive or non-finite determinant; not a valid state")
    return 0.5 * logdet if sigma.ndim == 3 else float(0.5 * logdet[0])


def is_valid_covariance(sigma: np.ndarray, tol: float = 1e-8) -> bool:
    """Uncertainty-principle check: sigma + i Omega is positive semidefinite."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.shape[0] % 2 != 0:
        return False
    with np.errstate(invalid="ignore"):  # inf - inf makes NaN, which fails the test
        asym = np.max(np.abs(sigma - sigma.T))
    if not asym <= tol:
        return False
    m = sigma.shape[0] // 2
    eye = np.eye(m)
    zero = np.zeros((m, m))
    omega = np.block([[zero, eye], [-eye, zero]])
    eigs = np.linalg.eigvalsh(sigma + 1j * omega)
    return bool(eigs.min() >= -tol)


def page_curve(
    ensemble: Union[CircuitArchitecture, int],
    squeeze_r: float,
    samples: int,
    rng: RngStream,
) -> list[tuple[int, float, float]]:
    """Mean subsystem entropy against subsystem size for a circuit ensemble.

    The ensemble is a circuit, drawn with ``realize``, or an integer M for Haar
    on U(M).  All M modes carry identical squeezing ``squeeze_r``, which must
    stay below 12.5 ln 2 for the entropies to survive float64 rounding.  For
    every subsystem size k from 1 to M - 1 and every sample, a fresh circuit
    and a uniformly random k-mode subset are drawn from a per-trial derived
    stream; the rows returned are ``(k, mean entropy, standard error)``.

    Each chunk of trials is evolved as one stack, and the trials of one size
    within it are reduced and take their determinants as one batch.  Every
    entropy equals ``renyi2_entropy(reduced_covariance(evolve_covariance(...)))``
    of its own trial.
    """
    modes = _count(_ensemble_modes(ensemble), "mode count", 2, "two modes for a bipartition")
    _check_entropy_squeezing(squeeze_r)
    sigma0 = smsv_covariance(modes, range(modes), squeeze_r)
    samples = _count(samples, "sample count", 2, "two samples")
    # trial j of size k draws from stream (k - 1) * samples + j
    entropies = np.empty((modes - 1, samples))
    flat = entropies.reshape(-1)
    for rows, gens in _trial_chunks(rng, flat.size, 16 * modes * modes):
        sigma = _evolved(sigma0, _unitaries(ensemble, gens))
        lo = 0
        while lo < len(gens):
            k = (rows.start + lo) // samples + 1
            hi = min(len(gens), k * samples - rows.start)
            subset = _pattern_rows(modes, k, gens[lo:hi])
            keep = np.concatenate((subset, subset + modes), axis=1)
            trial = np.arange(lo, hi)[:, None, None]
            reduced = sigma[trial, keep[:, :, None], keep[:, None, :]]
            flat[rows.start + lo : rows.start + hi] = renyi2_entropy(reduced)
            lo = hi
    return [
        (k, float(row.mean()), float(row.std(ddof=1) / math.sqrt(samples)))
        for k, row in enumerate(entropies, 1)
    ]


def _hafnian_weights(
    u: np.ndarray, input_modes: Iterable[int], outputs: np.ndarray
) -> np.ndarray:
    """|Haf(B_s)|^2 with B = U I_K U^T, for each trial of a (B, M, K) stack of circuits:
    ``gbs_unnormalized_probability`` of a collision-free outcome, whose ``s!`` is 1.

    ``outputs`` holds each trial's checked even pattern as (B, n) rows; the
    squeezed ``input_modes`` are common to all.  One gather takes the rows of
    every U[s, t], one stacked product forms each B_s and one ``hafnian`` call
    takes the hafnians of the stack.
    """
    trial = np.arange(len(u))[:, None, None]
    rows = u[trial, outputs[:, :, None], input_modes]
    b_s = rows @ rows.swapaxes(1, 2)
    return abs(matfn.hafnian(b_s)) ** 2


def _even_outcome(
    m: int, input_modes: Iterable[int], output_modes: Iterable[int]
) -> tuple[Pattern, Pattern]:
    """Squeezed input pattern and even output pattern of one Gaussian outcome."""
    t = _input_pattern(input_modes, m, "squeezed mode")
    s = _as_pattern(output_modes, m, "output")
    _check_even(len(s))
    return t, s


def gbs_unnormalized_probability(
    u: np.ndarray, input_modes: Iterable[int], output_modes: Iterable[int]
) -> float:
    """Relative weight |Haf(B_s)|^2 / s! of an even outcome within its photon sector.

    The overall normalization (squeezing and cosh factors, identical for every
    outcome with the same photon number) is deliberately omitted.  This is the
    B = 1 case of ``_hafnian_weights``, divided by ``s!``.
    """
    u = np.asarray(u)
    m = _require_square(u, "gbs_unnormalized_probability")
    t, s = _even_outcome(m, input_modes, output_modes)
    weight = _hafnian_weights(u[None], t, np.array(s, dtype=int).reshape(1, -1))[0]
    return float(weight) / pattern_factorial(s)


def _source_masks(
    arch: CircuitArchitecture, input_modes: Pattern, depth: int
) -> tuple[list[int], list[int]]:
    """Backward lightcone bitmask of every mode, and the squeezed inputs each one holds."""
    back = _cone_masks(arch, depth, forward=False)
    inputs = sum(1 << mode for mode in input_modes)
    return back, [mask & inputs for mask in back]


def is_permitted_gbs(
    arch: CircuitArchitecture,
    input_modes: Iterable[int],
    output_modes: Iterable[int],
    depth: int,
) -> bool:
    """Whether an even outcome can carry Gaussian-sampling probability.

    Photons must split into pairs such that each pair shares a squeezed source
    lying in both photons' backward lightcones.  With ``S[i][j] = 1`` when
    photons i and j share a source and 0 otherwise, ``Haf(S)`` counts exactly
    those pairings, so the outcome is permitted when that count is at least
    one.  The hafnian's dimension guard caps the outcome at
    ``HAFNIAN_MAX_DIM`` photons.
    """
    t, s = _even_outcome(arch.mode_count, input_modes, output_modes)
    _, sources = _source_masks(arch, t, depth)
    shared = np.array([[bool(sources[a] & sources[b]) for b in s] for a in s], dtype=float)
    # The float hafnian of a 0/1 matrix is not an exact integer: over the 0/1
    # sweep of the tests up to 24 photons it missed the count by at most 0.018
    # (cliques of 1 and 23, a zero count), so membership rounds at 0.5.
    return abs(hafnian(shared.reshape(len(s), len(s)))) > 0.5


def _check_pairs(pairs: int, sources: int) -> int:
    pairs = _count(pairs, "pair number", None)
    if not 0 <= pairs <= sources:
        raise ValueError(f"need 0 <= pairs <= {sources} squeezed inputs, got pairs={pairs}")
    return pairs


def count_permitted_gbs(
    arch: CircuitArchitecture,
    input_modes: Iterable[int],
    pairs: int,
    depth: int,
) -> PermittedCountReport:
    """Count permitted even outcomes and report the pairing-count bound.

    A permitted outcome is a sum of ``pairs`` allowed mode pairs (a, b), those
    whose backward lightcones share a squeezed input, so the permitted set is
    the Minkowski sum of ``pairs`` copies of the allowed-pair list E.  E holds
    the distinct pairs inside the forward lightcone of some squeezed input; its
    size comes from one partner bitmask per fed mode, and ``_check_build``
    refuses a count for its visits or its bytes before E is listed.

    The bound is binom(M + pairs - 1, pairs) * R^pairs, where R is the largest
    round-trip cone: the most modes whose backward lightcones meet that of one
    mode.  Writing each allowed pair as its lower mode, the anchor, and a
    partner in the anchor's round-trip cone maps an outcome to a multiset of
    anchors and one partner per anchor, and every outcome is reached, so the
    bound holds on every circuit family, at every depth and for any inputs.
    """
    m = arch.mode_count
    t = _input_pattern(input_modes, m, "squeezed mode")
    n = _check_pairs(pairs, len(t))
    back, sources = _source_masks(arch, t, depth)
    forward = _cone_masks(arch, depth, forward=True)

    def cone_union(mask: int) -> int:
        return reduce(or_, (forward[i] for i in _mask_modes(mask)))

    # a fed mode pairs with every mode, itself included, in the forward cone of
    # an input it holds; partner masks keep the partners from the mode upwards
    partners = [(a, cone_union(held) >> a << a) for a, held in enumerate(sources) if held]
    e, fed = sum(mask.bit_count() for _, mask in partners), len(partners)
    # k pairs sum to at most binom(e + k - 1, k) outcomes, and to at most the
    # outcomes of 2k photons over the fed modes
    caps = (min(math.comb(e + k - 1, k), math.comb(fed + 2 * k - 1, 2 * k)) for k in range(1, n + 1))
    _check_build(((e, cap) for cap in caps), m, width=2)
    allowed = [(a, b) for a, mask in partners for b in _mask_modes(mask)]

    # the round-trip cone of a mode, the modes whose backward lightcones meet
    # its own, joins the forward lightcones of the modes in its backward cone
    r = max(cone_union(y).bit_count() for y in set(back))
    bound = _closed_form("upper bound on the permitted count",
                         lambda: float(math.comb(m + n - 1, n) * r**n))
    return _count_sums(m, 2 * n, [np.array(allowed, dtype=int).reshape(-1, 2)] * n, bound)


def gbs_depth_thresholds(
    pairs: int, gamma: float, c1: float, d: int, lam: float, beta: float
) -> DepthThresholds:
    """Regime-boundary depths for Gaussian sampling at ``m = c1 * pairs**gamma``."""
    return _depth_thresholds(pairs, gamma, c1, d, lam, beta, gaussian=True)


def gbs_permitted_ratio_bound(
    m: int, pairs: int, gamma: float, c1: float, d: int, depth: int
) -> float:
    """Closed-form bound on the permitted fraction of even outcomes, lattice case."""
    _check_scaling_curve(m, pairs, "pair", gamma, c1, "c1", d)
    n, depth = pairs, _count(depth, "depth", 0)
    return _closed_form("gbs permitted-ratio bound", lambda: 2.0 * (
        (2.0 ** (2 * d + 1) / (math.e * d**d * c1)) * depth**d * n ** (1.0 - gamma)) ** n)


def photon_pair_marginal(k_inputs: int, squeeze_r: float, pairs: int) -> float:
    """Probability that K identical squeezed vacua hold exactly ``pairs`` photon pairs.

    Negative-binomial law ``C(K/2 + n - 1, n) tanh(r)^{2n} / cosh(r)^K``, with
    the binomial weight taken through Gamma functions.  It holds for every K,
    odd K included: the pair count of each squeezed vacuum has generating
    function (1 - tanh^2(r) z)^(-1/2) / cosh(r), so that of K of them is its
    K-th power.
    """
    k = _count(k_inputs, "source count", 1, "one squeezed source")
    _check_squeezing(squeeze_r)
    r, n = squeeze_r, _count(pairs, "pair number", 0)
    log_weight = (
        math.lgamma(k / 2.0 + n) - math.lgamma(n + 1.0) - math.lgamma(k / 2.0)
    )
    log_p = log_weight + 2.0 * n * math.log(math.tanh(r)) - k * math.log(math.cosh(r))
    return math.exp(log_p)
