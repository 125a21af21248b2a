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
import warnings
from operator import index
from typing import Iterable, Union

import numpy as np

from .arch import CircuitArchitecture, _check_positive, _closed_form, _cone_masks, _unitary_sampler
from .fock import (
    DepthThresholds,
    ENUMERATION_GUARD,
    PermittedCountReport,
    Pattern,
    _as_pattern,
    _check_scaling_curve,
    _check_build,
    _count_sums,
    _depth_thresholds,
    _input_pattern,
    pattern_factorial,
)
from .linalg import RngStream, _check_dense
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


def _check_bipartition(modes: int) -> None:
    if modes < 2:
        raise ValueError(f"need at least two modes for a bipartition, got {modes}")


def _check_samples(samples: int) -> None:
    """At least the two samples a standard error needs."""
    if samples < 2:
        raise ValueError(f"need at least two samples, got {samples}")


def smsv_covariance(modes: int, input_modes: Iterable[int], squeeze_r: float) -> np.ndarray:
    """Covariance of identical squeezed vacua on ``input_modes``, vacuum elsewhere."""
    idx = np.array(_input_pattern(input_modes, modes, "squeezed mode"), dtype=int)
    _check_squeezing(squeeze_r)
    _check_dense(2 * modes, 2 * modes)
    diag = np.ones(2 * modes)
    diag[idx] = math.exp(-2.0 * squeeze_r)
    diag[idx + modes] = math.exp(2.0 * squeeze_r)
    return np.diag(diag)


def symplectic_from_unitary(u: np.ndarray) -> np.ndarray:
    """Orthogonal symplectic action of a passive circuit on (x, p) quadratures."""
    u = np.asarray(u)
    m = _require_square(u, "symplectic_from_unitary")
    re, im = u.real, u.imag
    o = np.empty((2 * m, 2 * m), dtype=re.dtype)
    o[:m, :m] = o[m:, m:] = re
    o[:m, m:] = -im
    o[m:, :m] = im
    return o


def evolve_covariance(sigma: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Push a covariance through a passive circuit, sigma -> O sigma O^T."""
    sigma = np.asarray(sigma, dtype=float)
    u = np.asarray(u)
    m = u.shape[0]
    if sigma.shape != (2 * m, 2 * m):
        raise ValueError(
            f"covariance shape {sigma.shape} does not match the {(2 * m, 2 * m)} "
            f"of a {m}-mode circuit"
        )
    if np.max(np.abs(u.conj().T @ u - np.eye(m))) > 1e-8:
        raise ValueError("circuit matrix is not unitary within 1e-8")
    o = symplectic_from_unitary(u)
    return o @ sigma @ o.T


def reduced_covariance(sigma: np.ndarray, modes: Iterable[int]) -> np.ndarray:
    """Covariance of the state restricted to a proper nonempty mode subset."""
    sigma = np.asarray(sigma)
    m = _require_square(sigma, "covariance", even=True) // 2
    keep = sorted(set(map(index, modes)))
    if not keep:
        raise ValueError("mode subset must be nonempty")
    if len(keep) >= m:
        raise ValueError(f"mode subset must be proper, got all {m} modes")
    if keep[0] < 0 or keep[-1] >= m:
        raise IndexError(f"mode subset {keep} out of range for {m} modes")
    idx = np.array(keep + [k + m for k in keep], dtype=int)
    return sigma[np.ix_(idx, idx)]


def renyi2_entropy(sigma: np.ndarray) -> float:
    """Second Renyi entropy of a Gaussian state, (1/2) ln det(sigma)."""
    sigma = np.asarray(sigma)
    sign, logdet = np.linalg.slogdet(sigma)
    if sign <= 0:
        raise ValueError("covariance has non-positive determinant; not a valid state")
    return 0.5 * float(logdet)


def is_valid_covariance(sigma: np.ndarray, tol: float = 1e-8) -> bool:
    """Uncertainty-principle check: sigma + i Omega is positive semidefinite."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.shape[0] % 2 != 0:
        return False
    if np.max(np.abs(sigma - sigma.T)) > tol:
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
    """
    modes, draw = _unitary_sampler(ensemble)
    _check_bipartition(modes)
    _check_entropy_squeezing(squeeze_r)
    sigma0 = smsv_covariance(modes, range(modes), squeeze_r)
    _check_samples(samples)

    def one(k: int, trial: int) -> float:
        gen = rng.derive((k - 1) * samples + trial).generator()
        u = draw(gen)
        subset = gen.choice(modes, size=k, replace=False)
        return renyi2_entropy(reduced_covariance(evolve_covariance(sigma0, u), subset))

    rows = []
    for k in range(1, modes):
        chunk = np.array([one(k, trial) for trial in range(samples)])
        rows.append(
            (k, float(chunk.mean()), float(chunk.std(ddof=1) / math.sqrt(samples)))
        )
    return rows


def _hafnian_weight(u: np.ndarray, input_modes: Pattern, output_modes: Pattern) -> float:
    """|Haf(B_s)|^2 / s! for checked input and even output patterns, B = U I_K U^T."""
    rows = u[np.ix_(output_modes, input_modes)]
    b_s = rows @ rows.T
    return float(abs(hafnian(b_s)) ** 2 / pattern_factorial(output_modes))


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
    outcome with the same photon number) is deliberately omitted.
    """
    u = np.asarray(u)
    m = _require_square(u, "gbs_unnormalized_probability")
    return _hafnian_weight(u, *_even_outcome(m, input_modes, output_modes))


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
    those pairings, so the outcome is permitted when it is nonzero.  The
    hafnian's dimension guard caps the outcome at ``HAFNIAN_MAX_DIM`` photons.
    """
    t, s = _even_outcome(arch.mode_count, input_modes, output_modes)
    _, sources = _source_masks(arch, t, depth)
    shared = np.array([[bool(sources[a] & sources[b]) for b in s] for a in s], dtype=float)
    return hafnian(shared.reshape(len(s), len(s))) != 0


def _check_pairs(pairs: int, sources: int) -> None:
    if not 0 <= pairs <= sources:
        raise ValueError(f"need 0 <= pairs <= {sources} squeezed inputs, got pairs={pairs}")


def count_permitted_gbs(
    arch: CircuitArchitecture,
    input_modes: Iterable[int],
    pairs: int,
    depth: int,
    guard: int = ENUMERATION_GUARD,
) -> PermittedCountReport:
    """Count permitted even outcomes and report the pairing-count bound.

    A permitted outcome is a sum of ``pairs`` allowed mode pairs (a, b), those
    whose backward lightcones share a squeezed input, so the permitted set is
    the Minkowski sum of ``pairs`` copies of the allowed-pair list E.  The
    guard bounds the partial sums that build visits and is checked while E is
    listed, so a refused count stops early.

    The bound counts anchor-mode multisets, binom(M + pairs - 1, pairs), times
    a uniform per-pair partner factor (the round-trip lightcone size bound
    (4 depth / d)^d on a lattice, the largest actual round-trip cone size
    otherwise), divided by 2^pairs for the anchor/partner exchange within each
    pair.  The exchange discount follows the source derivation, which assumes
    collision pairs are a vanishing fraction (modes >> photons); in heavily
    collided corners the discounted form can undercut the exact count, so
    ``exact_count`` is the authoritative figure.  The bound is derived for
    sources on every mode and so stays valid, if loose, for restricted inputs.
    """
    m = arch.mode_count
    t = _input_pattern(input_modes, m, "squeezed mode")
    _check_pairs(pairs, len(t))
    n = pairs
    back, sources = _source_masks(arch, t, depth)
    fed = sum(1 for mask in sources if mask)
    allowed: list[Pattern] = []
    for a in range(m):
        allowed += [(a, b) for b in range(a, m) if sources[a] & sources[b]]
        e = len(allowed)
        # k pairs sum to at most binom(e + k - 1, k) outcomes, and to at most
        # the outcomes of 2k photons over the modes some input reaches
        caps = (min(math.comb(e + k - 1, k), math.comb(fed + 2 * k - 1, 2 * k)) for k in range(1, n + 1))
        _check_build(((e, cap) for cap in caps), guard)

    if arch.side_lengths is not None:
        d = len(arch.side_lengths)
        per_pair = (4.0 * depth / d) ** d
    else:
        # largest round-trip cone |L_D(L_D^t(j))| over anchor modes j: the
        # modes whose backward lightcone meets that of j
        per_pair = float(max(sum(1 for x in back if x & y) for y in back))
    bound = math.comb(m + n - 1, n) * per_pair**n / 2**n
    return _count_sums(m, 2 * n, [allowed] * n, float(bound))


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
    n = pairs
    return _closed_form("gbs permitted-ratio bound", lambda: 2.0 * (
        (2.0 ** (2 * d + 1) / (math.e * d**d * c1)) * depth**d * n ** (1.0 - gamma)) ** n)


def photon_pair_marginal(k_inputs: int, squeeze_r: float, pairs: int) -> float:
    """Probability that K identical squeezed vacua hold exactly ``pairs`` photon pairs.

    Negative-binomial law ``C(K/2 + n - 1, n) tanh(r)^{2n} / cosh(r)^K``.  Odd
    source counts use the Gamma-function extension of the binomial weight,
    which goes beyond the closed-form derivation, so they raise a warning.
    """
    if k_inputs < 1:
        raise ValueError(f"need at least one squeezed source, got {k_inputs}")
    _check_squeezing(squeeze_r)
    if pairs < 0:
        raise ValueError(f"pair number must be non-negative, got {pairs}")
    k, r, n = k_inputs, squeeze_r, pairs
    if k % 2 != 0:
        warnings.warn(
            "odd source count: pair marginal uses the Gamma extension of the binomial weight",
            stacklevel=2,
        )
    log_weight = (
        math.lgamma(k / 2.0 + n) - math.lgamma(n + 1.0) - math.lgamma(k / 2.0)
    )
    log_p = log_weight + 2.0 * n * math.log(math.tanh(r)) - k * math.log(math.cosh(r))
    return math.exp(log_p)
