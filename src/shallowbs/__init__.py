"""Shallow-depth linear-optical circuit toolkit.

Builds layered beam-splitter architectures (lattice brickwork and non-local
hypercubic), realizes them with Haar-random two-mode gates, evaluates exact
Fock-state and Gaussian sampling probabilities through permanents and
hafnians, counts lightcone-permitted outcomes against closed-form depth
thresholds, and measures ensemble randomness through entropy Page curves,
frame potentials and probability-density comparisons.
"""

from ._version import __version__
from . import arch, fock, gaussian, linalg, matfn, stats
from .arch import (
    CircuitArchitecture,
    GateSlot,
    Layer,
    backward_lightcone,
    build_local_parallel,
    build_nlhs,
    effective_lightcone_radius,
    forward_lightcone,
    leakage_rate,
    path_count,
    realize,
    truncate_unitary,
)
from .fock import (
    DepthThresholds,
    PermittedCountReport,
    count_permitted_fbs,
    count_permitted_fbs_effective,
    enumerate_outcomes,
    fbs_depth_thresholds,
    fbs_permitted_ratio_bound,
    fbs_probability,
    is_permitted_fbs,
    outcome_count,
)
from .gaussian import (
    count_permitted_gbs,
    evolve_covariance,
    gbs_depth_thresholds,
    gbs_permitted_ratio_bound,
    gbs_unnormalized_probability,
    is_permitted_gbs,
    page_curve,
    photon_pair_marginal,
    reduced_covariance,
    renyi2_entropy,
    smsv_covariance,
)
from .linalg import RngStream, ginibre, haar_unitary
from .matfn import (
    GuardError,
    hafnian,
    hafnian_oracle,
    permanent,
    permanent_oracle,
)
from .stats import (
    DensityCurve,
    FramePotentialEstimate,
    bootstrap_std,
    density_function,
    fbs_probability_samples,
    frame_potential,
    gbs_probability_samples,
    hiding_samples,
    random_collision_free_pattern,
)
