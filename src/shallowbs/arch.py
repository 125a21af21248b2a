"""Beam-splitter circuit architectures and their lightcone structure.

Two families are built here.  The local-parallel family lays modes on a
d-dimensional lattice and applies brickwork rounds: two offset-staggered
nearest-neighbour steps per lattice dimension, open boundaries, so one full
round takes 2d layers.  The non-local hypercubic family works on M = 2^p modes
and pairs modes whose indices differ in exactly one bit, sweeping the stride
from 1 up to 2^(p-1); after the p layers of a single round every input touches
every output exactly once.

A realized circuit multiplies an independent Haar-random 2x2 gate into every
slot.  The matrix convention is ``u[out, in]``: column j is the image of input
mode j, so the support of column j is the forward lightcone of j and the
support of row i is the backward lightcone of i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Any, Callable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .linalg import RngStream, _check_dense, _count, _haar_u2_batch, as_generator, haar_unitary
from .linalg import _trial_generators

__all__ = [
    "GateSlot",
    "Layer",
    "CircuitArchitecture",
    "build_local_parallel",
    "build_nlhs",
    "realize",
    "forward_lightcone",
    "backward_lightcone",
    "path_count",
    "mode_coordinates",
    "effective_lightcone_radius",
    "leakage_rate",
    "truncate_unitary",
    "arch_to_dict",
]


_FAMILIES = ("local-parallel", "nlhs", "custom")


def _check_positive(value: float, what: str) -> None:
    if not value > 0:
        raise ValueError(f"{what} must be positive, got {value}")


def _mode_index(mode: Any, modes: int) -> int:
    """``mode`` as an integer index of one of ``modes`` modes; IndexError outside them."""
    mode = _count(mode, "mode", None)
    if not 0 <= mode < modes:
        raise IndexError(f"mode {mode} out of range for {modes} modes")
    return mode


class GateSlot(NamedTuple):
    """One two-mode gate position; ``a < b`` by construction."""

    a: int
    b: int


@dataclass(frozen=True)
class Layer:
    """A parallel layer: gate slots whose mode pairs are mutually disjoint."""

    slots: tuple[GateSlot, ...]


@dataclass(frozen=True)
class CircuitArchitecture:
    """Immutable layered circuit layout.

    Four facts are stored: ``mode_count``, ``layers``, ``family`` (one of
    ``"local-parallel"``, ``"nlhs"`` or ``"custom"``) and ``side_lengths``,
    which a lattice circuit gives and no other circuit does.  Everything else
    is derived: ``depth`` is the layer count, ``dimension`` the number of side
    lengths, and for nlhs circuits ``log2_modes`` is log2 of the power-of-two
    mode count and ``rounds`` the number of full sweeps in the depth.
    """

    mode_count: int
    layers: tuple[Layer, ...]
    family: str = "custom"
    side_lengths: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"family must be one of {_FAMILIES}, got {self.family!r}")
        if self.side_lengths is not None:
            sides = tuple(_count(s, "side length", None) for s in self.side_lengths)
            if any(s < 2 for s in sides):
                raise ValueError(f"every side length must be at least 2, got {sides}")
            object.__setattr__(self, "side_lengths", sides)
        object.__setattr__(self, "mode_count", _count(self.mode_count, "mode count"))
        for li, layer in enumerate(self.layers):
            seen: set[int] = set()
            for slot in layer.slots:
                if not (0 <= slot.a < slot.b < self.mode_count):
                    raise ValueError(
                        f"layer {li}: slot {slot} invalid for {self.mode_count} modes"
                    )
                if slot.a in seen or slot.b in seen:
                    raise ValueError(f"layer {li}: mode reused by slot {slot}")
                seen.add(slot.a)
                seen.add(slot.b)
        if (self.side_lengths is not None) != (self.family == "local-parallel"):
            raise ValueError("side lengths are given exactly for local-parallel circuits")
        if self.side_lengths is not None:
            if math.prod(self.side_lengths) != self.mode_count:
                raise ValueError(
                    f"side lengths {self.side_lengths} do not fill {self.mode_count} modes"
                )
        m = self.mode_count
        if self.family == "nlhs" and (m < 2 or m & (m - 1)):
            raise ValueError(f"nlhs needs a power-of-two mode count of at least 2, got {m}")

    @cached_property
    def _slot_arrays(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Each layer's lower and upper slot modes as two index arrays, for ``realize``."""
        return tuple(
            (np.array([s.a for s in layer.slots], dtype=np.intp),
             np.array([s.b for s in layer.slots], dtype=np.intp))
            for layer in self.layers
        )

    @cached_property
    def _gate_uniforms(self) -> np.ndarray:
        """(4, G) index whose column g picks gate g's uniforms from a draw of 4 per gate.

        A layer of k gates that starts at gate s reads its block of 4k uniforms
        as a (4, k) array, so entry c of gate g sits at 4s + c*k + (g - s).
        """
        sizes = np.array([len(layer.slots) for layer in self.layers], dtype=np.intp)
        starts = np.repeat(np.cumsum(sizes) - sizes, sizes)
        return 3 * starts + np.arange(len(starts)) + np.arange(4)[:, None] * np.repeat(sizes, sizes)

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def gate_count(self) -> int:
        return sum(len(layer.slots) for layer in self.layers)

    @property
    def dimension(self) -> Optional[int]:
        return None if self.side_lengths is None else len(self.side_lengths)

    @property
    def log2_modes(self) -> Optional[int]:
        return self.mode_count.bit_length() - 1 if self.family == "nlhs" else None

    @property
    def rounds(self) -> Optional[int]:
        return self.depth // self.log2_modes if self.family == "nlhs" else None


def build_local_parallel(
    dimension: int, side_lengths: Sequence[int], depth: int
) -> CircuitArchitecture:
    """Brickwork lattice circuit with ``depth`` layers.

    The layer cycle runs two steps per dimension in dimension order: first the
    step pairing even lattice coordinates with their +1 neighbour, then the
    odd-offset step.  ``depth`` may stop anywhere inside the cycle.  Boundaries
    are open; a coordinate with no +1 neighbour simply idles.
    """
    dimension = _count(dimension, "lattice dimension")
    if len(side_lengths) != dimension:
        raise ValueError(
            f"expected {dimension} side lengths, got {len(side_lengths)}"
        )
    sides = tuple(_count(s, "side length", None) for s in side_lengths)
    depth = _count(depth, "depth", 0)
    m = math.prod(sides)
    strides = np.array([math.prod(sides[k + 1 :]) for k in range(dimension)], dtype=int)

    coords = mode_coordinates(sides)
    layers = []
    for step in range(depth):
        axis, offset = divmod(step % (2 * dimension), 2)
        on_axis = coords[:, axis]
        lo = np.flatnonzero((on_axis % 2 == offset) & (on_axis + 1 < sides[axis]))
        slots = tuple(GateSlot(int(i), int(i + strides[axis])) for i in lo)
        layers.append(Layer(slots))
    return CircuitArchitecture(
        mode_count=m,
        layers=tuple(layers),
        family="local-parallel",
        side_lengths=sides,
    )


def build_nlhs(log2_modes: int, rounds: int) -> CircuitArchitecture:
    """Non-local hypercubic circuit on 2^p modes, ``rounds`` full sweeps.

    Sweep layer D (1-based) pairs mode ``2^D*(j-1)+k-1`` with the mode a
    half-stride ``2^(D-1)`` above it, for j = 1..2^(p-D) and k = 1..2^(D-1),
    so each layer couples every mode exactly once and one sweep of p layers
    connects every input to every output through a single path.
    """
    log2_modes = _count(log2_modes, "log2 of the mode count")
    rounds = _count(rounds, "round count", 0)
    m = 1 << log2_modes
    # layer D pairs each mode whose bit D-1 is clear with the mode that sets it
    sweep = tuple(
        Layer(tuple(GateSlot(a, a | half) for a in range(m) if not a & half))
        for half in (1 << step for step in range(log2_modes))
    )
    return CircuitArchitecture(mode_count=m, layers=sweep * rounds, family="nlhs")


def realize(
    arch: CircuitArchitecture,
    rng: Union[RngStream, np.random.Generator, Sequence[Union[RngStream, np.random.Generator]]],
) -> np.ndarray:
    """Draw random instances of the architecture as M x M unitaries.

    Layers act in order with later layers multiplying on the left, and every
    slot receives an independent Haar 2x2 gate.  Each instance takes its
    uniforms in one draw, 4 per gate: layer by layer, the mixing variables of
    the layer's gates in slot order and then their phases.

    One stream or generator gives one (M, M) unitary.  A sequence of B of them
    gives a (B, M, M) stack whose slice b equals ``realize(arch, rng[b])`` bit
    for bit and leaves generator b where that call would: the row updates of
    each layer run across the whole stack.  A single draw is the B = 1 case.
    """
    single = not isinstance(rng, Sequence)
    gens = [as_generator(r) for r in ((rng,) if single else rng)]
    m = arch.mode_count
    _check_dense(len(gens) * m, m)  # the stack as one (B*M) x M array
    uniforms = np.empty((len(gens), 4 * arch.gate_count))
    for row, gen in zip(uniforms, gens):
        gen.random(out=row)
    gates = _haar_u2_batch(uniforms[:, arch._gate_uniforms])
    u = np.zeros((len(gens), m, m), dtype=complex)
    u[:, range(m), range(m)] = 1.0
    start = 0
    for a_idx, b_idx in arch._slot_arrays:
        g = gates[:, start : start + len(a_idx), :, :, None]
        start += len(a_idx)
        rows_a = u[:, a_idx]
        rows_b = u[:, b_idx]
        # gate entry times row, in this operand order: numpy's complex
        # multiply can round differently with the operands swapped
        u[:, a_idx] = g[:, :, 0, 0] * rows_a + g[:, :, 0, 1] * rows_b
        u[:, b_idx] = g[:, :, 1, 0] * rows_a + g[:, :, 1, 1] * rows_b
    return u[0] if single else u


# Bytes of the largest stack a Monte-Carlo driver draws at once: unitaries
# here, B*M^2*16, and Ginibre draws and bootstrap indices in ``stats``.
# 64 KiB holds 16 trials at M = 16.  Larger stacks ran no faster and their
# temporaries raised peak memory; see README "Performance" for the sweep.
_REALIZE_CHUNK_BYTES = 1 << 16


def _chunk_trials(trial_bytes: int) -> int:
    """Trials per chunk when each trial's draw holds ``trial_bytes``: at least one."""
    return max(1, _REALIZE_CHUNK_BYTES // trial_bytes)


def _ensemble_modes(ensemble: Union[CircuitArchitecture, int]) -> int:
    """Mode count M of a circuit, or of Haar on U(M) given as an integer M;
    anything else is refused here, before any draw."""
    if isinstance(ensemble, CircuitArchitecture):
        return ensemble.mode_count
    try:
        return _count(ensemble, "mode count")
    except TypeError:
        raise TypeError(
            f"ensemble must be a CircuitArchitecture or an integer mode count, got {ensemble!r}"
        ) from None


def _trial_chunks(
    rng: RngStream, count: int, trial_bytes: int
) -> Iterator[tuple[slice, list[np.random.Generator]]]:
    """Trials ``range(count)`` in order, as chunks ``(rows, gens)`` of at most
    ``_REALIZE_CHUNK_BYTES`` when each trial draws ``trial_bytes``.

    ``rows`` is a slice of trial indices and ``gens`` their ``rng.derive(i)``
    generators.  Every Monte-Carlo driver runs its trials here, looking up
    ``_trial_generators`` per call so that wrappers on this module see every
    trial.  Anything but an ``RngStream`` is refused before any draw.
    """
    if not isinstance(rng, RngStream):
        raise TypeError(f"trials need an RngStream, got {type(rng).__name__}")
    size = _chunk_trials(trial_bytes)
    gens = _trial_generators(rng, count)
    for start in range(0, count, size):
        yield slice(start, min(start + size, count)), list(islice(gens, size))


def _unitaries(
    ensemble: Union[CircuitArchitecture, int], gens: list[np.random.Generator]
) -> np.ndarray:
    """The (B, M, M) stack of one unitary per trial generator.

    A circuit takes one stacked ``realize``, the same unitaries as one call
    per trial, and Haar on U(M) one ``haar_unitary`` per trial, both looked up
    per call so that wrappers on this module see every draw.
    """
    if isinstance(ensemble, CircuitArchitecture):
        return realize(ensemble, gens)
    return np.array([haar_unitary(ensemble, gen) for gen in gens])


def _check_depth(arch: CircuitArchitecture, depth: int) -> int:
    depth = _count(depth, "depth", None)
    if not 0 <= depth <= arch.depth:
        raise ValueError(f"depth {depth} outside [0, {arch.depth}] for this architecture")
    return depth


def _cone_masks(arch: CircuitArchitecture, depth: int, forward: bool) -> list[int]:
    """Every mode's lightcone through the first ``depth`` layers as a bitmask, in one pass.

    Walking the layers in order merges, at each gate, the inputs that can reach
    either of its modes, which gives backward cones.  A forward cone is the
    backward cone of the mirrored circuit, so ``forward`` walks them in reverse.
    """
    masks = [1 << mode for mode in range(arch.mode_count)]
    window = arch.layers[: _check_depth(arch, depth)]
    for layer in reversed(window) if forward else window:
        for slot in layer.slots:
            masks[slot.a] = masks[slot.b] = masks[slot.a] | masks[slot.b]
    return masks


def _mask_modes(mask: int) -> list[int]:
    """The modes set in a bitmask, ascending, in one step per set bit."""
    modes = []
    while mask:
        low = mask & -mask
        modes.append(low.bit_length() - 1)
        mask ^= low
    return modes


def _lightcone(arch: CircuitArchitecture, mode: int, depth: int, forward: bool) -> frozenset[int]:
    mode = _mode_index(mode, arch.mode_count)
    return frozenset(_mask_modes(_cone_masks(arch, depth, forward)[mode]))


def forward_lightcone(arch: CircuitArchitecture, input_mode: int, depth: int) -> frozenset[int]:
    """Output modes reachable from ``input_mode`` through the first ``depth`` layers."""
    return _lightcone(arch, input_mode, depth, forward=True)


def backward_lightcone(arch: CircuitArchitecture, output_mode: int, depth: int) -> frozenset[int]:
    """Input modes that can reach ``output_mode`` through the first ``depth`` layers."""
    return _lightcone(arch, output_mode, depth, forward=False)


def path_count(arch: CircuitArchitecture, input_mode: int, output_mode: int) -> int:
    """Number of distinct gate-to-gate paths from input to output, exact integer."""
    input_mode, output_mode = (_mode_index(i, arch.mode_count) for i in (input_mode, output_mode))
    counts = [0] * arch.mode_count
    counts[input_mode] = 1
    for layer in arch.layers:
        for slot in layer.slots:
            total = counts[slot.a] + counts[slot.b]
            counts[slot.a] = total
            counts[slot.b] = total
    return counts[output_mode]


def mode_coordinates(side_lengths: Sequence[int]) -> np.ndarray:
    """Lattice coordinates of each flattened mode index, shape (M, d)."""
    sides = tuple(_count(s, "side length", None) for s in side_lengths)
    m = math.prod(sides)
    return np.stack(np.unravel_index(np.arange(m), sides), axis=1)


def _check_cone_params(lam: float, beta: float, dimension: int) -> None:
    """The lightcone exponent, leakage exponent and lattice dimension of the easy regime."""
    _check_positive(lam, "lightcone exponent")
    if not 0 < beta < 1:
        raise ValueError(f"leakage exponent must lie in (0, 1), got {beta}")
    _check_positive(dimension, "lattice dimension")


def _closed_form(what: str, formula: Callable[[], Any]) -> Any:
    """``formula()``, a float or a tuple of floats; ValueError when any of them overflows."""
    try:
        value = formula()
    except OverflowError:
        value = math.inf
    if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):
        raise ValueError(f"{what} overflows a float")
    return value


def _effective_cone(photons: int, depth: int, lam: float, beta: float, dimension: int) -> float:
    """The squared effective radius 2 n^lam * depth / (beta d), refused when it overflows."""
    photons, depth = _count(photons, "photon number"), _count(depth, "depth", 0)
    _check_cone_params(lam, beta, dimension)
    what = f"effective lightcone 2*n^lambda*depth/(beta*d) at n={photons}, lambda={lam}"
    return _closed_form(what, lambda: 2.0 * photons**lam * depth / (beta * dimension))


def effective_lightcone_radius(
    photons: int, depth: int, lam: float, beta: float, dimension: int
) -> int:
    """Smallest integer radius l with l >= sqrt(2 n^lam * depth / (beta d)).

    Outside this radius the per-mode leakage of a depth-``depth`` lattice
    circuit is small enough that truncating the unitary there perturbs output
    probabilities by at most the additive-error budget of the easy regime.
    """
    return math.ceil(math.sqrt(_effective_cone(photons, depth, lam, beta, dimension)))


def _far_mask(side_lengths: Sequence[int], radius: int, modes: Sequence[int]) -> np.ndarray:
    """Boolean (len(modes), M) mask: True where a mode of ``modes`` and another
    mode are more than ``radius`` apart in at least one lattice dimension."""
    coords = mode_coordinates(side_lengths)
    diff = np.abs(coords[np.asarray(modes, dtype=np.intp), None, :] - coords[None, :, :])
    return (diff > radius).any(axis=2)


def _lattice_matrix(u: np.ndarray, side_lengths: Sequence[int], radius: int) -> np.ndarray:
    """``u`` as an array, checked square over the lattice modes, and an integer radius >= 0."""
    u = np.asarray(u)
    m = math.prod(side_lengths)
    if u.shape != (m, m):
        raise ValueError(f"matrix shape {u.shape} does not match {m} lattice modes")
    _count(radius, "radius", 0)
    return u


def leakage_rate(
    u: np.ndarray, side_lengths: Sequence[int], input_mode: int, radius: int
) -> float:
    """Column weight of ``input_mode`` outside the box of the given radius."""
    u = _lattice_matrix(u, side_lengths, radius)
    input_mode = _mode_index(input_mode, len(u))
    far = _far_mask(side_lengths, radius, [input_mode])[0]
    return float(np.sum(np.abs(u[far, input_mode]) ** 2))


def truncate_unitary(u: np.ndarray, side_lengths: Sequence[int], radius: int) -> np.ndarray:
    """Zero every entry coupling modes farther than ``radius`` apart in some dimension.

    The result is generally not unitary; its squared Frobenius distance from
    ``u`` equals the summed leakage rates of all columns.
    """
    out = _lattice_matrix(u, side_lengths, radius).copy()
    out[_far_mask(side_lengths, radius, range(len(out)))] = 0
    return out


def arch_to_dict(arch: CircuitArchitecture) -> dict:
    """JSON-ready description: family, parameters and the explicit layer list."""
    d: dict = {
        "family": arch.family,
        "mode_count": arch.mode_count,
        "layers": [[[slot.a, slot.b] for slot in layer.slots] for layer in arch.layers],
    }
    if arch.dimension is not None:
        d["dimension"] = arch.dimension
    if arch.side_lengths is not None:
        d["side_lengths"] = list(arch.side_lengths)
    if arch.log2_modes is not None:
        d["log2_modes"] = arch.log2_modes
    if arch.rounds is not None:
        d["rounds"] = arch.rounds
    return d

