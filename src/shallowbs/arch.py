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
from operator import index
from typing import Any, Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .linalg import RngStream, _check_dense, _haar_u2_batch, as_generator, haar_unitary

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
            sides = tuple(index(s) for s in self.side_lengths)
            if any(s < 2 for s in sides):
                raise ValueError(f"every side length must be at least 2, got {sides}")
            object.__setattr__(self, "side_lengths", sides)
        _check_positive(self.mode_count, "mode count")
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
        # per-layer index arrays, precomputed once for the realization hot path
        a_arrays = tuple(
            np.array([s.a for s in layer.slots], dtype=np.intp) for layer in self.layers
        )
        b_arrays = tuple(
            np.array([s.b for s in layer.slots], dtype=np.intp) for layer in self.layers
        )
        object.__setattr__(self, "_a_arrays", a_arrays)
        object.__setattr__(self, "_b_arrays", b_arrays)

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
    _check_positive(dimension, "lattice dimension")
    if len(side_lengths) != dimension:
        raise ValueError(
            f"expected {dimension} side lengths, got {len(side_lengths)}"
        )
    sides = tuple(index(s) for s in side_lengths)
    if depth < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")
    m = math.prod(sides)
    strides = np.array([math.prod(sides[k + 1 :]) for k in range(dimension)], dtype=int)

    coords = mode_coordinates(sides)
    layers = []
    for step in range(depth):
        axis, offset = divmod(step % (2 * dimension), 2)
        on_axis = coords[:, axis]
        lo = np.flatnonzero((on_axis % 2 == offset) & (on_axis + 1 < sides[axis]))
        slots = tuple(
            GateSlot(int(i), int(i + strides[axis])) for i in np.sort(lo)
        )
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
    _check_positive(log2_modes, "log2 of the mode count")
    if rounds < 0:
        raise ValueError(f"round count must be non-negative, got {rounds}")
    m = 1 << log2_modes
    # layer D pairs each mode whose bit D-1 is clear with the mode that sets it
    sweep = tuple(
        Layer(tuple(GateSlot(a, a | half) for a in range(m) if not a & half))
        for half in (1 << step for step in range(log2_modes))
    )
    return CircuitArchitecture(mode_count=m, layers=sweep * rounds, family="nlhs")


def realize(
    arch: CircuitArchitecture, rng: Union[RngStream, np.random.Generator]
) -> np.ndarray:
    """Draw one random instance of the architecture as an M x M unitary.

    Layers act in order with later layers multiplying on the left, and every
    slot receives an independent Haar 2x2 gate.  Gates of one layer are drawn
    as a single batch, in slot order.
    """
    gen = as_generator(rng)
    m = arch.mode_count
    _check_dense(m, m)
    u = np.eye(m, dtype=complex)
    for a_idx, b_idx in zip(arch._a_arrays, arch._b_arrays):  # type: ignore[attr-defined]
        k = len(a_idx)
        if k == 0:
            continue
        g = _haar_u2_batch(gen, k)
        rows_a = u[a_idx]
        rows_b = u[b_idx]
        u[a_idx] = g[:, 0, 0, None] * rows_a + g[:, 0, 1, None] * rows_b
        u[b_idx] = g[:, 1, 0, None] * rows_a + g[:, 1, 1, None] * rows_b
    return u


def _unitary_sampler(
    ensemble: Union[CircuitArchitecture, int]
) -> tuple[int, Callable[[np.random.Generator], np.ndarray]]:
    """Mode count M of an ensemble, and a draw of one unitary from a generator.

    A circuit is drawn with ``realize``; an integer M means Haar on U(M).  Both
    are looked up when a draw is made, so wrappers installed on this module see
    every draw.  Anything else is refused here, before any draw.
    """
    if isinstance(ensemble, CircuitArchitecture):
        return ensemble.mode_count, lambda gen: realize(ensemble, gen)
    try:
        m = index(ensemble)
    except TypeError:
        raise TypeError(
            f"ensemble must be a CircuitArchitecture or an integer mode count, got {ensemble!r}"
        ) from None
    _check_positive(m, "mode count")
    return m, lambda gen: haar_unitary(m, gen)


def _check_depth(arch: CircuitArchitecture, depth: int) -> None:
    if not 0 <= depth <= arch.depth:
        raise ValueError(f"depth {depth} outside [0, {arch.depth}] for this architecture")


def _cone_masks(arch: CircuitArchitecture, depth: int, forward: bool) -> list[int]:
    """Every mode's lightcone through the first ``depth`` layers as a bitmask, in one pass.

    Walking the layers in order merges, at each gate, the inputs that can reach
    either of its modes, which gives backward cones.  A forward cone is the
    backward cone of the mirrored circuit, so ``forward`` walks them in reverse.
    """
    _check_depth(arch, depth)
    masks = [1 << mode for mode in range(arch.mode_count)]
    window = arch.layers[:depth]
    for layer in reversed(window) if forward else window:
        for slot in layer.slots:
            masks[slot.a] = masks[slot.b] = masks[slot.a] | masks[slot.b]
    return masks


def _mask_modes(mask: int) -> list[int]:
    """The modes set in a bitmask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _lightcone(arch: CircuitArchitecture, mode: int, depth: int, forward: bool) -> frozenset[int]:
    if not 0 <= mode < arch.mode_count:
        raise IndexError(f"mode {mode} out of range for {arch.mode_count} modes")
    return frozenset(_mask_modes(_cone_masks(arch, depth, forward)[mode]))


def forward_lightcone(arch: CircuitArchitecture, input_mode: int, depth: int) -> frozenset[int]:
    """Output modes reachable from ``input_mode`` through the first ``depth`` layers."""
    return _lightcone(arch, input_mode, depth, forward=True)


def backward_lightcone(arch: CircuitArchitecture, output_mode: int, depth: int) -> frozenset[int]:
    """Input modes that can reach ``output_mode`` through the first ``depth`` layers."""
    return _lightcone(arch, output_mode, depth, forward=False)


def path_count(arch: CircuitArchitecture, input_mode: int, output_mode: int) -> int:
    """Number of distinct gate-to-gate paths from input to output, exact integer."""
    for mode in (input_mode, output_mode):
        if not 0 <= mode < arch.mode_count:
            raise IndexError(f"mode {mode} out of range for {arch.mode_count} modes")
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
    sides = tuple(index(s) for s in side_lengths)
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
    _check_positive(photons, "photon number")
    if depth < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")
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
    """``u`` as an array, checked square over the lattice modes, with a non-negative radius."""
    u = np.asarray(u)
    m = math.prod(side_lengths)
    if u.shape != (m, m):
        raise ValueError(f"matrix shape {u.shape} does not match {m} lattice modes")
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    return u


def leakage_rate(
    u: np.ndarray, side_lengths: Sequence[int], input_mode: int, radius: int
) -> float:
    """Column weight of ``input_mode`` outside the box of the given radius."""
    u = _lattice_matrix(u, side_lengths, radius)
    if not 0 <= input_mode < len(u):
        raise IndexError(f"mode {input_mode} out of range for {len(u)} modes")
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

