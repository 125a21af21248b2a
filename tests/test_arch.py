import numpy as np
import pytest

from shallowbs.arch import (
    CircuitArchitecture,
    GateSlot,
    Layer,
    backward_lightcone,
    build_local_parallel,
    build_nlhs,
    effective_lightcone_radius,
    forward_lightcone,
    leakage_rate,
    mode_coordinates,
    path_count,
    realize,
    truncate_unitary,
    _cone_masks,
)
from shallowbs.linalg import RngStream, _haar_u2_batch


def embed_two_mode(gate, mode_a, mode_b, m):
    """Embed a 2x2 gate acting on (mode_a, mode_b) into an m x m identity."""
    gate = np.asarray(gate)
    if gate.shape != (2, 2):
        raise ValueError(f"gate must be 2x2, got shape {gate.shape}")
    if mode_a == mode_b:
        raise ValueError(f"gate modes must differ, got {mode_a} twice")
    for mode in (mode_a, mode_b):
        if not 0 <= mode < m:
            raise IndexError(f"mode {mode} out of range for {m} modes")
    u = np.eye(m, dtype=complex)
    idx = np.array([mode_a, mode_b])
    u[np.ix_(idx, idx)] = gate
    return u


def frobenius_norm_sq(a):
    """Squared Frobenius norm, sum of |a_ij|^2."""
    a = np.asarray(a)
    return float(np.vdot(a, a).real)


def test_embed_two_mode_places_block():
    gate = np.array([[1, 2], [3, 4]], dtype=complex)
    u = embed_two_mode(gate, 1, 3, 5)
    expect = np.eye(5, dtype=complex)
    expect[1, 1], expect[1, 3] = 1, 2
    expect[3, 1], expect[3, 3] = 3, 4
    np.testing.assert_array_equal(u, expect)


def test_embed_two_mode_rejects_bad_modes():
    gate = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        embed_two_mode(gate, 2, 2, 5)
    with pytest.raises(IndexError):
        embed_two_mode(gate, 0, 5, 5)


def test_frobenius_norm_sq_matches_numpy():
    gen = np.random.default_rng(2)
    a = gen.normal(size=(6, 6)) + 1j * gen.normal(size=(6, 6))
    np.testing.assert_allclose(frobenius_norm_sq(a), np.linalg.norm(a) ** 2, rtol=1e-12)


def layer_pairs(arch):
    return [[(s.a, s.b) for s in layer.slots] for layer in arch.layers]


def test_brickwork_1d_four_modes():
    arch = build_local_parallel(1, [4], 2)
    assert layer_pairs(arch) == [[(0, 1), (2, 3)], [(1, 2)]]
    assert arch.depth == 2
    assert arch.gate_count == 3
    assert arch.family == "local-parallel"


def test_brickwork_1d_cycle_repeats():
    arch = build_local_parallel(1, [6], 4)
    assert layer_pairs(arch) == [
        [(0, 1), (2, 3), (4, 5)],
        [(1, 2), (3, 4)],
        [(0, 1), (2, 3), (4, 5)],
        [(1, 2), (3, 4)],
    ]


def test_brickwork_2d_with_short_axis():
    """A side of length 2 has no odd-offset gates, leaving that step empty."""
    arch = build_local_parallel(2, [2, 3], 4)
    assert (arch.dimension, arch.log2_modes, arch.rounds) == (2, None, None)
    assert layer_pairs(arch) == [
        [(0, 3), (1, 4), (2, 5)],
        [],
        [(0, 1), (3, 4)],
        [(1, 2), (4, 5)],
    ]


def test_brickwork_validation():
    with pytest.raises(ValueError):
        build_local_parallel(0, [], 1)
    with pytest.raises(ValueError):
        build_local_parallel(1, [4, 4], 1)
    with pytest.raises(ValueError):
        build_local_parallel(1, [1], 1)
    with pytest.raises(ValueError):
        build_local_parallel(1, [4], -1)
    with pytest.raises(TypeError):
        build_local_parallel(1, [8.7], 2)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CircuitArchitecture(4.0, ()), "mode count must be an integer, got 4.0"),
        (lambda: build_local_parallel(1.0, [4], 2), "lattice dimension must be an integer, got 1.0"),
        (lambda: build_local_parallel(1, [4], 2.0), "depth must be an integer, got 2.0"),
        (lambda: build_nlhs(2.0, 1), "log2 of the mode count must be an integer, got 2.0"),
        (lambda: build_nlhs(2, 1.0), "round count must be an integer, got 1.0"),
    ],
    ids=["mode-count", "dimension", "depth", "log2-modes", "rounds"],
)
def test_circuit_counts_must_be_integers(build, message):
    with pytest.raises(TypeError, match=message):
        build()


def test_circuit_counts_are_held_as_python_integers():
    arch = CircuitArchitecture(np.int64(4), (Layer((GateSlot(0, 1),)),))
    assert type(arch.mode_count) is int
    assert arch == CircuitArchitecture(4, (Layer((GateSlot(0, 1),)),))
    arch = CircuitArchitecture(4, (Layer((GateSlot(np.int64(0), np.uint8(1)),)),))
    assert [type(mode) for mode in arch.layers[0].slots[0]] == [int, int]
    assert build_nlhs(np.int8(2), np.uint8(1)) == build_nlhs(2, 1)
    assert build_local_parallel(np.int64(1), [4], np.int64(2)) == build_local_parallel(1, [4], 2)


def test_nlhs_two_qubit_layers():
    arch = build_nlhs(2, 1)
    assert layer_pairs(arch) == [[(0, 1), (2, 3)], [(0, 2), (1, 3)]]
    assert arch.family == "nlhs"
    assert arch.log2_modes == 2


def test_nlhs_three_qubit_layers_and_rounds():
    arch = build_nlhs(3, 2)
    one_round = [
        [(0, 1), (2, 3), (4, 5), (6, 7)],
        [(0, 2), (1, 3), (4, 6), (5, 7)],
        [(0, 4), (1, 5), (2, 6), (3, 7)],
    ]
    assert layer_pairs(arch) == one_round + one_round
    assert arch.rounds == 2
    assert arch.depth == 6


def test_nlhs_validation():
    with pytest.raises(ValueError):
        build_nlhs(0, 1)
    with pytest.raises(ValueError):
        build_nlhs(3, -1)
    # zero rounds is the identity circuit, allowed
    assert build_nlhs(3, 0).depth == 0


def test_architecture_rejects_bad_slots():
    with pytest.raises(ValueError):
        CircuitArchitecture(4, (Layer((GateSlot(0, 1), GateSlot(1, 2)),),))
    with pytest.raises(ValueError):
        CircuitArchitecture(4, (Layer((GateSlot(2, 2),)),))
    with pytest.raises(ValueError):
        CircuitArchitecture(4, (Layer((GateSlot(0, 4),)),))
    with pytest.raises(ValueError, match="do not fill"):
        CircuitArchitecture(4, (), family="local-parallel", side_lengths=(3,))
    with pytest.raises(ValueError, match="exactly for local-parallel"):
        CircuitArchitecture(4, (), family="local-parallel")
    with pytest.raises(ValueError, match="exactly for local-parallel"):
        CircuitArchitecture(8, (), family="nlhs", side_lengths=(2, 4))
    with pytest.raises(ValueError, match="power-of-two"):
        CircuitArchitecture(6, (), family="nlhs")
    with pytest.raises(ValueError, match="power-of-two"):
        CircuitArchitecture(1, (), family="nlhs")
    with pytest.raises(ValueError, match="family must be one of"):
        CircuitArchitecture(8, build_nlhs(3, 1).layers, family="NLHS")
    with pytest.raises(TypeError):
        CircuitArchitecture(4, (), family="local-parallel", side_lengths=(2.0, 2.0))
    with pytest.raises(ValueError, match="every side length must be at least 2"):
        CircuitArchitecture(4, (), family="local-parallel", side_lengths=(1, 4))


def test_realize_is_unitary_and_deterministic():
    arch = build_nlhs(3, 1)
    u = realize(arch, RngStream(9, 2))
    assert u.shape == (8, 8)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-12)
    np.testing.assert_array_equal(u, realize(arch, RngStream(9, 2)))
    assert not np.array_equal(u, realize(arch, RngStream(9, 3)))
    for bad in (5, [RngStream(9, 2), 5]):
        with pytest.raises(TypeError, match="expected RngStream or numpy Generator, got int"):
            realize(arch, bad)


def test_realize_respects_lightcone_zeros():
    # depth 2 on a 4-site chain cannot connect the end modes
    arch = build_local_parallel(1, [4], 2)
    for i in range(10):
        u = realize(arch, RngStream(21, i))
        assert u[3, 0] == 0
        assert u[0, 3] == 0


def test_realize_single_layer_block_structure():
    arch = build_local_parallel(1, [4], 1)
    u = realize(arch, RngStream(2, 0))
    np.testing.assert_array_equal(u[0:2, 2:4], np.zeros((2, 2)))
    np.testing.assert_array_equal(u[2:4, 0:2], np.zeros((2, 2)))


def test_realize_matches_product_of_embedded_gates():
    """Redraw each layer's gates from the same stream and multiply them as full matrices."""
    for arch in (build_local_parallel(2, [2, 3], 4), build_nlhs(3, 2)):
        m = arch.mode_count
        gen = RngStream(5, 1).generator()
        expect = np.eye(m, dtype=complex)
        for layer in arch.layers:
            if not layer.slots:
                continue
            gates = _haar_u2_batch(gen.random((4, len(layer.slots))))
            for gate, slot in zip(gates, layer.slots):
                expect = embed_two_mode(gate, slot.a, slot.b, m) @ expect
        np.testing.assert_allclose(realize(arch, RngStream(5, 1)), expect, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "arch",
    [
        build_nlhs(4, 1),
        build_nlhs(4, 2),
        build_local_parallel(2, [4, 4], 6),
        build_nlhs(6, 1),
        CircuitArchitecture(
            5, (Layer((GateSlot(0, 3),)), Layer(()), Layer((GateSlot(1, 2), GateSlot(3, 4))))
        ),
        build_nlhs(3, 0),
    ],
    ids=["nlhs41", "nlhs42", "lattice4x4d6", "nlhs61", "empty-layer", "depth0"],
)
@pytest.mark.parametrize("batch", [1, 7, 256])
def test_realize_stack_matches_per_trial_draws(arch, batch):
    """Slice b of a stacked draw is the single draw from generator b, byte for byte,
    and every generator is left where the single draw leaves it."""
    rng = RngStream(41, batch)
    gens = [rng.derive(b).generator() for b in range(batch)]
    stack = realize(arch, gens)
    assert stack.shape == (batch, arch.mode_count, arch.mode_count)
    for b, gen in enumerate(gens):
        alone = rng.derive(b).generator()
        assert realize(arch, alone).tobytes() == stack[b].tobytes()
        assert gen.random(3).tobytes() == alone.random(3).tobytes()
    streams = [rng.derive(b) for b in range(batch)]
    assert realize(arch, streams).tobytes() == stack.tobytes()


def test_lightcone_frozen_chain():
    arch = build_local_parallel(1, [8], 3)
    assert forward_lightcone(arch, 0, 0) == {0}
    assert forward_lightcone(arch, 0, 1) == {0, 1}
    assert forward_lightcone(arch, 0, 2) == {0, 1, 2}
    assert forward_lightcone(arch, 0, 3) == {0, 1, 2, 3}
    assert backward_lightcone(arch, 4, 1) == {4, 5}
    assert backward_lightcone(arch, 4, 2) == {2, 3, 4, 5}


def test_lightcone_duality():
    """j in forward(i) exactly when i in backward(j), any depth."""
    arch = build_local_parallel(2, [2, 3], 4)
    for depth in range(arch.depth + 1):
        fwd = [forward_lightcone(arch, i, depth) for i in range(6)]
        back = [backward_lightcone(arch, j, depth) for j in range(6)]
        for i in range(6):
            for j in range(6):
                assert (j in fwd[i]) == (i in back[j])


def test_lightcones_match_path_counts():
    """o in forward(i) exactly when a path runs from i to o through the first
    depth layers, exactly when i in backward(o)."""
    archs = (build_local_parallel(2, [3, 4], 3), build_local_parallel(1, [6], 4), build_nlhs(3, 2))
    for arch in archs:
        m = arch.mode_count
        for depth in range(arch.depth + 1):
            prefix = CircuitArchitecture(m, arch.layers[:depth])
            back = [backward_lightcone(arch, o, depth) for o in range(m)]
            for i in range(m):
                fwd = forward_lightcone(arch, i, depth)
                for o in range(m):
                    assert (o in fwd) == (path_count(prefix, i, o) > 0) == (i in back[o])
    for forward in (True, False):
        with pytest.raises(ValueError):
            _cone_masks(arch, arch.depth + 1, forward)


def test_lightcone_bounds_checks():
    arch = build_local_parallel(1, [4], 2)
    with pytest.raises(IndexError):
        forward_lightcone(arch, 4, 1)
    with pytest.raises(ValueError):
        forward_lightcone(arch, 0, 3)


def test_nlhs_full_connectivity_after_one_round():
    for p in (2, 3, 4):
        arch = build_nlhs(p, 1)
        m = 1 << p
        for i in range(m):
            assert forward_lightcone(arch, i, arch.depth) == set(range(m))


def count_paths_by_enumeration(arch, start, end):
    # walk layer by layer, branching at every gate that touches the mode
    def walk(mode, layer_index):
        if layer_index == len(arch.layers):
            return 1 if mode == end else 0
        total = 0
        crossed = False
        for slot in arch.layers[layer_index].slots:
            if mode in (slot.a, slot.b):
                other = slot.b if mode == slot.a else slot.a
                total += walk(mode, layer_index + 1)
                total += walk(other, layer_index + 1)
                crossed = True
                break
        if not crossed:
            total = walk(mode, layer_index + 1)
        return total

    return walk(start, 0)


def test_path_count_matches_enumeration():
    for arch in (build_nlhs(2, 2), build_local_parallel(1, [6], 4)):
        for i in range(arch.mode_count):
            for j in range(arch.mode_count):
                assert path_count(arch, i, j) == count_paths_by_enumeration(arch, i, j)


def test_path_count_stacked_rounds():
    m = 8
    for rounds, expect in ((1, 1), (2, m), (3, m * m)):
        arch = build_nlhs(3, rounds)
        assert path_count(arch, 0, 0) == expect


def test_mode_coordinates_row_major():
    coords = mode_coordinates([2, 3])
    np.testing.assert_array_equal(
        coords, [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]]
    )
    with pytest.raises(TypeError):
        mode_coordinates([2.9, 2])


def test_effective_lightcone_radius_values():
    assert effective_lightcone_radius(16, 8, 0.5, 0.5, 1) == 12
    assert effective_lightcone_radius(1, 0, 0.5, 0.5, 1) == 0
    # radius grows with depth and shrinks with dimension
    assert effective_lightcone_radius(16, 16, 0.5, 0.5, 1) > 12
    assert effective_lightcone_radius(16, 8, 0.5, 0.5, 2) < 12


def test_effective_lightcone_radius_domain():
    with pytest.raises(ValueError):
        effective_lightcone_radius(16, 8, 0.5, 0.0, 1)
    with pytest.raises(ValueError):
        effective_lightcone_radius(16, 8, 0.5, 1.0, 1)
    with pytest.raises(ValueError):
        effective_lightcone_radius(16, 8, -0.1, 0.5, 1)
    with pytest.raises(ValueError, match="overflows a float"):
        effective_lightcone_radius(3, 2, 1000.0, 0.5, 1)


def test_leakage_zero_radius_is_offdiagonal_weight():
    arch = build_local_parallel(1, [8], 2)
    u = realize(arch, RngStream(3, 1))
    for i in range(8):
        expect = 1.0 - abs(u[i, i]) ** 2
        np.testing.assert_allclose(leakage_rate(u, [8], i, 0), expect, atol=1e-12)


def test_leakage_sum_equals_truncation_error():
    """Total leakage is exactly the squared Frobenius truncation error."""
    arch = build_local_parallel(2, [3, 4], 5)
    u = realize(arch, RngStream(8, 0))
    for radius in (0, 1, 2):
        trunc = truncate_unitary(u, [3, 4], radius)
        total = sum(leakage_rate(u, [3, 4], i, radius) for i in range(12))
        np.testing.assert_allclose(
            total, frobenius_norm_sq(u - trunc), rtol=1e-12, atol=1e-15
        )


def test_truncate_keeps_near_entries():
    arch = build_local_parallel(1, [8], 2)
    u = realize(arch, RngStream(8, 1))
    trunc = truncate_unitary(u, [8], 2)
    for j in range(8):
        for i in range(8):
            if abs(i - j) <= 2:
                assert trunc[i, j] == u[i, j]
            else:
                assert trunc[i, j] == 0
