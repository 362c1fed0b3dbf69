import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from metapix import pattern as pt
from metapix.oracle import features_batch
from metapix.rng import bits_to_u64, stream_u64, u64_to_bits


def test_expand_single_bit_mirrors_four_ways():
    g = pt.unpack_genome("8000000000000000")
    assert g[0, 0] and g.sum() == 1
    grid = pt.expand_genome(g)
    assert grid.shape == (16, 16)
    hits = {(0, 0), (0, 15), (15, 0), (15, 15)}
    assert {tuple(rc) for rc in np.argwhere(grid)} == hits
    assert grid.sum() == 4 * g.sum()


def test_expand_is_always_mirror_symmetric():
    rng = np.random.default_rng(8)
    for _ in range(50):
        grid = pt.expand_genome(rng.integers(0, 2, 64))
        assert pt.is_mirror_symmetric(grid)
    batch = rng.integers(0, 2, (5, 64))
    for bits in (batch, batch.reshape(5, 8, 8)):
        grids = pt.expand_genome(bits)
        assert grids.shape == (5, 16, 16)
        for grid, one in zip(grids, batch):
            np.testing.assert_array_equal(grid, pt.expand_genome(one.reshape(8, 8)))
            assert pt.is_mirror_symmetric(grid)
    with pytest.raises(ValueError):
        pt.expand_genome(np.zeros((5, 63)))
    asym = np.zeros((16, 16), dtype=bool)
    asym[0, 0] = True
    assert not pt.is_mirror_symmetric(asym)
    grids = pt.expand_genome(batch)
    assert pt.is_mirror_symmetric(grids)
    for other in ((0, 15), (15, 0)):  # one of the two mirrors holds, the other not
        broken = grids.copy()
        broken[3, 0, 0] = broken[3][other] = not grids[3, 0, 0]
        assert not pt.is_mirror_symmetric(broken)


def _concat_expand(bits):
    """The mirror as two concatenations over reversed strides, kept as the
    reference for expand_genome's word-wide one."""
    arr = np.asarray(bits)
    if arr.ndim in (1, 2) and arr.shape[-1] == 64:
        arr = arr.reshape(arr.shape[:-1] + (8, 8))
    g = arr.astype(bool)
    top = np.concatenate([g, g[..., ::-1]], axis=-1)
    return np.concatenate([top, top[..., ::-1, :]], axis=-2)


@pytest.mark.parametrize("dtype", [np.uint8, np.int64, bool])
@pytest.mark.parametrize("n", [0, 1, 7, 1024])
def test_expand_equals_the_concatenated_mirror(n, dtype):
    """Every genome shape, batch size (none included) and dtype, and a
    non-contiguous batch, give the reference's shape, dtype and bytes."""
    bits = u64_to_bits(stream_u64(n + 3, 0, n)).astype(dtype)
    cases = [bits, bits.reshape(n, 8, 8), bits[:, ::-1], bits.reshape(n, 8, 8).transpose(0, 2, 1)]
    if n:
        cases += [bits[0], bits[0].reshape(8, 8), bits[-1, ::-1]]
    for case in cases:
        got, want = pt.expand_genome(case), _concat_expand(case)
        assert got.shape == want.shape and got.dtype == want.dtype == bool
        assert got.tobytes() == want.tobytes()
        assert pt.is_mirror_symmetric(got)


def test_expand_takes_any_nonzero_cell_as_metal():
    bits = np.zeros((2, 64), dtype=np.int64)
    bits[0, 5], bits[1, 63] = 7, -1
    np.testing.assert_array_equal(pt.expand_genome(bits), _concat_expand(bits))
    assert pt.expand_genome(bits).sum() == 8


def test_one_flipped_cell_breaks_the_symmetry():
    """Flipping any one of the 256 cells of a mirrored grid breaks its
    symmetry and makes features_batch refuse it; flipping the cell's whole
    mirror quadruple keeps it."""
    grid = pt.expand_genome(pt.unpack_genome("15780B2E0C2EC716"))
    for r in range(16):
        for c in range(16):
            broken = grid.copy()
            broken[r, c] ^= True
            assert not pt.is_mirror_symmetric(broken), (r, c)
            assert not pt.is_mirror_symmetric(np.stack([grid, broken])), (r, c)
            with pytest.raises(ValueError, match="four-fold mirror symmetry"):
                features_batch(broken)
            quad = (np.array([r, r, 15 - r, 15 - r]), np.array([c, 15 - c, c, 15 - c]))
            broken[quad] = not grid[r, c]
            assert pt.is_mirror_symmetric(broken), (r, c)
            features_batch(broken)


def test_symmetry_check_refuses_other_shapes():
    for shape in ((16,), (8, 8), (16, 15), (2, 15, 16)):
        with pytest.raises(ValueError, match="16, 16"):
            pt.is_mirror_symmetric(np.zeros(shape, dtype=bool))


def test_pack_is_canonical_hex():
    word = 0x15780B2E0C2EC716
    assert pt.pack_genome(word) == "15780B2E0C2EC716"
    assert pt.pack_genome(np.uint64(word)) == "15780B2E0C2EC716"
    assert pt.pack_genome(0) == "0000000000000000"
    g = pt.unpack_genome("15780b2e0c2ec716")
    assert g.shape == (8, 8) and g.dtype == bool
    np.testing.assert_array_equal(g, pt.unpack_genome("15780B2E0C2EC716"))
    np.testing.assert_array_equal(g.reshape(-1), u64_to_bits(np.array([word], dtype=np.uint64))[0])


@given(st.integers(0, (1 << 64) - 1))
def test_hex_round_trip(word):
    g = pt.unpack_genome(pt.pack_genome(word))
    assert int(bits_to_u64(g.reshape(1, 64))[0]) == word


def test_unpack_rejects_malformed():
    for bad in ("", "123", "15780B2E0C2EC71", "15780B2E0C2EC7160", "15780B2E0C2EC71G",
                "0x003FC000E00000", "0000_3FC0_00E000", "+15780B2E0C2EC71"):
        with pytest.raises(ValueError):
            pt.unpack_genome(bad)
    with pytest.raises(ValueError):
        pt.pack_genome(1 << 64)
    with pytest.raises(ValueError):
        pt.pack_genome(-1)


def test_row_major_bit_order():
    """Bit k of the packed word is genome cell (k // 8, k % 8), MSB first."""
    g = np.zeros((1, 64), dtype=np.uint8)
    g[0, 10] = 1  # row 1, col 2
    word = int(bits_to_u64(g)[0])
    assert word == 1 << (63 - 10)
    back = pt.unpack_genome(pt.pack_genome(word))
    assert back[1, 2] and back.sum() == 1


def test_render_pbm():
    g = pt.unpack_genome("8000000000000000")
    text = pt.render_pbm(pt.expand_genome(g))
    lines = text.splitlines()
    assert lines[0] == "P1"
    assert lines[1] == "16 16"
    assert len(lines) == 18
    assert lines[2] == "1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1"
    assert lines[3] == "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0"
    assert lines[17] == "1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1"
    assert text.endswith("\n")
    assert pt.render_pbm(np.eye(3, 2, dtype=np.uint8)) == "P1\n2 3\n1 0\n0 1\n0 0\n"
    with pytest.raises(ValueError):
        pt.render_pbm(np.zeros(16))


def test_metal_count_is_four_times_popcount():
    rng = np.random.default_rng(9)
    for _ in range(20):
        bits = rng.integers(0, 2, 64)
        assert pt.expand_genome(bits).sum() == 4 * bits.sum()


def test_geometry_defaults_and_validation():
    geom = pt.GeometryMeta()
    assert dataclasses.asdict(geom) == {"substrate_h": 1.52e-3, "eps_r": 3.5}
    with pytest.raises(ValueError):
        pt.GeometryMeta(substrate_h=0.0)
    for value in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="eps_r must be finite and positive"):
            pt.GeometryMeta(eps_r=value)
