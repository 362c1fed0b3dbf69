import numpy as np
import pytest
from hypothesis import given, strategies as st

from metapix import pattern as pt
from metapix.rng import bits_to_u64, u64_to_bits


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
    assert geom.f0 == 5.8e9
    assert geom.eps_r == 3.5
    with pytest.raises(ValueError):
        pt.GeometryMeta(substrate_h=0.0)
    for value in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="eps_r must be finite and positive"):
            pt.GeometryMeta(eps_r=value)
