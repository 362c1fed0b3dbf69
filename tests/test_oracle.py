import cmath
import math
import tracemalloc

import numpy as np
import pytest

from metapix import oracle as oc
from metapix.pattern import GeometryMeta, expand_genome, unpack_genome
from metapix.rng import CounterRng, bits_to_u64, stream_u64, u64_to_bits

ETA = 377.0
C0 = 299_792_458.0


def _hand_s22(feat, f, consts=None, geom=None):
    """Scalar reimplementation of the cascade, kept deliberately independent
    of the vectorized production path (plain cmath, no numpy)."""
    consts = consts or oc.OracleConstants()
    geom = geom or GeometryMeta()
    rho, v_conn, e_h, e_v, rho_center, q_cb = feat
    w = 2 * math.pi * f
    c_gap = consts.c_gap0 + consts.c_gap1 * (1.0 - rho_center)
    z_series = 1j * w * consts.l_lead + 1.0 / (1j * w * c_gap)
    z1 = 1j * w * (consts.l_a + consts.l_b * (1.0 - v_conn)) + 1.0 / (
        1j * w * (consts.c_a + consts.c_b * rho + consts.c_c * e_h)
    )
    z2 = 1j * w * consts.l2_0 * (1.0 + q_cb) + 1.0 / (1j * w * consts.c2_0 * (1.0 + e_v))
    y_stub = 1.0 / (
        1j * (ETA / math.sqrt(geom.eps_r)) * math.tan(2 * math.pi * f * math.sqrt(geom.eps_r) * geom.substrate_h / C0)
    )
    y = 1.0 / z1 + 1.0 / z2 + y_stub + 1.0 / ETA
    z_in = z_series + 1.0 / y
    return (z_in - ETA) / (z_in + ETA)


def _complex_kernel(feats, freqs, consts=None, geom=None):
    """The cascade of the module docstring in complex128 numpy on (n, 6)
    feature rows x (m,) frequencies, with the circuit's limit
    (z_series - eta)/(z_series + eta) where a branch or the stub is exactly 0
    and shorts the shunt; kept as the independent reference for the kernel's
    real-reactance arithmetic, which must give the same bits."""
    consts = consts or oc.OracleConstants()
    geom = geom or GeometryMeta()
    rho, v_conn, e_h, e_v, rho_center, q_cb = (feats[:, k:k + 1] for k in range(6))
    w = 2.0 * math.pi * freqs
    jw = 1j * w
    c_gap = consts.c_gap0 + consts.c_gap1 * (1.0 - rho_center)
    z_series = jw * consts.l_lead + 1.0 / (jw * c_gap)
    zb1 = jw * (consts.l_a + consts.l_b * (1.0 - v_conn)) + 1.0 / (
        jw * (consts.c_a + consts.c_b * rho + consts.c_c * e_h))
    zb2 = jw * (consts.l2_0 * (1.0 + q_cb)) + 1.0 / (jw * (consts.c2_0 * (1.0 + e_v)))
    eta_s = ETA / math.sqrt(geom.eps_r)
    z_stub = 1j * eta_s * np.tan(w * math.sqrt(geom.eps_r) * geom.substrate_h / C0)
    shorted = (zb1 == 0) | (zb2 == 0) | (z_stub == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        z_in = z_series + 1.0 / (1.0 / zb1 + 1.0 / zb2 + 1.0 / z_stub + 1.0 / ETA)
        s22 = (z_in - ETA) / (z_in + ETA)
    return np.where(shorted, (z_series - ETA) / (z_series + ETA), s22)


# constants that put a branch resonance of the all-zero feature row exactly
# on grid row 30 (5.8 GHz), the others left at their defaults: this c_a makes
# its X1 0.0 there, this c2_0 its X2, and both together both
_X1_ZERO = {"c_a": 3.13742269998321e-13}
_X2_ZERO = {"c2_0": 1.5059628959919406e-12}
_RESONANT = tuple(oc.OracleConstants(**kw) for kw in (_X1_ZERO, _X2_ZERO, _X1_ZERO | _X2_ZERO))


def _zero_row_reactances(consts):
    """X_series, X1 and X2 = w*L - 1/(w*C) of the all-zero feature row at grid
    row 30."""
    w = 2.0 * math.pi * oc.freq_grid()[30]
    x_series = w * consts.l_lead - 1.0 / (w * (consts.c_gap0 + consts.c_gap1 * (1.0 - 0.0)))
    x1 = w * (consts.l_a + consts.l_b * (1.0 - 0.0)) - 1.0 / (
        w * (consts.c_a + consts.c_b * 0.0 + consts.c_c * 0.0))
    x2 = w * (consts.l2_0 * (1.0 + 0.0)) - 1.0 / (w * (consts.c2_0 * (1.0 + 0.0)))
    return float(x_series), float(x1), float(x2)


def _grid_features(grids):
    """Float scan of the full 16x16 grids, kept deliberately independent of
    the quadrant counts features_batch converts; takes grids of any symmetry."""
    g = np.asarray(grids).astype(bool).reshape(-1, 16, 16)
    rho = g.mean(axis=(1, 2))
    run = np.zeros((len(g), 16))
    best = np.zeros((len(g), 16))
    for r in range(16):
        run = (run + 1.0) * g[:, r, :]
        best = np.maximum(best, run)
    v_conn = best.mean(axis=1) / 16
    e_h = (g[:, :, 1:] != g[:, :, :-1]).mean(axis=(1, 2))
    e_v = (g[:, 1:, :] != g[:, :-1, :]).mean(axis=(1, 2))
    center = g[:, 4:12, 4:12].mean(axis=(1, 2))
    border = (rho * 256 - center * 64.0) / (256 - 64.0)
    q_cb = np.abs(center - border)
    return np.stack([rho, v_conn, e_h, e_v, center, q_cb], axis=1)


def _scan_counts(bits):
    """The five quadrant counts of word_codes by an integer scan of the
    (k, 64) bits as 8x8 quadrants, kept independent of the word popcounts."""
    q = np.asarray(bits).astype(bool).reshape(-1, 8, 8)
    run = np.zeros((len(q), 8), dtype=np.int64)
    best = np.zeros_like(run)
    for r in range(8):
        run = (run + 1) * q[:, r, :]
        best = np.maximum(best, run)
    n = q.sum(axis=(1, 2))
    s = np.maximum(best, 2 * run).sum(axis=1)
    h = (q[:, :, 1:] != q[:, :, :-1]).sum(axis=(1, 2))
    v = (q[:, 1:, :] != q[:, :-1, :]).sum(axis=(1, 2))
    c = q[:, 4:, 4:].sum(axis=(1, 2))
    return n, s, h, v, c


# edge words: empty, full, single corner bits, stripes, diagonals, the netcalc
# test genome, and two genomes that share every feature
_EDGE_WORDS = np.array([0, 2**64 - 1, 1 << 63, 1, 0xFF00FF00FF00FF00, 0x00FF00FF00FF00FF,
                        0x8040201008040201, 0x0102040810204080, 0x00003FC000E00000,
                        0x033011D280E05D12, 0x2278711904689003], dtype=np.uint64)
# checkerboards, and every single column and single row of the quadrant
_LINE_WORDS = np.array([0xAAAAAAAAAAAAAAAA, 0x5555555555555555]
                       + [0x8080808080808080 >> c for c in range(8)]
                       + [0xFF << 8 * r for r in range(8)], dtype=np.uint64)


def _grids(seed, n):
    return expand_genome(u64_to_bits(stream_u64(seed, 0, n)))


def _features(grid):
    return dict(zip(oc.FEATURE_NAMES, oc.code_features(oc.features_batch(grid))[0].tolist()))


# --- features ----------------------------------------------------------------


def test_features_of_uniform_grids():
    assert oc.code_features(oc.features_batch(np.zeros((16, 16), bool)))[0].tolist() == [0.0] * 6
    ones = _features(np.ones((16, 16), bool))
    assert ones["rho"] == 1.0
    assert ones["v_conn"] == 1.0
    assert ones["e_h"] == 0.0 and ones["e_v"] == 0.0
    assert ones["rho_center"] == 1.0
    assert ones["q_cb"] == 0.0


def test_features_of_checkerboard():
    """The board lacks the four-fold symmetry, so only the grid scan takes it."""
    r, c = np.indices((16, 16))
    board = (r + c) % 2 == 0
    f = dict(zip(oc.FEATURE_NAMES, _grid_features(board)[0].tolist()))
    with pytest.raises(ValueError, match="symmetry"):
        oc.features_batch(board)
    assert f["rho"] == 0.5
    assert f["e_h"] == 1.0 and f["e_v"] == 1.0
    assert f["v_conn"] == 1.0 / 16.0  # longest vertical run is a single cell
    assert f["rho_center"] == 0.5
    assert f["q_cb"] == 0.0


def test_features_frozen_example():
    grid = expand_genome(unpack_genome("15780B2E0C2EC716"))
    np.testing.assert_allclose(
        oc.code_features(oc.features_batch(grid))[0],
        [0.4375, 0.2109375, 0.43333333333333335, 0.43333333333333335, 0.625, 0.25],
        rtol=0,
        atol=0,
    )


def test_features_match_the_grid_scan():
    """The six floats converted from the quadrant counts have the bits of the
    full-grid float scan, on random words and on edge words."""
    words = np.concatenate([CounterRng(3).u64(200_000), _EDGE_WORDS])
    grids = expand_genome(u64_to_bits(words))
    got = oc.code_features(oc.features_batch(grids)).view(np.uint64)
    np.testing.assert_array_equal(got, _grid_features(grids).view(np.uint64))


def test_popcounts_equal_the_quadrant_scan():
    """The five counts taken with popcounts on genome words equal an integer
    scan of the 8x8 quadrant, on random words and on edge words."""
    words = np.concatenate([CounterRng(5).u64(200_000), _EDGE_WORDS, _LINE_WORDS])
    got = oc._quadrant_counts(words)
    want = _scan_counts(u64_to_bits(words))
    for name, a, b in zip("nshvc", got, want):
        assert a.dtype == np.int64, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    # a full column: n = 8, and s = max(longest run 8, 2 x 8 ending at row 7)
    cols = oc.word_codes(_LINE_WORDS[2:10])
    assert (cols & 0x7F).tolist() == [8] * 8 and (cols >> 7 & 0x1FF).tolist() == [16] * 8


def test_features_batch_matches_scalar():
    grids = _grids(17, 64)
    batch = oc.features_batch(grids)
    for k in (0, 13, 63):
        np.testing.assert_array_equal(batch[k], oc.features_batch(grids[k])[0])


def test_features_rejects_bad_shapes():
    with pytest.raises(ValueError):
        oc.features_batch(np.zeros((8, 8)))
    with pytest.raises(ValueError):
        oc.features_batch(np.zeros((2, 16, 15)))


def test_features_batch_gives_the_word_codes():
    """features_batch of mirrored grids gives the word_codes of their genome
    words, one (16, 16) grid at a time and as a batch, on edge, line and
    random words, and response_batch of the grids has the bytes of the
    kernel fed those codes."""
    words = np.concatenate([_EDGE_WORDS, _LINE_WORDS, CounterRng(34).u64(10_000)])
    grids = expand_genome(u64_to_bits(words))
    codes = oc.word_codes(words)
    got = oc.features_batch(grids)
    assert got.dtype == np.int64 and got.shape == (len(words),)
    np.testing.assert_array_equal(got, codes)
    for k, grid in enumerate(grids):
        assert oc.features_batch(grid).tolist() == [codes[k]]
    assert oc.response_batch(grids).tobytes() == oc.features_response_batch(codes).tobytes()


def test_equal_features_give_bit_equal_responses():
    """The response depends on a grid only through its six features.  These
    two genomes differ in 30 bits yet collide on every feature, so their
    responses must agree to the last bit."""
    ga = expand_genome(unpack_genome("A3E4A1CE03A73526"))
    gb = expand_genome(unpack_genome("8C1F28B6939E844D"))
    assert not np.array_equal(ga, gb)
    np.testing.assert_array_equal(oc.features_batch(ga), oc.features_batch(gb))
    ra = oc.response_batch(ga)[0]
    rb = oc.response_batch(gb)[0]
    np.testing.assert_array_equal(ra.view(np.float64), rb.view(np.float64))


# --- response ----------------------------------------------------------------


def test_frequency_grid():
    f = oc.freq_grid()
    assert len(f) == oc.N_FREQ == 61
    assert f[0] == 2.8e9
    assert f[-1] == 8.8e9
    np.testing.assert_allclose(np.diff(f), 0.1e9)


def test_response_matches_hand_cascade_zeros():
    resp = oc.response_batch(np.zeros((16, 16), bool))[0]
    for k, f, expect in (
        (0, 2.8e9, -0.44390618710196433 - 0.8814203997833207j),
        (30, 5.8e9, -0.8636211947046073 - 0.1439481990442973j),
        (60, 8.8e9, -0.21713994673706138 + 0.2178555366072246j),
    ):
        assert oc.freq_grid()[k] == f
        np.testing.assert_allclose(resp[k], expect, atol=1e-15)
        np.testing.assert_allclose(_hand_s22((0, 0, 0, 0, 0, 0), f), expect, atol=1e-15)


def test_response_matches_hand_cascade_everywhere():
    grid = expand_genome(unpack_genome("15780B2E0C2EC716"))
    feat = tuple(oc.code_features(oc.features_batch(grid))[0])
    resp = oc.response_batch(grid)[0]
    for k, f in enumerate(oc.freq_grid()):
        np.testing.assert_allclose(resp[k], _hand_s22(feat, f), atol=1e-12)


def test_response_frozen_values():
    resp = oc.response_batch(expand_genome(unpack_genome("15780B2E0C2EC716")))[0]
    np.testing.assert_allclose(resp[0], 0.16485526292445687 - 0.9765614082360845j, atol=1e-15)
    np.testing.assert_allclose(resp[30], 0.12002203652641277 - 0.3414082210307481j, atol=1e-15)
    np.testing.assert_allclose(resp[60], -0.7286049852301283 - 0.6848569038553993j, atol=1e-15)


def test_batch_is_chunk_invariant():
    """Splitting a batch arbitrarily never changes a single bit of output."""
    grids = _grids(1234, 500)
    whole = oc.response_batch(grids)
    parts = np.concatenate([oc.response_batch(grids[i : i + 137]) for i in range(0, 500, 137)])
    np.testing.assert_array_equal(whole.view(np.float64), parts.view(np.float64))


def test_blocks_equal_one_row_calls():
    """A batch of more than two KERNEL_BLOCKs, the last one partial, equals
    one-grid calls byte for byte."""
    n = 2 * oc.KERNEL_BLOCK + 37
    assert n > oc.KERNEL_BLOCK
    grids = _grids(4321, n)
    whole = oc.response_batch(grids)
    assert whole.shape == (n, oc.N_FREQ)
    for k, grid in enumerate(grids):
        assert whole[k].tobytes() == oc.response_batch(grid)[0].tobytes()


def test_kernel_block_temporaries_stay_under_the_mmap_threshold():
    """glibc serves an allocation of 128 KiB or more from a fresh mmap that
    is page-faulted in and unmapped again on free.  A (KERNEL_BLOCK, 61)
    float64 array, such as a scratch slab of the kernel, stays under that
    size and is reused from the heap; an mmap per temporary made a fresh
    process evaluate the kernel about half as fast per row."""
    assert oc.KERNEL_BLOCK * oc.N_FREQ * np.dtype(np.float64).itemsize < 128 * 1024


def _table_bytes(tables):
    return sum(a.nbytes for a in tables if isinstance(a, np.ndarray))


def test_kernel_allocates_nothing_mmap_sized_beside_its_scratch():
    """A 10,000-code call into a preallocated out peaks under its scratch
    plus 128 KiB of traced memory once the reactance tables are held, and a
    call that finds them cold under that plus the tables, so no array
    allocated beside the scratch and the tables reaches glibc's mmap
    threshold, whatever the number of blocks.  numpy's iterator buffers a
    broadcast operand in np.getbufsize() elements, 64 KiB of float64 by
    default and so under the threshold too; the buffers are shrunk while
    measuring so that the peak counts arrays alone."""
    assert np.getbufsize() * np.dtype(np.float64).itemsize < 128 * 1024
    codes = oc.word_codes(CounterRng(8).u64(10_000))
    out = np.empty((len(codes), oc.N_FREQ), dtype=complex)
    scratch = sum(a.nbytes for a in oc._kernel_scratch(oc.KERNEL_BLOCK, oc.N_FREQ))
    tables = _table_bytes(oc._build_tables(oc.OracleConstants(), GeometryMeta()))
    assert len(codes) > 30 * oc.KERNEL_BLOCK
    oc._held_tables.cache_clear()
    bufsize = np.setbufsize(16)
    tracemalloc.start()
    try:
        peaks = []
        for _ in ("cold", "warm"):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            oc.features_response_batch(codes, out=out)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
        np.setbufsize(bufsize)
    assert peaks[0] - scratch - tables < 128 * 1024
    assert peaks[1] - scratch < 128 * 1024
    assert np.isfinite(out).all()


def test_tables_are_built_once_per_constants_and_geometry(monkeypatch):
    """The held tables of the 61-point grid take 2,446,832 bytes: five tables
    of 17 + 129 + 65*57 + 65*17 + 57 rows and the stub's row, of 61 float64
    each.  Equal but distinct constants and geometry share one build; other
    constants get their own, and constants that put a branch resonance on a
    grid row build theirs once too."""
    oc._held_tables.cache_clear()
    row = np.zeros(1, dtype=np.int64)  # the code of the all-zero genome
    oc.features_response_batch(row)
    tables = oc._held_tables(oc.OracleConstants(), GeometryMeta())
    assert _table_bytes(tables) == 2_446_832 == (17 + 129 + 65 * 57 + 65 * 17 + 57 + 1) * 61 * 8
    assert not any(a.flags.writeable for a in tables if isinstance(a, np.ndarray))
    oc.features_response_batch(row, oc.OracleConstants(), GeometryMeta())
    assert oc._held_tables.cache_info().misses == 1
    oc.features_response_batch(row, oc.OracleConstants(c_b=200e-15))
    assert oc._held_tables.cache_info().misses == 2
    built = []
    build = oc._build_tables
    monkeypatch.setattr(oc, "_build_tables", lambda *a: built.append(a) or build(*a))
    assert np.isfinite(oc.features_response_batch(row, _RESONANT[0])).all()
    assert built == [(_RESONANT[0], GeometryMeta())]
    info = oc._held_tables.cache_info()
    assert info.misses == info.currsize == 3
    assert oc._held_tables(oc.OracleConstants(), GeometryMeta()) is tables


def test_real_kernel_equals_the_complex_cascade():
    """The kernel's real reactances give the bits of the complex cascade on
    random and edge words, under the default constants and under constants
    that put an exact resonance of either branch or both on a grid row (the
    short-circuit limit; the empty edge word resonates), with out= a strided
    view of records included."""
    codes = oc.word_codes(np.concatenate([CounterRng(9).u64(200_000), _EDGE_WORDS]))
    edge = codes[-len(_EDGE_WORDS):]
    assert edge[0] == 0
    for consts in (oc.OracleConstants(), *_RESONANT):
        for i in range(0, len(codes), 20_000):
            rows = codes[i:i + 20_000]
            got = oc.features_response_batch(rows, consts)
            want = _complex_kernel(oc.code_features(rows), oc.freq_grid(), consts)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        rows = np.concatenate([codes[:2 * oc.KERNEL_BLOCK], edge])  # across blocks
        records = np.zeros(len(rows), dtype=[("genome", ">u8"), ("resp", "<f8", (2 * oc.N_FREQ,))])
        out = records["resp"].view(np.complex128)
        oc.features_response_batch(rows, consts, out=out)
        want = _complex_kernel(oc.code_features(rows), oc.freq_grid(), consts)
        assert np.isfinite(want).all()
        np.testing.assert_array_equal(out.view(np.uint64), want.view(np.uint64))


def test_features_response_fills_a_strided_view_of_records():
    """out= writes a strided complex view of record responses bit-equal to
    out=None, across kernel blocks and at a branch resonance, and returns it."""
    n = 2 * oc.KERNEL_BLOCK + 37
    codes = oc.features_batch(_grids(99, n))
    codes[5] = codes[n - 1] = 0  # all-zero grids resonate under _RESONANT
    records = np.zeros(n, dtype=[("genome", ">u8"), ("resp", "<f8", (2 * oc.N_FREQ,))])
    for consts in (oc.OracleConstants(), *_RESONANT):
        out = records["resp"].view(np.complex128)
        assert not out.flags.c_contiguous
        got = oc.features_response_batch(codes, consts, out=out)
        assert got is out
        expect = oc.features_response_batch(codes, consts)
        assert np.isfinite(expect).all()
        assert out.tobytes() == expect.tobytes()
        assert (records["genome"] == 0).all()


@pytest.mark.parametrize("out", [np.empty((3, oc.N_FREQ), complex),
                                 np.empty((2, oc.N_FREQ - 1), complex),
                                 np.empty((2, oc.N_FREQ), np.complex64),
                                 np.empty((2, 2 * oc.N_FREQ)),
                                 np.empty((2, oc.N_FREQ), ">c16")])
def test_features_response_refuses_a_wrong_out(out):
    with pytest.raises(ValueError, match="out must be"):
        oc.features_response_batch(np.zeros(2, dtype=np.int64), out=out)


def test_response_is_strictly_passive():
    """1/eta shunt conductance keeps |s22| strictly below 1 for every grid."""
    grids = _grids(1234, 1000)
    mags = np.abs(oc.response_batch(grids))
    assert mags.max() < 1.0


def test_response_is_smooth_across_the_grid():
    grids = _grids(1234, 1000)
    resp = oc.response_batch(grids)
    steps = np.abs(np.diff(resp, axis=1))
    assert steps.max() < 1.5


def test_constants_change_the_response():
    grid = expand_genome(unpack_genome("15780B2E0C2EC716"))
    base = oc.response_batch(grid)
    bumped = oc.response_batch(grid, consts=oc.OracleConstants(c_b=200e-15))
    assert np.abs(base - bumped).max() > 1e-3


def test_constants_validation_and_fingerprint():
    for value in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="c_a must be finite and positive"):
            oc.OracleConstants(c_a=value)
    fp = oc.fingerprint(oc.OracleConstants(), GeometryMeta())
    assert fp == "d7fd10d0d6447f25"
    assert oc.fingerprint(oc.OracleConstants(),
                          GeometryMeta(eps_r=4.4, substrate_h=0.8e-3)) == "4c4256afdb046858"
    assert oc.fingerprint(oc.OracleConstants(c_b=200e-15), GeometryMeta()) != fp


def test_branch_resonance_gives_the_series_arm_reflection():
    """A grid row parked exactly on a branch resonance takes the circuit's
    limit there: the branch shorts the 1/eta shunt, so s22 is the lossless
    series arm's reflection (j*X_series - eta)/(j*X_series + eta), bit for bit
    numpy's complex division, and |s22| is 1 within an ulp.  The other rows
    stay strictly passive, and repeated calls give the same bits.  The limit
    rests on numpy's division of 1 by (1/eta, -inf) giving (-0, +0)."""
    zeros = np.zeros((16, 16), bool)
    assert oc.features_batch(zeros).tolist() == [0]  # the all-zero feature row
    assert 0.0 not in _zero_row_reactances(oc.OracleConstants())[1:]
    # the array loops the kernel runs, not numpy's scalar arithmetic
    inverse = np.divide(1.0, np.array([complex(1.0 / ETA, -math.inf)]))
    assert inverse.tobytes() == np.array([complex(-0.0, 0.0)]).tobytes()
    for consts, zero in zip(_RESONANT, ([True, False], [False, True], [True, True])):
        x_series, *branches = _zero_row_reactances(consts)
        assert [x == 0.0 for x in branches] == zero
        a = oc.response_batch(zeros, consts)
        b = oc.response_batch(zeros, consts)
        assert a.tobytes() == b.tobytes()
        want = np.divide(np.array([complex(-ETA, x_series)]), np.array([complex(ETA, x_series)]))
        assert a[0, 30:31].tobytes() == want.tobytes()
        assert abs(a[0, 30]) <= 1.0 + 2.0**-52
        assert (np.abs(np.delete(a[0], 30)) < 1.0).all()


def test_duplicate_feature_rows_give_bit_equal_rows():
    """Rows evaluated in one batch with repeats, a shuffle, two different
    genomes that share a feature row, and duplicated all-zero grids at a
    branch resonance each equal a one-row call, byte for byte."""
    words = np.array([0x033011D280E05D12, 0x2278711904689003], dtype=np.uint64)
    pair = expand_genome(u64_to_bits(words))
    assert not np.array_equal(pair[0], pair[1])
    np.testing.assert_array_equal(oc.features_batch(pair[0]), oc.features_batch(pair[1]))

    base = _grids(77, 40)
    zeros = np.zeros((3, 16, 16), bool)
    shuffled = base[np.random.default_rng(0).permutation(40)]
    grids = np.concatenate([base, pair, zeros, shuffled, base[:7], pair[::-1], zeros])
    for consts in (oc.OracleConstants(), *_RESONANT):
        batch = oc.response_batch(grids, consts)
        assert np.isfinite(batch).all()
        for k, grid in enumerate(grids):
            one = oc.response_batch(grid, consts)[0]
            assert batch[k].view(np.float64).tobytes() == one.view(np.float64).tobytes()


def test_feature_code_determines_the_feature_row():
    """Genomes share a feature code exactly when their grid feature rows are
    byte-equal, on random words and on edge words."""
    bits = u64_to_bits(np.concatenate([CounterRng(3).u64(200_000), _EDGE_WORDS]))
    codes = oc.word_codes(bits_to_u64(bits))
    assert codes.dtype == np.int64 and codes.shape == (len(bits),)
    assert codes[-2] == codes[-1]  # the equal-feature pair
    rows = oc.code_features(oc.features_batch(expand_genome(bits))).view(np.uint64)
    assert oc.code_features(codes).tobytes() == rows.tobytes()
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    np.testing.assert_array_equal(rows, rows[first][inverse])
    assert len(np.unique(rows, axis=0)) == len(first)


# --- feature codes into the kernel -------------------------------------------


def _code_test_words(n):
    """n words: random, sparse (AND of four draws), dense (OR of four) and the
    words 0 and 2**64 - 1, interleaved."""
    r = CounterRng(21)
    draws = r.u64(4 * n).reshape(4, n)
    sparse = draws[0] & draws[1] & draws[2] & draws[3]
    dense = draws[0] | draws[1] | draws[2] | draws[3]
    mixed = np.stack([draws[0], sparse, dense]).T.reshape(-1)
    mixed[::7] = 0
    mixed[3::11] = 2**64 - 1
    return mixed[:n]


@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 1000])
def test_codes_give_the_spectra_of_their_feature_rows(n):
    """word_codes fed to the kernel as a batch give byte-equal spectra to
    one-code calls, across kernel blocks, with and without out=, into a
    strided view of record responses too."""
    codes = oc.word_codes(_code_test_words(n))
    if n >= 7:
        assert {0, oc.word_codes(np.array([2**64 - 1], np.uint64))[0]} <= set(codes.tolist())
    expect = np.empty((n, oc.N_FREQ), dtype=complex)
    for k in range(n):
        expect[k] = oc.features_response_batch(codes[k:k + 1])[0]
    assert oc.features_response_batch(codes).tobytes() == expect.tobytes()
    out = np.empty((n, oc.N_FREQ), dtype=complex)
    assert oc.features_response_batch(codes, out=out) is out
    assert out.tobytes() == expect.tobytes()
    records = np.zeros(n, dtype=[("genome", ">u8"), ("resp", "<f8", (2 * oc.N_FREQ,))])
    view = records["resp"].view(np.complex128)
    assert oc.features_response_batch(codes, out=view) is view
    assert view.tobytes() == expect.tobytes()
    assert (records["genome"] == 0).all()


# each word_codes field's shift and largest count
_CODE_FIELDS = {"n": (0, 64), "s": (7, 128), "h": (16, 56), "v": (24, 56), "c": (32, 16)}
_ONE_PAST = {k: largest + 1 << shift for k, (shift, largest) in _CODE_FIELDS.items()}


@pytest.mark.parametrize("bad", [-1, -(1 << 40), *_ONE_PAST.values(), 1 << 37, 1 << 62],
                         ids=["minus-one", "negative", *(f"{k}-one-past" for k in _ONE_PAST),
                              "bit-37", "bit-62"])
def test_refuses_codes_off_the_count_ranges(bad):
    """A negative code, a field one past its count's largest value and a
    stray bit above c's field each raise one ValueError naming the code,
    which np.take's "clip" would otherwise have clamped into the tables;
    every field at its largest value passes."""
    largest = sum(value << shift for shift, value in _CODE_FIELDS.values())
    codes = np.full(300, largest)
    assert np.isfinite(oc.features_response_batch(codes)).all()
    codes[270] = bad
    with pytest.raises(ValueError, match=f"feature code 270 .*: {bad}$"):
        oc.features_response_batch(codes)


def test_refuses_integer_arrays_that_are_not_codes():
    """The kernel takes only (n,) integer codes: an integer array of another
    shape, a bool array and float feature rows (the all-zero row and the
    frozen example's) are each refused, not read as codes."""
    frozen = [0.4375, 0.2109375, 0.43333333333333335, 0.43333333333333335, 0.625, 0.25]
    for bad in (np.zeros((2, 6), dtype=np.int64), np.zeros((3, 1), dtype=np.int64),
                np.int64(0), np.zeros((2, 5), dtype=np.int64), np.zeros(3, dtype=bool),
                np.zeros((1, 6)), np.array([frozen]), np.zeros(2)):
        with pytest.raises(ValueError, match="feature codes"):
            oc.features_response_batch(bad)
