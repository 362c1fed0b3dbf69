import math
import tracemalloc

import numpy as np
import pytest

from metapix.arraysim import (
    ArrayConfig,
    SteerTarget,
    default_cut,
    element_positions,
    far_field,
    far_field_gammas,
    gammas_from_codes,
    ideal_phase,
    pattern_db,
    quantize_1bit,
    render_pgm,
    spectral_power_sweep,
)
from metapix.netcalc import C0

F0 = 5.8e9


def _direct_far_field(cfg: ArrayConfig, gammas: np.ndarray, f: float,
                      thetas_deg: np.ndarray, phi_deg: float) -> np.ndarray:
    """Independent reference: one exponential per element and direction."""
    k0 = 2.0 * math.pi * f / C0
    x, y = element_positions(cfg)
    if cfg.plane_wave_feed:
        feed = np.ones(x.shape, dtype=complex)
    else:
        fx, fy, fz = cfg.feed_xyz
        d = np.sqrt((x - fx) ** 2 + (y - fy) ** 2 + fz**2)
        feed = (fz / d) ** cfg.q_feed / d * np.exp(-1j * k0 * d)
    excite = (feed * gammas).reshape(-1)
    t = np.radians(thetas_deg)
    ux = np.sin(t) * math.cos(math.radians(phi_deg))
    uy = np.sin(t) * math.sin(math.radians(phi_deg))
    phase = k0 * (x.reshape(-1)[None, :] * ux[:, None] + y.reshape(-1)[None, :] * uy[:, None])
    return (np.exp(1j * phase) @ excite) * np.cos(t) ** cfg.q_elem


def first_sidelobe_db(pattern: np.ndarray) -> float:
    """Largest level beyond the first null on the right of the peak."""
    seg = pattern[int(np.argmax(pattern)):]
    for i in range(1, len(seg) - 1):
        if seg[i] < seg[i - 1] and seg[i] <= seg[i + 1]:
            return float(seg[i:].max())
    raise AssertionError("no null found")


def test_config_validation():
    with pytest.raises(ValueError):
        ArrayConfig(n_x=0)
    with pytest.raises(ValueError):
        ArrayConfig(spacing=-1e-3)
    with pytest.raises(ValueError):
        ArrayConfig(feed_xyz=(0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        SteerTarget(90.0, 0.0)
    with pytest.raises(ValueError):
        SteerTarget(-1.0, 0.0)
    with pytest.raises(ValueError):
        SteerTarget(30.0, 360.0)


def test_element_positions_centered():
    cfg = ArrayConfig()
    x, y = element_positions(cfg)
    assert x.shape == (16, 16)
    assert x[0, 0] == -7.5 * cfg.spacing
    assert x[0, -1] == 7.5 * cfg.spacing
    np.testing.assert_array_equal(x, -x[:, ::-1])
    np.testing.assert_array_equal(y, -y[::-1, :])
    np.testing.assert_array_equal(x, y.T)


def test_plane_wave_boresight_phases_all_equal():
    cfg = ArrayConfig(plane_wave_feed=True)
    ph = ideal_phase(cfg, SteerTarget(0.0, 0.0), F0, ref_phase=1.25)
    np.testing.assert_array_equal(ph, np.full((16, 16), 1.25))


def test_plane_wave_steer_column_gradient():
    # steering to 30 deg with half-wavelength columns walks the phase by
    # about a quarter turn per column
    cfg = ArrayConfig(plane_wave_feed=True)
    ph = ideal_phase(cfg, SteerTarget(30.0, 0.0), F0)
    step = np.mod(ph[:, 1:] - ph[:, :-1], 2.0 * math.pi) - 2.0 * math.pi
    expected = -2.0 * math.pi * F0 / C0 * cfg.spacing * math.sin(math.radians(30.0))
    np.testing.assert_allclose(step, expected, atol=1e-12)
    assert abs(expected + math.pi / 2.0) < 0.01
    # rows see no gradient for phi = 0
    np.testing.assert_allclose(ph, np.broadcast_to(ph[0], ph.shape), atol=1e-12)


def test_boresight_feed_phase_four_fold_symmetry():
    ph = ideal_phase(ArrayConfig(), SteerTarget(0.0, 0.0), F0)
    np.testing.assert_array_equal(ph, ph[:, ::-1])
    np.testing.assert_array_equal(ph, ph[::-1, :])
    np.testing.assert_array_equal(ph, ph.T)


def test_quantize_boundaries():
    ph = np.array([0.0, 1.0, math.pi - 1e-9, math.pi, 4.0, 2.0 * math.pi - 1e-9])
    np.testing.assert_array_equal(quantize_1bit(ph), [0, 0, 0, 1, 1, 1])
    assert quantize_1bit(np.array([2.0 * math.pi]))[0] == 0
    assert quantize_1bit(ph).dtype == np.uint8


def test_far_field_input_validation():
    cfg = ArrayConfig()
    with pytest.raises(ValueError):
        far_field_gammas(cfg, np.ones((8, 8)), F0, np.array([0.0]))
    with pytest.raises(ValueError):
        far_field(cfg, np.zeros((16, 16)), 1.2, -1.0, F0, np.array([0.0]))


@pytest.mark.parametrize("cfg", [
    ArrayConfig(),
    ArrayConfig(n_x=5, n_y=9, feed_xyz=(0.01, -0.02, 0.3)),
    ArrayConfig(plane_wave_feed=True),
], ids=["default", "5x9-offset-feed", "plane-wave"])
def test_far_field_matches_direct_sum(cfg):
    rng = np.random.default_rng(7)
    shape = (cfg.n_y, cfg.n_x)
    gammas = rng.uniform(0.0, 1.0, shape) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, shape))
    cut = default_cut(0.5)
    for phi in (0.0, 37.5, 90.0, 215.0):
        ref = _direct_far_field(cfg, gammas, F0, cut, phi)
        e = far_field_gammas(cfg, gammas, F0, cut, phi)
        assert e.shape == ref.shape
        assert np.abs(e - ref).max() <= 1e-12 * np.abs(ref).max(), f"phi {phi}"


@pytest.mark.parametrize("gamma0, gamma1", [
    (complex(math.nan, 0.0), -1.0), (1.0, complex(0.0, math.nan)),
    (math.inf, -1.0), (1.0, complex(-math.inf, 0.0)),
])
def test_far_field_refuses_non_finite_reflections(gamma0, gamma1):
    with pytest.raises(ValueError, match="finite"):
        far_field(ArrayConfig(), np.zeros((16, 16)), gamma0, gamma1, F0, np.array([0.0]))


def test_far_field_memory_peak_stays_small():
    # the per-axis sum holds (directions, n_x) arrays, never the dense
    # (directions, n_x * n_y) phase matrix
    cfg = ArrayConfig()
    codes = quantize_1bit(ideal_phase(cfg, SteerTarget(30.0, 0.0), F0))
    cut = default_cut(0.01)
    tracemalloc.start()
    try:
        far_field(cfg, codes, 1.0, -1.0, F0, cut)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32e6, f"peak {peak / 1e6:.1f} MB"


def test_uniform_aperture_sidelobe_level():
    # a plane-wave fed boresight array with continuous phases is the
    # textbook uniform aperture: peak dead ahead, first sidelobe near -13 dB
    cfg = ArrayConfig(plane_wave_feed=True)
    gammas = np.exp(1j * ideal_phase(cfg, SteerTarget(0.0, 0.0), F0))
    cut = default_cut(0.25)
    p = pattern_db(cfg, gammas, F0, cut)
    assert cut[int(np.argmax(p))] == 0.0
    assert p.max() == 0.0
    sll = first_sidelobe_db(p)
    assert -13.5 < sll < -12.9


def test_one_bit_steering_peak_direction():
    # beam pointing is an array-factor property, so judge it with the
    # element envelope switched off; the spherical feed phase is kept
    # because it breaks the quantization symmetry that would otherwise
    # raise a mirror lobe
    cfg = ArrayConfig(q_elem=0.0)
    cut = default_cut(0.25)
    for target in (30.0, 60.0):
        codes = quantize_1bit(ideal_phase(cfg, SteerTarget(target, 0.0), F0))
        p = far_field(cfg, codes, 1.0, -1.0, F0, cut)
        peak = cut[int(np.argmax(p))]
        assert abs(peak - target) <= 1.5, f"steer {target}: peak {peak}"


def test_element_envelope_pulls_scanned_peak():
    # with the cos(theta) element factor on, a 60 deg scan peaks a couple
    # of degrees early even for continuous phases
    cfg = ArrayConfig()
    gammas = np.exp(1j * ideal_phase(cfg, SteerTarget(60.0, 0.0), F0))
    cut = default_cut(0.25)
    peak = cut[int(np.argmax(pattern_db(cfg, gammas, F0, cut)))]
    assert 55.0 < peak < 59.5


def test_mirror_steer_mirrors_pattern():
    cfg = ArrayConfig()
    cut = default_cut(0.25)
    c1 = quantize_1bit(ideal_phase(cfg, SteerTarget(25.0, 0.0), F0))
    c2 = quantize_1bit(ideal_phase(cfg, SteerTarget(25.0, 180.0), F0))
    p1 = far_field(cfg, c1, 1.0, -1.0, F0, cut)
    p2 = far_field(cfg, c2, 1.0, -1.0, F0, cut)
    np.testing.assert_allclose(p1, p2[::-1], atol=1e-9)


def test_quantization_loss_two_to_five_db():
    cfg = ArrayConfig()
    ph = ideal_phase(cfg, SteerTarget(0.0, 0.0), F0)
    boresight = np.array([0.0])
    e_cont = far_field_gammas(cfg, np.exp(1j * ph), F0, boresight)
    e_quant = far_field_gammas(
        cfg, gammas_from_codes(quantize_1bit(ph), 1.0, -1.0), F0, boresight
    )
    loss = 20.0 * math.log10(abs(e_cont[0]) / abs(e_quant[0]))
    assert 2.0 < loss < 5.0


def test_degenerate_states_kill_the_beam():
    cfg = ArrayConfig()
    codes = quantize_1bit(ideal_phase(cfg, SteerTarget(30.0, 0.0), F0))
    at_steer = np.array([30.0])
    e_ok = far_field_gammas(cfg, gammas_from_codes(codes, 1.0, -1.0), F0, at_steer)
    e_deg = far_field_gammas(cfg, gammas_from_codes(codes, 1.0, 1.0), F0, at_steer)
    drop = 20.0 * math.log10(abs(e_ok[0]) / abs(e_deg[0]))
    assert drop >= 10.0


def test_grid_refinement_keeps_peak_direction():
    cfg = ArrayConfig()
    codes = quantize_1bit(ideal_phase(cfg, SteerTarget(30.0, 0.0), F0))
    coarse = default_cut(0.5)
    fine = default_cut(0.25)
    pk_c = coarse[int(np.argmax(far_field(cfg, codes, 1.0, -1.0, F0, coarse)))]
    pk_f = fine[int(np.argmax(far_field(cfg, codes, 1.0, -1.0, F0, fine)))]
    assert abs(pk_c - pk_f) <= 0.25


def test_default_cut_shape():
    cut = default_cut(0.25)
    assert len(cut) == 721
    assert cut[0] == -90.0 and cut[-1] == 90.0
    assert 0.0 in cut
    assert len(default_cut(0.001)) == 180_001
    np.testing.assert_array_equal(default_cut(90.0), [-90.0, 0.0, 90.0])


@pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf, 1e-9, 0.0009, 90.5])
def test_default_cut_refuses_bad_steps(step):
    with pytest.raises(ValueError, match="cut step"):
        default_cut(step)


def test_spectral_sweep_band_around_center():
    cfg = ArrayConfig()
    freqs = np.arange(5.3e9, 6.301e9, 0.05e9)
    n = len(freqs)
    g0 = np.full(n, 0.98 + 0j)
    g1 = -0.97 * np.exp(1j * 0.1 * (freqs - F0) / 1e9) * np.ones(n)
    res = spectral_power_sweep(cfg, freqs, g0, g1, SteerTarget(30.0, 0.0))
    assert res.power_db.max() == 0.0
    assert res.band is not None
    lo, hi = res.band
    assert lo <= F0 <= hi
    expected = 100.0 * (hi - lo) / (0.5 * (lo + hi))
    assert res.bandwidth_pct == pytest.approx(expected)
    assert res.bandwidth_pct > 5.0


def test_spectral_sweep_degenerate_center_reports_no_band():
    cfg = ArrayConfig()
    freqs = np.arange(5.6e9, 6.001e9, 0.1e9)
    g0 = np.ones(len(freqs), dtype=complex)
    g1 = -np.ones(len(freqs), dtype=complex)
    g1[2] = g0[2]  # kill the contrast exactly at 5.8 GHz
    res = spectral_power_sweep(cfg, freqs, g0, g1, SteerTarget(30.0, 0.0))
    assert freqs[2] == F0
    assert res.band is None
    assert res.bandwidth_pct == 0.0


@pytest.mark.filterwarnings("error")
def test_spectral_sweep_zero_power_sits_at_floor():
    cfg = ArrayConfig()
    freqs = np.arange(5.6e9, 6.001e9, 0.1e9)
    zeros = np.zeros(len(freqs), dtype=complex)
    res = spectral_power_sweep(cfg, freqs, zeros, zeros, SteerTarget(30.0, 0.0))
    np.testing.assert_array_equal(res.power_db, np.full(len(freqs), -300.0))
    assert res.band is None
    assert res.bandwidth_pct == 0.0


def test_spectral_sweep_length_mismatch():
    cfg = ArrayConfig()
    with pytest.raises(ValueError):
        spectral_power_sweep(
            cfg, np.array([5.8e9]), np.ones(2), np.ones(1), SteerTarget(0.0, 0.0)
        )


@pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.inf)])
def test_spectral_sweep_refuses_non_finite_spectra(bad):
    freqs = np.arange(5.6e9, 6.001e9, 0.1e9)
    g0 = np.ones(len(freqs), dtype=complex)
    g1 = -np.ones(len(freqs), dtype=complex)
    g1[1] = bad
    with pytest.raises(ValueError, match="finite"):
        spectral_power_sweep(ArrayConfig(), freqs, g0, g1, SteerTarget(30.0, 0.0))
    with pytest.raises(ValueError, match="finite"):
        spectral_power_sweep(ArrayConfig(), freqs, g1, g0, SteerTarget(30.0, 0.0))


def test_sweep_and_far_field_refuse_gain_alike():
    """A passive element reflects at most what it receives: |gamma| <= 1, with
    1e-9 of rounding slack, in the sweep exactly as in the pattern."""
    freqs = np.arange(5.6e9, 6.001e9, 0.1e9)
    g0 = np.ones(len(freqs), dtype=complex)
    steer = SteerTarget(30.0, 0.0)
    for g1 in (-3.0, complex(0.0, 1.0 + 1e-6)):
        with pytest.raises(ValueError, match="magnitude at most 1"):
            spectral_power_sweep(ArrayConfig(), freqs, g0, np.full(len(freqs), g1), steer)
        with pytest.raises(ValueError, match="magnitude at most 1"):
            far_field(ArrayConfig(), np.zeros((16, 16)), 1.0, g1, F0, np.array([0.0]))
    edge = -(1.0 + 1e-10)
    res = spectral_power_sweep(ArrayConfig(), freqs, g0, np.full(len(freqs), edge), steer)
    assert res.band is not None
    assert far_field(ArrayConfig(), np.zeros((16, 16)), 1.0, edge, F0, np.array([0.0]))[0] == 0.0


def test_render_pgm_format():
    img = np.array([[0.0, -20.0], [-40.0, -80.0]])
    text = render_pgm(img)
    lines = text.splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "2 2"
    assert lines[2] == "255"
    assert lines[3].split() == ["255", "128"]
    assert lines[4].split() == ["0", "0"]
    with pytest.raises(ValueError):
        render_pgm(np.zeros(4))
