import cmath
import hashlib
import math

import numpy as np
import pytest

from metapix import inverse as iv
from metapix import netcalc as nc
from metapix.oracle import freq_grid, response_batch
from metapix.pattern import expand_genome
from metapix.rng import stream_u64, u64_to_bits


def _tiny_cfg(**kw):
    base = dict(population=40, generations=12, seed=3)
    base.update(kw)
    return iv.GAConfig(**base)


# --- targets -----------------------------------------------------------------


def test_single_point_target_matches_switch_solution():
    t = iv.build_target(5.8e9, 5.8e9)
    k = int(np.flatnonzero(t.weight > 0)[0])
    assert t.freqs[k] == 5.8e9
    assert -0.73 <= t.re[k] <= -0.71
    assert 0.00 <= t.im[k] <= 0.02
    assert (t.weight > 0).sum() == 1


def test_wideband_target_covers_grid_band():
    t = iv.build_target(5.3e9, 6.3e9)
    live = np.flatnonzero(t.weight > 0)
    assert len(live) == 11
    np.testing.assert_allclose(t.freqs[live], 5.3e9 + 0.1e9 * np.arange(11))
    assert (t.weight[live] == 1.0).all()
    # requirements drift smoothly with frequency
    assert np.abs(np.diff(t.re[live])).max() < 0.02
    # frozen from the earlier grid-scan + Newton solver
    frozen = [
        (-0.691768818963999, 0.02536479780812626),
        (-0.6966668604894988, 0.02289901682321067),
        (-0.7014071882074907, 0.020456012595265565),
        (-0.7059969362144042, 0.018035084278797922),
        (-0.7104428096410209, 0.015635554184164152),
        (-0.7147511163601958, 0.013256767463912808),
        (-0.7189277959283711, 0.010898091706404394),
        (-0.7229784460379391, 0.008558916457838208),
        (-0.7269083467261491, 0.006238652690226039),
        (-0.7307224825591908, 0.003936732229589337),
        (-0.7344255629859038, 0.0016526071562678224),
    ]
    np.testing.assert_allclose(np.stack([t.re[live], t.im[live]], axis=1), frozen,
                               rtol=0.0, atol=1e-12)


def test_anchor_snaps_down_on_exact_half_step():
    t = iv.build_target(5.8e9, 5.8e9, anchors=[(5.75e9, -0.1, 0.0)])
    live = np.flatnonzero(t.weight > 0)
    assert [float(f) for f in t.freqs[live]] == [5.7e9, 5.8e9]
    k = live[0]
    assert (t.re[k], t.im[k]) == (-0.1, 0.0)
    assert t.weight[k] == 1.0


def test_anchor_colliding_with_band_is_refused():
    with pytest.raises(ValueError, match="in-band"):
        iv.build_target(5.8e9, 5.8e9, anchors=[(5.82e9, -0.1, 0.0)])


def test_anchors_sharing_a_grid_row_are_refused():
    with pytest.raises(ValueError, match="already anchored grid frequency 5000000000.0 Hz"):
        iv.build_target(5.3e9, 6.3e9, anchors=[(5.0e9, -0.1, 0.0), (5.04e9, 0.3, 0.2)])


def test_anchor_off_grid_is_refused():
    with pytest.raises(ValueError, match="off the evaluation grid"):
        iv.build_target(5.8e9, 5.8e9, anchors=[(20e9, 0.0, 0.0)])


def test_band_without_grid_points_needs_anchors():
    with pytest.raises(ValueError, match="no grid frequency"):
        iv.build_target(5.81e9, 5.89e9)
    t = iv.build_target(5.81e9, 5.89e9, anchors=[(5.75e9, -0.1, 0.0)])
    assert (t.weight > 0).sum() == 1


def test_target_spec_validation():
    f = freq_grid()
    z = np.zeros_like(f)
    with pytest.raises(ValueError, match="nonzero weight"):
        iv.TargetSpec(f, z, z, z)
    w = z.copy()
    w[0] = 1.0
    bad = z.copy()
    bad[0] = 1.5
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        iv.TargetSpec(f, bad, z, w)
    with pytest.raises(ValueError, match="one length"):
        iv.TargetSpec(f, z[:-1], z, w)
    with pytest.raises(ValueError, match="nonnegative"):
        iv.TargetSpec(f, z, z, -w)


@pytest.mark.parametrize("name, k, value", [
    ("re", 0, math.nan),  # a don't-care row: NaN * 0 is NaN inside target_error
    ("re", 30, math.nan),
    ("im", 30, -math.inf),
    ("weight", 30, math.inf),
    ("weight", 0, math.nan),
    ("freqs", 5, math.inf),
])
def test_target_spec_refuses_non_finite_values(name, k, value):
    t = _point_target(30, -0.7, 0.0)
    arrays = {n: getattr(t, n).copy() for n in ("freqs", "re", "im", "weight")}
    arrays[name][k] = value
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        iv.TargetSpec(**arrays)


def test_target_json_round_trip():
    t = iv.build_target(5.7e9, 5.9e9, anchors=[(5.3e9, -0.1, 0.0)])
    back = iv.TargetSpec.from_json(t.to_json())
    np.testing.assert_array_equal(back.freqs, t.freqs)
    np.testing.assert_array_equal(back.re, t.re)
    np.testing.assert_array_equal(back.im, t.im)
    np.testing.assert_array_equal(back.weight, t.weight)


# --- fitness -------------------------------------------------------------------


def _point_target(k, re, im):
    f = freq_grid()
    z = np.zeros_like(f)
    w = z.copy()
    w[k] = 1.0
    tre, tim = z.copy(), z.copy()
    tre[k], tim[k] = re, im
    return iv.TargetSpec(f, tre, tim, w)


def test_fitness_clamps_exact_match():
    t = _point_target(30, 0.25, -0.5)
    s22 = np.zeros((1, 61), dtype=complex)
    s22[0, 30] = 0.25 - 0.5j
    np.testing.assert_allclose(iv.fitness_of(s22, t), [1e6])


def test_fitness_uniform_half_error():
    t = _point_target(30, 0.0, 0.0)
    s22 = np.zeros((1, 61), dtype=complex)
    s22[0, 30] = 0.5 - 0.5j
    np.testing.assert_allclose(iv.fitness_of(s22, t), [1.0 / (0.5 + 1e-6)])


def test_fitness_ignores_zero_weight_frequencies():
    t = _point_target(30, 0.1, 0.1)
    s22 = np.zeros((2, 61), dtype=complex)
    s22[:, 30] = 0.3 + 0.1j
    s22[1, :30] = 0.9 - 0.9j  # garbage where weight is zero
    fit = iv.fitness_of(s22, t)
    assert fit[0] == fit[1]


def test_fitness_shape_check():
    t = _point_target(0, 0.0, 0.0)
    with pytest.raises(ValueError, match="points"):
        iv.fitness_of(np.zeros((1, 60), dtype=complex), t)


def test_fitness_weighted_mean():
    f = freq_grid()
    re = np.zeros_like(f)
    im = np.zeros_like(f)
    w = np.zeros_like(f)
    w[10], w[20] = 1.0, 3.0
    t = iv.TargetSpec(f, re, im, w)
    s22 = np.zeros((1, 61), dtype=complex)
    s22[0, 10] = 0.4  # error 0.2
    s22[0, 20] = 0.8j  # error 0.4
    expect = (0.2 * 1 + 0.4 * 3) / 4
    np.testing.assert_allclose(iv.target_error(s22, t), [expect])


# --- GA ------------------------------------------------------------------------


def test_ga_config_validation():
    with pytest.raises(ValueError):
        iv.GAConfig(population=1)
    with pytest.raises(ValueError):
        iv.GAConfig(mutation_p=0.0)
    with pytest.raises(ValueError):
        iv.GAConfig(crossover_p=1.5)
    with pytest.raises(ValueError):
        iv.GAConfig(elitism=40, population=40)


def test_ga_is_deterministic_and_monotone():
    target = iv.build_target(5.8e9, 5.8e9)
    a = iv.ga_run(_tiny_cfg(), iv.oracle_evaluator(target))
    b = iv.ga_run(_tiny_cfg(), iv.oracle_evaluator(target))
    assert a.best_word == b.best_word
    np.testing.assert_array_equal(a.history_best, b.history_best)
    assert len(a.history_best) == 13  # initial population + 12 generations
    assert (np.diff(a.history_best) >= 0).all()
    assert a.best_fitness == a.history_best[-1]


def test_ga_run_is_frozen():
    """A seeded oracle GA reproduces its winner and both histories bit for bit."""
    target = iv.build_target(5.3e9, 6.3e9)
    cfg = iv.GAConfig(population=200, generations=25, seed=7)
    res = iv.ga_run(cfg, iv.oracle_evaluator(target))
    assert res.best_word == 0x00C03B0080C00000
    assert res.best_fitness == 11.300083232757057
    assert hashlib.sha256(res.history_best.astype("<f8").tobytes()).hexdigest() == (
        "05af4a0c17fa7fa6d523905304f3d0cf5ca1410b1081db7fd8d246140f6c1519")
    assert hashlib.sha256(res.history_median.astype("<f8").tobytes()).hexdigest() == (
        "21eaaa682086f80c8ebee45fde75b10f9a344702b0c5211e1c56c6266cf6bcc9")


def test_ga_seed_changes_search_path():
    target = iv.build_target(5.8e9, 5.8e9)
    ev = iv.oracle_evaluator(target)
    a = iv.ga_run(_tiny_cfg(seed=1), ev)
    b = iv.ga_run(_tiny_cfg(seed=2), ev)
    assert not np.array_equal(a.history_median, b.history_median)


def test_elitism_keeps_a_planted_perfect_genome():
    """The target is planted in the search as the response of its first
    random genome, which GA seed 5 draws at counter 0."""
    word = int(stream_u64(5, 0, 1)[0])
    bits = u64_to_bits(np.array([word], dtype=np.uint64))[0]
    resp = response_batch(expand_genome(bits))[0]
    f = freq_grid()
    w = np.zeros_like(f)
    w[25:30] = 1.0
    target = iv.TargetSpec(f, resp.real * (w > 0), resp.imag * (w > 0), w)

    res = iv.ga_run(_tiny_cfg(seed=5), iv.oracle_evaluator(target))
    assert res.best_fitness == 1e6
    assert res.best_word == word
    assert (res.history_best == 1e6).all()


def test_oracle_evaluator_cache_is_exact():
    """Repeats, new genomes and an equal-code pair all get one-row fitness bits."""
    target = iv.build_target(5.3e9, 6.3e9)
    ev = iv.oracle_evaluator(target)
    a = u64_to_bits(stream_u64(11, 0, 300))
    pair = u64_to_bits(np.array([0x033011D280E05D12, 0x2278711904689003], dtype=np.uint64))
    assert not np.array_equal(pair[0], pair[1])
    mixed = np.concatenate([a[::-3], u64_to_bits(stream_u64(12, 0, 200)), pair, a[:50], pair])
    for batch in (a, mixed):
        out = ev(batch)
        assert out.shape == (len(batch),) and out.dtype == np.float64
        expect = np.array([iv.fitness_of(response_batch(expand_genome(row)), target)[0]
                           for row in batch])
        np.testing.assert_array_equal(out.view(np.uint64), expect.view(np.uint64))


def test_surrogate_evaluator_contract():
    from metapix import surrogate as sg

    target = iv.build_target(5.3e9, 6.3e9)
    mlp = sg.init_mlp(0, hidden=(16,))
    ev = iv.surrogate_evaluator(mlp, target)
    out = ev(u64_to_bits(stream_u64(3, 0, 5)))
    assert out.shape == (5,)
    assert out.dtype == np.float64
    expect = iv.fitness_of(sg.predict_s22(mlp, stream_u64(3, 0, 5)), target)
    np.testing.assert_array_equal(out, expect)


def test_surrogate_evaluator_scores_each_word_once():
    """Repeats within and across calls, and the extreme words 0 and 2**64-1,
    get the bits of the first call's batch of distinct words, every time."""
    from metapix import surrogate as sg

    target = iv.build_target(5.3e9, 6.3e9)
    mlp = sg.init_mlp(0, hidden=(16,))
    a = stream_u64(3, 0, 40)
    edge = np.array([0, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    calls = [np.concatenate([a, edge, a[::-2], edge[::-1]]),
             np.concatenate([stream_u64(4, 0, 30), edge, a[5:25], edge])]

    def run(ev):
        return [ev(u64_to_bits(words)) for words in calls]

    first = run(iv.surrogate_evaluator(mlp, target))
    by_word = {}
    for words, out in zip(calls, first):
        assert out.shape == (len(words),) and out.dtype == np.float64
        for w, v in zip(words.tolist(), out.view(np.uint64).tolist()):
            assert by_word.setdefault(w, v) == v
    distinct, back = np.unique(calls[0], return_inverse=True)
    expect = iv.fitness_of(sg.predict_s22(mlp, distinct), target)[back]
    np.testing.assert_array_equal(first[0].view(np.uint64), expect.view(np.uint64))
    for out, again in zip(first, run(iv.surrogate_evaluator(mlp, target))):
        np.testing.assert_array_equal(out.view(np.uint64), again.view(np.uint64))


def test_surrogate_ga_is_repeatable():
    from metapix import surrogate as sg

    target = iv.build_target(5.3e9, 6.3e9)
    mlp = sg.init_mlp(2, hidden=(16,))
    cfg = iv.GAConfig(population=60, generations=15, seed=5)
    a = iv.ga_run(cfg, iv.surrogate_evaluator(mlp, target))
    b = iv.ga_run(cfg, iv.surrogate_evaluator(mlp, target))
    assert (a.best_word, a.best_fitness) == (b.best_word, b.best_fitness)
    for x, y in ((a.history_best, b.history_best), (a.history_median, b.history_median)):
        assert x.tobytes() == y.tobytes()


# --- validation ------------------------------------------------------------------


def test_validate_design_band_rule():
    bits = u64_to_bits(stream_u64(7, 0, 1))[0]
    rep = iv.validate_design(bits)
    ok = (
        (np.abs(rep.phase_diff_deg - 180.0) <= 45.0)
        & (rep.loss0_db <= 1.5)
        & (rep.loss1_db <= 1.5)
    )
    np.testing.assert_array_equal(rep.band_mask, ok)
    grid = set(freq_grid().tolist())
    for lo, hi in rep.band_segments:
        assert lo in grid and hi in grid and lo <= hi
    assert rep.genome_hex == f"{rep.genome_word:016X}"


def test_validate_design_segments_match_mask():
    bits = u64_to_bits(stream_u64(11, 0, 1))[0]
    rep = iv.validate_design(bits)
    covered = np.zeros(61, dtype=bool)
    for lo, hi in rep.band_segments:
        covered |= (rep.freqs >= lo) & (rep.freqs <= hi)
    np.testing.assert_array_equal(covered, rep.band_mask)


def test_matching_response_gives_antiphase_states():
    """Where the model response hits the solved requirement within 0.02, the
    loaded phase difference stays within 10 degrees of anti-phase."""
    f0 = 5.8e9
    gl0 = nc.reflection_of_load(nc.switch_impedance(nc.PIN_SWITCH, 0, f0))
    gl1 = nc.reflection_of_load(nc.switch_impedance(nc.PIN_SWITCH, 1, f0))
    sol = nc.solve_target_s22(gl0, gl1)
    s22_req = sol.a22 * cmath.exp(1j * sol.theta22)
    for phase in np.linspace(0.0, 2 * math.pi, 12, endpoint=False):
        s22 = s22_req + 0.02 * cmath.exp(1j * phase)
        a, theta = abs(s22), cmath.phase(s22)
        g0 = nc.gamma1_reduced(a, theta, gl0)
        g1 = nc.gamma1_reduced(a, theta, gl1)
        dphi = nc.coding_metrics(g0, g1).phase_diff_deg
        assert abs(dphi - 180.0) < 10.0


def test_report_csv_and_summary():
    bits = u64_to_bits(stream_u64(17, 0, 1))[0]
    target = iv.build_target(5.3e9, 6.3e9)
    rep = iv.validate_design(bits)
    predicted = rep.oracle_s22 + 0.25
    csv = iv.report_csv(rep, target, predicted)
    lines = csv.splitlines()
    assert len(lines) == 62
    assert lines[0].startswith("f_hz,target_re,target_im,pred_re,pred_im")
    assert lines[1].split(",")[0] == "2800000000"
    in_band_col = [row.split(",")[-1] for row in lines[1:]]
    np.testing.assert_array_equal(np.array(in_band_col, dtype=int), rep.band_mask.astype(int))
    pred = np.array([row.split(",")[3:5] for row in lines[1:]], dtype=float)
    np.testing.assert_allclose(pred[:, 0] + 1j * pred[:, 1], predicted, rtol=0, atol=1e-6)
    assert all(row.split(",")[3:5] == ["", ""] for row in iv.report_csv(rep).splitlines()[1:])

    summary = iv.report_summary(rep, [1.0, 2.0])
    assert rep.genome_hex in summary
    assert "operating band" in summary
    assert "final fitness 2.000" in summary
    assert "final fitness" not in iv.report_summary(rep)
