"""End-to-end acceptance gate: one test per shipping criterion.

Each test asserts through the `acceptance` fixture, which also emits a
single PASS/FAIL line into the terminal summary, so the gate's verdict is
readable at a glance even in a long pytest run.  Slow shared work (the
random-search reach scan and the full-size GA) lives in session fixtures.
"""

import cmath
import math
import time

import numpy as np
import pytest

from metapix import dataset, inverse, surrogate
from metapix.arraysim import (
    ArrayConfig,
    SteerTarget,
    default_cut,
    far_field,
    ideal_phase,
    pattern_db,
    quantize_1bit,
)
from metapix.netcalc import (
    PIN_SWITCH,
    UnitaryParams,
    gamma1_full,
    gamma1_reduced,
    reflection_of_load,
    solve_target_s22,
    switch_impedance,
    unitary_from_params,
)
from metapix.oracle import response_batch
from metapix.pattern import expand_genome
from metapix.rng import CounterRng, u64_to_bits

F0 = 5.8e9


def _switch_loads(f: float) -> tuple[complex, complex]:
    gl0 = reflection_of_load(switch_impedance(PIN_SWITCH, 0, f))
    gl1 = reflection_of_load(switch_impedance(PIN_SWITCH, 1, f))
    return gl0, gl1


# ---------------------------------------------------------------------------
# shared slow work
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def reach_scan():
    """Minimum single-frequency target error over 1e5 random genomes."""
    t0 = time.perf_counter()
    target = inverse.build_target(F0, F0)
    best = math.inf
    rng = CounterRng(1)
    for _ in range(10):
        bits = u64_to_bits(rng.u64(10_000))
        errs = inverse.target_error(response_batch(expand_genome(bits)), target)
        best = min(best, float(errs.min()))
    return best, time.perf_counter() - t0


@pytest.fixture(scope="session")
def ga_outcome():
    """Full-size GA on the wideband target, run twice with the same seed, each
    with a fresh (cold) evaluator."""
    target = inverse.build_target(5.3e9, 6.3e9)
    cfg = inverse.GAConfig()
    t0 = time.perf_counter()
    first = inverse.ga_run(cfg, inverse.oracle_evaluator(target))
    elapsed = time.perf_counter() - t0
    second = inverse.ga_run(cfg, inverse.oracle_evaluator(target))
    return first, second, elapsed


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_01_target_repro(acceptance):
    t0 = time.perf_counter()
    gl0, gl1 = _switch_loads(F0)
    sol = solve_target_s22(gl0, gl1)
    elapsed = time.perf_counter() - t0
    s22 = sol.a22 * cmath.exp(1j * sol.theta22)
    ok = (
        sol.converged
        and -0.73 <= s22.real <= -0.71
        and 0.00 <= s22.imag <= 0.02
        and elapsed < 1.0
    )
    acceptance(1, "TARGET-REPRO", ok,
               f"re {s22.real:+.4f} im {s22.imag:+.4f} in {elapsed * 1e3:.0f} ms")


def test_02_unitary_equivalence(acceptance):
    n = 10_000
    rng = CounterRng(2026)
    a22 = rng.random(n)
    th11 = rng.uniform(n, -math.pi, math.pi)
    th22 = rng.uniform(n, -math.pi, math.pi)
    gl = np.sqrt(rng.random(n)) * np.exp(1j * rng.uniform(n, -math.pi, math.pi))
    worst = 0.0
    for i in range(n):
        full = gamma1_full(
            unitary_from_params(UnitaryParams(a22[i], th11[i], th22[i])), gl[i]
        )
        reduced = cmath.exp(1j * th11[i]) * gamma1_reduced(a22[i], th22[i], gl[i])
        worst = max(worst, abs(full - reduced))
    acceptance(2, "UNITARY-EQUIV", worst < 1e-10, f"max |diff| {worst:.2e} over {n} draws")


def test_03_energy_conservation(acceptance):
    n = 10_000
    rng = CounterRng(777)
    a22 = rng.random(n)
    th11 = rng.uniform(n, -math.pi, math.pi)
    th22 = rng.uniform(n, -math.pi, math.pi)
    gl = np.exp(1j * rng.uniform(n, -math.pi, math.pi))
    worst = 0.0
    for i in range(n):
        g1 = gamma1_full(
            unitary_from_params(UnitaryParams(a22[i], th11[i], th22[i])), gl[i]
        )
        worst = max(worst, abs(abs(g1) - 1.0))
    acceptance(3, "ENERGY", worst < 1e-12, f"max ||G1|-1| {worst:.2e} at |GL| = 1")


def test_04_antiphase_closure(acceptance):
    gl0, gl1 = _switch_loads(F0)
    sol = solve_target_s22(gl0, gl1)
    g0 = gamma1_reduced(sol.a22, sol.theta22, gl0)
    g1 = gamma1_reduced(sol.a22, sol.theta22, gl1)
    resid = abs(g0 + g1)
    acceptance(4, "EQ5-CLOSURE", resid < 1e-8, f"|G1(on) + G1(off)| = {resid:.2e}")


def test_05_oracle_passivity_and_determinism(acceptance):
    run1 = dataset.generate(1000, seed=2026, jobs=1)
    run2 = dataset.generate(1000, seed=2026, jobs=8)
    run3 = dataset.generate(1000, seed=2026, jobs=1)
    bit_exact = run1.tobytes() == run2.tobytes() == run3.tobytes()
    s22 = run1["resp"].view(np.complex128)
    mag_max = float(np.abs(s22).max())
    step_max = float(np.abs(np.diff(s22, axis=1)).max())
    ok = bit_exact and mag_max < 1.0 and step_max < 1.5
    acceptance(5, "ORACLE-PASSIVE", ok,
               f"1 - max |S22| = {1.0 - mag_max:.2e}, max step {step_max:.3f}, "
               f"bit-exact x2 and jobs 1 vs 8: {bit_exact}")


def test_06_oracle_reach(acceptance, reach_scan):
    best, elapsed = reach_scan
    ok = best < 0.15 and elapsed < 300.0
    acceptance(6, "ORACLE-REACH", ok,
               f"min error {best:.4f} over 1e5 genomes in {elapsed:.1f} s")


def test_07_gradient_check(acceptance):
    records = dataset.generate(8, seed=5)
    x, y = surrogate.records_to_xy(records)
    mlp = surrogate.init_mlp(3, (32, 32))
    max_rel, checked, skipped = surrogate.grad_check(mlp, x, y, n_coords=150, seed=0)
    ok = max_rel < 1e-4 and checked >= 100
    acceptance(7, "GRAD-CHECK", ok,
               f"max rel err {max_rel:.2e} ({checked} coords, {skipped} skipped)")


def test_08_surrogate_learns(acceptance):
    t0 = time.perf_counter()
    records = dataset.generate(11_000, seed=1, jobs=8)
    train_recs, val_recs = dataset.split(records)
    xt, yt = surrogate.records_to_xy(train_recs)
    xv, yv = surrogate.records_to_xy(val_recs)
    assert len(xt) == 10_000 and len(xv) == 1_000
    settings = surrogate.TrainSettings()  # the settings `metapix train` uses by default
    mlp = surrogate.init_mlp(settings.seed, settings.hidden)
    result = surrogate.train(mlp, xt, yt, xv, yv, settings)
    elapsed = time.perf_counter() - t0
    ok = result.best_val_mae <= 0.06 and elapsed < 1800.0
    acceptance(8, "SURROGATE-LEARN", ok,
               f"val MAE {result.best_val_mae:.4f} at epoch {result.best_epoch} "
               f"({result.stop_reason}) in {elapsed:.0f} s")


def test_09_ga_gain(acceptance, ga_outcome):
    first, second, elapsed = ga_outcome
    baseline = first.history_median[0]
    ratio = first.best_fitness / baseline
    monotone = bool(np.all(np.diff(first.history_best) >= 0.0))
    identical = (
        first.best_word == second.best_word
        and first.best_fitness == second.best_fitness
    )
    ok = ratio >= 5.0 and monotone and identical and elapsed < 600.0
    acceptance(9, "GA-GAIN", ok,
               f"best {first.best_fitness:.2f} vs baseline {baseline:.2f} "
               f"(x{ratio:.1f}), monotone {monotone}, repeatable {identical}, "
               f"{elapsed:.1f} s")


def test_10_end_to_end_band(acceptance, ga_outcome, reach_scan):
    if reach_scan[0] >= 0.15:
        pytest.skip("conditional on the oracle reach criterion")
    first, _, _ = ga_outcome
    report = inverse.validate_design(first.best_bits)
    longest = 0
    run = 0
    for hit in report.band_mask:
        run = run + 1 if hit else 0
        longest = max(longest, run)
    segs = ", ".join(f"{lo / 1e9:.1f}-{hi / 1e9:.1f} GHz" for lo, hi in report.band_segments)
    acceptance(10, "END-TO-END", longest >= 3,
               f"{longest} contiguous grid frequencies in band ({segs or 'none'})")


def test_11_array_beam(acceptance):
    cut = default_cut(0.25)

    # uniform aperture: plane-wave feed, continuous boresight phases
    uniform_cfg = ArrayConfig(plane_wave_feed=True)
    gammas = np.exp(1j * ideal_phase(uniform_cfg, SteerTarget(0.0, 0.0), F0))
    p = pattern_db(uniform_cfg, gammas, F0, cut)
    peak_angle = float(cut[int(np.argmax(p))])
    seg = p[int(np.argmax(p)):]
    sll = None
    for i in range(1, len(seg) - 1):
        if seg[i] < seg[i - 1] and seg[i] <= seg[i + 1]:
            sll = float(seg[i:].max())
            break
    sll_ok = peak_angle == 0.0 and sll is not None and -13.5 <= sll <= -12.9

    # beam pointing judged on the array factor; the on-axis feed stays in
    # because its spherical phase suppresses the 1-bit mirror lobe
    steer_cfg = ArrayConfig(q_elem=0.0)
    offsets = {}
    for target in (30.0, 60.0):
        codes = quantize_1bit(ideal_phase(steer_cfg, SteerTarget(target, 0.0), F0))
        pq = far_field(steer_cfg, codes, 1.0, -1.0, F0, cut)
        offsets[target] = float(cut[int(np.argmax(pq))]) - target
    steer_ok = all(abs(off) <= 1.5 for off in offsets.values())

    acceptance(11, "ARRAY-BEAM", sll_ok and steer_ok,
               f"boresight peak {peak_angle:.2f} deg, first sidelobe {sll:.2f} dB, "
               f"steer offsets 30: {offsets[30.0]:+.2f} deg, 60: {offsets[60.0]:+.2f} deg")
