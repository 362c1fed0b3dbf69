import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metapix import netcalc as nc
from metapix.oracle import freq_grid, response_batch
from metapix.pattern import expand_genome, unpack_genome

F0 = 5.8e9


# --- switch model -----------------------------------------------------------


def test_switch_impedance_at_center():
    z_on = nc.switch_impedance(nc.PIN_SWITCH, 0, F0)
    z_off = nc.switch_impedance(nc.PIN_SWITCH, 1, F0)
    np.testing.assert_allclose(z_on, 1.0 + 16.39911365173872j, rtol=1e-15)
    np.testing.assert_allclose(z_off, 10.0 - 201.38269134538135j, rtol=1e-15)


def test_switch_reflections_at_center():
    g_on = nc.reflection_of_load(nc.switch_impedance(nc.PIN_SWITCH, 0, F0))
    g_off = nc.reflection_of_load(nc.switch_impedance(nc.PIN_SWITCH, 1, F0))
    np.testing.assert_allclose(g_on, -0.9909616809887676 + 0.08637567958410466j, rtol=1e-14)
    np.testing.assert_allclose(g_off, -0.5331645920920332 - 0.797810883284076j, rtol=1e-14)
    np.testing.assert_allclose(abs(g_on), 0.9947189609189622, rtol=1e-14)
    np.testing.assert_allclose(abs(g_off), 0.9595658850475989, rtol=1e-14)
    np.testing.assert_allclose(math.degrees(cmath.phase(g_on)), 175.01849000999755, rtol=1e-12)
    np.testing.assert_allclose(math.degrees(cmath.phase(g_off)), -123.75419035654396, rtol=1e-12)


def test_switch_impedance_rejects_bad_inputs():
    with pytest.raises(ValueError):
        nc.switch_impedance(nc.PIN_SWITCH, 2, F0)
    with pytest.raises(ValueError):
        nc.switch_impedance(nc.PIN_SWITCH, 0, 0.0)
    with pytest.raises(ValueError):
        nc.switch_impedance(nc.PIN_SWITCH, 0, -1e9)


def test_reflection_round_trip():
    for zl in (50.0 + 0j, 1 + 16j, 10 - 201j, 377.0 + 0j, 0.5 + 1000j):
        gamma = nc.reflection_of_load(zl)
        np.testing.assert_allclose(nc.load_of_reflection(gamma), zl, rtol=1e-12)
    assert nc.reflection_of_load(377.0) == 0.0
    with pytest.raises(nc.SingularityError):
        nc.load_of_reflection(1.0 + 0j)
    with pytest.raises(nc.SingularityError):
        nc.reflection_of_load(-377.0 + 0j)


def test_passive_loads_stay_inside_unit_disk():
    rng = np.random.default_rng(0)
    for _ in range(200):
        zl = complex(rng.uniform(0, 1000), rng.uniform(-1000, 1000))
        assert abs(nc.reflection_of_load(zl)) <= 1.0 + 1e-12


# --- lossless two-port ------------------------------------------------------


def test_wrap_angle():
    assert nc.wrap_angle(0.0) == 0.0
    np.testing.assert_allclose(nc.wrap_angle(3 * math.pi), math.pi)
    np.testing.assert_allclose(nc.wrap_angle(-math.pi), math.pi)
    np.testing.assert_allclose(nc.wrap_angle(2 * math.pi + 0.25), 0.25)


def _random_params(rng):
    return nc.UnitaryParams(
        a22=rng.uniform(0.0, 1.0),
        theta11=rng.uniform(-math.pi, math.pi),
        theta22=rng.uniform(-math.pi, math.pi),
    )


def test_constructed_s_is_unitary():
    """S^H S = I to near machine precision for any parameter triple."""
    rng = np.random.default_rng(1)
    for _ in range(300):
        p = _random_params(rng)
        s = nc.unitary_from_params(p)
        m = np.array([[s.s11, s.s12], [s.s12, s.s22]])
        np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-12)


def test_reduced_equals_full_response():
    """The Blaschke form is the full cascade up to the exp(j*theta11) phase."""
    rng = np.random.default_rng(2)
    for _ in range(300):
        p = _random_params(rng)
        gl = cmath.rect(rng.uniform(0, 0.999), rng.uniform(-math.pi, math.pi))
        full = nc.gamma1_full(nc.unitary_from_params(p), gl)
        red = nc.gamma1_reduced(p.a22, p.theta22, gl)
        np.testing.assert_allclose(red * cmath.exp(1j * p.theta11), full, atol=1e-13)


def test_lossless_two_port_conserves_energy():
    """|gamma1| = 1 whenever the termination is purely reactive."""
    rng = np.random.default_rng(3)
    for _ in range(300):
        p = _random_params(rng)
        gl = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        if abs(1.0 - p.a22 * cmath.exp(1j * p.theta22) * gl) <= 1e-6:
            continue
        assert abs(abs(nc.gamma1_reduced(p.a22, p.theta22, gl)) - 1.0) < 1e-12


def test_gamma1_singularity_guard():
    with pytest.raises(nc.SingularityError):
        nc.gamma1_reduced(1.0, 0.0, 1.0 + 0j)


def test_unitary_params_validation():
    with pytest.raises(ValueError):
        nc.UnitaryParams(a22=1.5, theta11=0.0, theta22=0.0)
    with pytest.raises(ValueError):
        nc.UnitaryParams(a22=-0.1, theta11=0.0, theta22=0.0)
    p = nc.UnitaryParams(a22=0.5, theta11=5 * math.pi / 2, theta22=-3 * math.pi)
    np.testing.assert_allclose(p.theta11, math.pi / 2)
    np.testing.assert_allclose(p.theta22, math.pi)


# --- design target solver ---------------------------------------------------


def _center_loads():
    gl0 = nc.reflection_of_load(nc.switch_impedance(nc.PIN_SWITCH, 0, F0))
    gl1 = nc.reflection_of_load(nc.switch_impedance(nc.PIN_SWITCH, 1, F0))
    return gl0, gl1


def test_solver_frozen_center_solution():
    gl0, gl1 = _center_loads()
    sol = nc.solve_target_s22(gl0, gl1)
    assert sol.converged
    assert sol.residual < nc.RESIDUAL_CONVERGED
    np.testing.assert_allclose(sol.a22, 0.7148740450049494, atol=1e-9)
    np.testing.assert_allclose(math.degrees(sol.theta22), 178.93743468324237, atol=1e-6)
    s22 = sol.a22 * cmath.exp(1j * sol.theta22)
    np.testing.assert_allclose(s22.real, -0.7147511163601958, atol=1e-9)
    np.testing.assert_allclose(s22.imag, 0.013256767463912808, atol=1e-9)


def test_solver_closure_identity():
    """At the solution the two state responses cancel exactly."""
    gl0, gl1 = _center_loads()
    sol = nc.solve_target_s22(gl0, gl1)
    g0 = nc.gamma1_reduced(sol.a22, sol.theta22, gl0)
    g1 = nc.gamma1_reduced(sol.a22, sol.theta22, gl1)
    assert abs(g0 + g1) < 1e-8
    m = nc.coding_metrics(g0, g1)
    np.testing.assert_allclose(m.phase_diff_deg, 180.0, atol=1e-6)
    np.testing.assert_allclose(m.loss0_db, m.loss1_db, atol=1e-9)


def test_solver_antipodal_loads_need_transparent_element():
    """gl1 = -gl0 is already anti-phase, so a22 = 0 (pure phase delay) wins."""
    g = cmath.rect(0.8, 0.7)
    sol = nc.solve_target_s22(g, -g)
    assert sol.converged
    assert sol.a22 < 1e-7


def test_solver_refuses_degenerate_loads():
    g = cmath.rect(0.9, 1.2)
    with pytest.raises(nc.NoContrastError):
        nc.solve_target_s22(g, g)
    with pytest.raises(nc.NoContrastError):
        nc.solve_target_s22(g, g + 1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0.0, 0.99),
    st.floats(-math.pi, math.pi),
    st.floats(0.0, 0.99),
    st.floats(-math.pi, math.pi),
)
def test_solver_roots_verify(m0, p0, m1, p1):
    """Every passive, distinct load pair has a root, and every listed root
    satisfies the equation."""
    gl0 = cmath.rect(m0, p0)
    gl1 = cmath.rect(m1, p1)
    if abs(gl0 - gl1) <= 1e-3:
        return
    sol = nc.solve_target_s22(gl0, gl1)
    assert sol.converged
    assert len(sol.minima) >= 1
    for a22, theta22, _ in sol.minima:
        assert 0.0 <= a22 <= 1.0
        g0 = nc.gamma1_reduced(a22, theta22, gl0)
        g1 = nc.gamma1_reduced(a22, theta22, gl1)
        assert abs(g0 + g1) < 1e-9


def test_solver_finds_no_root_for_active_loads():
    """|gl| > 1 (a switch with negative resistance) can leave no real root."""
    sol = nc.solve_target_s22(1.5 + 0j, 0.5 + 0j)
    assert not sol.converged
    assert sol.minima == ()


def test_solver_reports_smallest_root_first():
    gl0, gl1 = _center_loads()
    sol = nc.solve_target_s22(gl0, gl1)
    assert sol.minima
    assert sol.a22 == min(m[0] for m in sol.minima)


# --- coding metrics ---------------------------------------------------------


def test_coding_metrics_values():
    m = nc.coding_metrics(0.9 + 0j, 0 - 0.9j)
    np.testing.assert_allclose(m.loss0_db, 0.9151498112135024, rtol=1e-12)
    np.testing.assert_allclose(m.loss1_db, 0.9151498112135024, rtol=1e-12)
    np.testing.assert_allclose(m.phase_diff_deg, 90.0)


def test_coding_metrics_full_reflection_is_lossless():
    m = nc.coding_metrics(1.0 + 0j, -1.0 + 0j)
    assert m.loss0_db == 0.0
    assert m.loss1_db == 0.0
    np.testing.assert_allclose(m.phase_diff_deg, 180.0)


def test_coding_metrics_rejects_nonphysical():
    with pytest.raises(ValueError):
        nc.coding_metrics(0.0 + 0j, 0.5 + 0j)
    with pytest.raises(ValueError):
        nc.coding_metrics(0.5 + 0j, 1.1 + 0j)


# --- array forms ------------------------------------------------------------


_GRID = freq_grid()
_S22 = response_batch(expand_genome(unpack_genome("00003FC000E00000")))[0]
_GL = [nc.reflection_of_load(nc.switch_impedance(nc.PIN_SWITCH, s, _GRID)) for s in (0, 1)]


def _metrics(g0, g1):
    m = nc.coding_metrics(g0, g1)
    return np.array([m.loss0_db, m.loss1_db, m.phase_diff_deg])


LOADED_FORMS = {
    "switch_impedance": (
        lambda f: np.array([nc.switch_impedance(nc.PIN_SWITCH, s, f) for s in (0, 1)]),
        (_GRID,),
    ),
    "reflection_of_load": (
        nc.reflection_of_load,
        (nc.switch_impedance(nc.PIN_SWITCH, 1, _GRID),),
    ),
    "gamma1_reduced": (nc.gamma1_reduced, (np.abs(_S22), np.angle(_S22), _GL[1])),
    "coding_metrics": (
        _metrics,
        tuple(nc.gamma1_reduced(np.abs(_S22), np.angle(_S22), gl) for gl in _GL),
    ),
}


@pytest.mark.parametrize("name", sorted(LOADED_FORMS))
def test_loaded_state_array_forms_match_scalar_calls(name):
    """One call on the 61-point grid equals 61 scalar calls, up to the last
    bits numpy's complex division rounds differently from Python's."""
    fn, args = LOADED_FORMS[name]
    whole = np.moveaxis(np.asarray(fn(*args)), -1, 0)
    each = np.array([fn(*(a[k].item() for a in args)) for k in range(len(_GRID))])
    assert whole.shape == each.shape
    np.testing.assert_allclose(whole, each, rtol=8 * np.finfo(float).eps, atol=0.0)
