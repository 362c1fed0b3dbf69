"""Far-field simulator for a 1-bit coding reflectarray.

Geometry: n_x by n_y elements on a square grid in the z = 0 plane, feed above
the center radiating a cos^q_f pattern, elements radiating cos^q_e.  The
field toward direction u(theta, phi) is

    E = sum_mn [cos^q_f(theta_f,mn) / d_mn] e^{-j k d_mn} Gamma_mn
        cos^q_e(theta) e^{+j k (r_mn . u)}

with d_mn the feed-to-element distance.  On the regular grid the steering
phase k (x_m ux + y_n uy) splits into an x factor and a y factor, so the sum
is taken as sum_m e^{j k x_m ux} sum_n e^{j k y_n uy} A_nm with A the
feed-weighted reflections: n_x + n_y complex exponentials per direction
instead of n_x * n_y.  Element phases are compensated with
phi_mn = +k d_mn - k (r_mn . u0) + phi_ref: the feed term cancels the
incident spherical delay, the steering term forms the beam at u0.  A plane
wave feed option removes the feed amplitude taper and delay entirely, which
turns the boresight case into the textbook uniform-aperture array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .netcalc import C0

TWO_PI = 2.0 * math.pi
PATTERN_FLOOR_DB = -100.0  # lowest level of a normalized pattern cut
SWEEP_FLOOR_DB = -300.0  # lowest level of a normalized frequency sweep
PGM_FLOOR_DB = -40.0  # dB level that renders black in render_pgm
# directions per block of far_field_gammas' (directions, n) factors, so that a
# whole hemisphere holds them a block at a time
DIRECTION_BLOCK = 512


@dataclass(frozen=True)
class ArrayConfig:
    n_x: int = 16
    n_y: int = 16
    spacing: float = 25.8e-3
    feed_xyz: tuple[float, float, float] = (0.0, 0.0, 0.310)
    q_feed: float = 6.0
    q_elem: float = 1.0
    plane_wave_feed: bool = False

    def __post_init__(self):
        if self.n_x < 1 or self.n_y < 1 or self.spacing <= 0:
            raise ValueError("array dimensions must be positive")
        if self.feed_xyz[2] <= 0:
            raise ValueError("feed must sit above the array plane")
        if self.q_feed < 0 or self.q_elem < 0:
            raise ValueError("pattern exponents must be nonnegative")


@dataclass(frozen=True)
class SteerTarget:
    theta_deg: float
    phi_deg: float

    def __post_init__(self):
        if not 0.0 <= self.theta_deg < 90.0:
            raise ValueError("steer theta must lie in [0, 90)")
        if not 0.0 <= self.phi_deg < 360.0:
            raise ValueError("steer phi must lie in [0, 360)")


def _axes(cfg: ArrayConfig) -> tuple[np.ndarray, np.ndarray]:
    """(n_x,) column x and (n_y,) row y coordinates, centered on the origin."""
    xs = (np.arange(cfg.n_x) - (cfg.n_x - 1) / 2.0) * cfg.spacing
    ys = (np.arange(cfg.n_y) - (cfg.n_y - 1) / 2.0) * cfg.spacing
    return xs, ys


def element_positions(cfg: ArrayConfig) -> tuple[np.ndarray, np.ndarray]:
    """(n_y, n_x) x and y coordinates, array centered on the origin."""
    return np.meshgrid(*_axes(cfg))


def _feed_terms(cfg: ArrayConfig, k0: float) -> tuple[np.ndarray, np.ndarray]:
    """(n_y, n_x) feed amplitude and phase per element (radians, delay negative)."""
    if cfg.plane_wave_feed:
        shape = (cfg.n_y, cfg.n_x)
        return np.ones(shape), np.zeros(shape)
    xs, ys = _axes(cfg)
    # numpy scalars: fz**2 overflows to inf, and rounds as Python's pow does
    fx, fy, fz = map(np.float64, cfg.feed_xyz)
    d = np.sqrt((xs[None, :] - fx) ** 2 + (ys[:, None] - fy) ** 2 + fz**2)
    amp = (fz / d) ** cfg.q_feed / d
    return amp, -k0 * d


def steer_unit(steer: SteerTarget) -> tuple[float, float, float]:
    t = math.radians(steer.theta_deg)
    p = math.radians(steer.phi_deg)
    return (math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t))


def ideal_phase(cfg: ArrayConfig, steer: SteerTarget, f: float,
                ref_phase: float = 0.0) -> np.ndarray:
    """Continuous compensation phases, wrapped to [0, 2*pi); ValueError when
    the geometry and frequency make one of them overflow."""
    if f <= 0:
        raise ValueError("frequency must be positive")
    k0 = TWO_PI * f / C0
    with np.errstate(all="ignore"):
        x, y = element_positions(cfg)
        _, feed_phase = _feed_terms(cfg, k0)
        ux, uy, _ = steer_unit(steer)
        phases = -feed_phase - k0 * (x * ux + y * uy) + ref_phase
    if not np.isfinite(phases).all():
        raise ValueError(f"element phases at {f:g} Hz overflow for this array geometry")
    return np.mod(phases, TWO_PI)


def quantize_1bit(phases: np.ndarray) -> np.ndarray:
    """Code 0 for phase in [0, pi), code 1 for [pi, 2*pi); pi itself is 1."""
    return (np.mod(np.asarray(phases), TWO_PI) >= math.pi).astype(np.uint8)


def gammas_from_codes(codes: np.ndarray, gamma0: complex, gamma1: complex) -> np.ndarray:
    codes = np.asarray(codes)
    return np.where(codes.astype(bool), complex(gamma1), complex(gamma0))


def far_field_gammas(cfg: ArrayConfig, gammas: np.ndarray, f: float,
                     thetas_deg: np.ndarray, phi_deg: float | np.ndarray = 0.0) -> np.ndarray:
    """Complex field toward the 1-D set of directions (theta, phi) that
    thetas_deg and phi_deg broadcast to; a scalar phi gives one cut, where
    negative theta means the phi+180 side."""
    gammas = np.asarray(gammas, dtype=complex)
    if gammas.shape != (cfg.n_y, cfg.n_x):
        raise ValueError(f"gammas must be ({cfg.n_y}, {cfg.n_x}), got {gammas.shape}")
    k0 = TWO_PI * f / C0
    t, p = np.broadcast_arrays(np.radians(np.asarray(thetas_deg, dtype=float)),
                               np.radians(phi_deg))
    e = np.empty(t.shape, dtype=complex)
    # an overflow leaves inf or nan in the field, which _peak_db refuses
    with np.errstate(all="ignore"):
        xs, ys = _axes(cfg)
        amp, feed_phase = _feed_terms(cfg, k0)
        excite = amp * gammas * np.exp(1j * feed_phase)
        ux = np.sin(t) * np.cos(p)
        uy = np.sin(t) * np.sin(p)
        elem = np.cos(t) ** cfg.q_elem
        # the steering phase separates per axis: sum rows with (D, n_y) y
        # factors, then columns with (D, n_x) x factors
        for i in range(0, len(e), DIRECTION_BLOCK):
            d = slice(i, i + DIRECTION_BLOCK)
            ex = np.exp(1j * k0 * np.multiply.outer(ux[d], xs))
            ey = np.exp(1j * k0 * np.multiply.outer(uy[d], ys))
            e[d] = ((ey @ excite) * ex).sum(axis=1) * elem[d]
    return e


def _peak_db(power: np.ndarray, floor_db: float) -> np.ndarray:
    """10 log10 of power over its peak, floored at floor_db; all floor when
    the peak is 0, ValueError when a power is not finite."""
    if not np.isfinite(power).all():
        raise ValueError("the far field overflows for this array geometry and frequency")
    peak = power.max()
    if peak == 0.0:
        return np.full_like(power, floor_db)
    return 10.0 * np.log10(np.maximum(power / peak, 10.0 ** (floor_db / 10.0)))


def pattern_db(cfg: ArrayConfig, gammas: np.ndarray, f: float,
               thetas_deg: np.ndarray, phi_deg: float | np.ndarray = 0.0) -> np.ndarray:
    """|E|^2 toward the directions of far_field_gammas, normalized so the
    peak sits at 0 dB."""
    e = far_field_gammas(cfg, gammas, f, thetas_deg, phi_deg)
    with np.errstate(over="ignore"):
        power = np.abs(e) ** 2
    return _peak_db(power, PATTERN_FLOOR_DB)


def _check_reflections(*gammas) -> None:
    """ValueError unless every element reflection is finite with |gamma| <= 1."""
    if not (np.abs(np.asarray(gammas, dtype=complex)) <= 1.0 + 1e-9).all():  # NaN fails too
        raise ValueError("element reflections must be finite, of magnitude at most 1")


def far_field(cfg: ArrayConfig, codes: np.ndarray, gamma0: complex, gamma1: complex,
              f: float, thetas_deg: np.ndarray, phi_deg: float | np.ndarray = 0.0) -> np.ndarray:
    """Normalized 1-bit pattern for a coding matrix and two element states."""
    _check_reflections(gamma0, gamma1)
    g = gammas_from_codes(codes, gamma0, gamma1)
    return pattern_db(cfg, g, f, thetas_deg, phi_deg)


def default_cut(step_deg: float = 0.25) -> np.ndarray:
    """Elevation angles from -90 to 90 degrees in steps of step_deg."""
    if not (math.isfinite(step_deg) and 0.001 <= step_deg <= 90.0):
        raise ValueError(f"cut step must lie in [0.001, 90] degrees, got {step_deg}")
    n = int(round(180.0 / step_deg))
    return -90.0 + step_deg * np.arange(n + 1)


# ---------------------------------------------------------------------------
# frequency sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepResult:
    freqs: np.ndarray
    power_db: np.ndarray
    band: tuple[float, float] | None
    bandwidth_pct: float


def spectral_power_sweep(cfg: ArrayConfig, freqs: np.ndarray,
                         gamma0_spec: np.ndarray, gamma1_spec: np.ndarray,
                         steer: SteerTarget, f0: float = 5.8e9,
                         ref_phase: float = 0.0) -> SweepResult:
    """Power toward the steer direction vs frequency, codes frozen at f0.

    The coding matrix is computed once at f0 (a hardware-static pattern) and
    per frequency the two element states take the supplied reflection
    spectra.  Output is normalized to its own peak; the reported band is the
    contiguous run of grid frequencies around f0 staying within 3 dB of the
    peak, as (lo, hi) and as a percentage of the band center.  With no power
    at any frequency every row sits at the floor and no band is reported.
    """
    freqs = np.asarray(freqs, dtype=float)
    g0 = np.asarray(gamma0_spec, dtype=complex)
    g1 = np.asarray(gamma1_spec, dtype=complex)
    if not (len(freqs) == len(g0) == len(g1)):
        raise ValueError("freqs and reflection spectra must share one length")
    _check_reflections(g0, g1)
    k0_idx = int(np.argmin(np.abs(freqs - f0)))
    codes = quantize_1bit(ideal_phase(cfg, steer, f0, ref_phase))

    power = np.empty(len(freqs))
    theta = np.array([steer.theta_deg])
    for k, f in enumerate(freqs):
        gammas = gammas_from_codes(codes, complex(g0[k]), complex(g1[k]))
        e = far_field_gammas(cfg, gammas, float(f), theta, steer.phi_deg)
        with np.errstate(over="ignore"):
            power[k] = float(np.abs(e[0]) ** 2)

    power_db = _peak_db(power, SWEEP_FLOOR_DB)
    ok = power_db >= -3.0
    if not ok[k0_idx]:
        return SweepResult(freqs, power_db, None, 0.0)
    lo = k0_idx
    while lo > 0 and ok[lo - 1]:
        lo -= 1
    hi = k0_idx
    while hi < len(freqs) - 1 and ok[hi + 1]:
        hi += 1
    f_lo, f_hi = float(freqs[lo]), float(freqs[hi])
    center = 0.5 * (f_lo + f_hi)
    return SweepResult(freqs, power_db, (f_lo, f_hi), 100.0 * (f_hi - f_lo) / center)


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------


def render_pgm(values_db: np.ndarray) -> str:
    """Plain PGM (P2) of a dB map; PGM_FLOOR_DB..0 maps to 0..255."""
    v = np.asarray(values_db, dtype=float)
    if v.ndim != 2:
        raise ValueError("PGM rendering needs a 2-D map")
    scaled = np.clip((v - PGM_FLOOR_DB) / -PGM_FLOOR_DB, 0.0, 1.0)
    pix = np.round(scaled * 255.0).astype(int)
    rows = [" ".join(str(p) for p in row) for row in pix]
    return f"P2\n{v.shape[1]} {v.shape[0]}\n255\n" + "\n".join(rows) + "\n"
