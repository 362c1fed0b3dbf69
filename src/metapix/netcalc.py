"""Two-port scattering math for switch-terminated reflective elements.

All reflection coefficients are referenced to the free-space wave impedance
ETA = 377 ohms.  The element is a lossless two-port whose port 2 is closed by
a switch impedance; the wave seen at port 1 is

    gamma1 = s11 + s12**2 * gl / (1 - s22 * gl)

with gl the load reflection coefficient.  For a unitary (lossless,
reciprocal) S the response reduces, up to the global phase exp(j*theta11), to

    gamma1_r = (a22 - z) / (1 - a22 * z),   z = exp(j*theta22) * gl

which is what the design target solver works with.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

FREE_SPACE_ETA = 377.0  # port reference impedance, ohms
C0 = 299_792_458.0  # speed of light, m/s

RESIDUAL_CONVERGED = 1e-9  # solver convergence target on |gamma1_0 + gamma1_1|


class SingularityError(ArithmeticError):
    """A denominator that the physical model forbids came out (near) zero."""


class NoContrastError(ValueError):
    """The two load states coincide; the target equation is degenerate."""


def wrap_angle(theta: float) -> float:
    """Wrap an angle in radians into (-pi, pi]."""
    out = math.remainder(theta, 2.0 * math.pi)
    if out <= -math.pi:
        out += 2.0 * math.pi
    return out


# ---------------------------------------------------------------------------
# switch model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RlcBranch:
    """Series RLC branch; c is None when the state has no capacitive part."""

    r: float
    l: float
    c: float | None = None

    def __post_init__(self):
        if not (0 <= self.r < math.inf and 0 <= self.l < math.inf):  # also false for NaN
            raise ValueError(f"switch branch r and l must be finite and nonnegative, got {self}")
        if self.c is not None and not 0 < self.c < math.inf:
            raise ValueError(f"switch branch c must be finite and positive, or null, got {self}")


@dataclass(frozen=True)
class SwitchModel:
    """Two-state series-RLC switch termination (state bit selects the branch)."""

    state0: RlcBranch
    state1: RlcBranch

    def branch(self, state: int) -> RlcBranch:
        if state not in (0, 1):
            raise ValueError(f"switch state must be 0 or 1, got {state}")
        return self.state0 if state == 0 else self.state1


# Series-RLC fit of a C-band PIN diode: state 0 = forward bias (low loss),
# state 1 = reverse bias (capacitive).
PIN_SWITCH = SwitchModel(
    state0=RlcBranch(r=1.0, l=450e-12, c=None),
    state1=RlcBranch(r=10.0, l=450e-12, c=126e-15),
)


def switch_impedance(model: SwitchModel, state: int, f):
    """Series impedance R + jwL + 1/(jwC) of the selected state at f (Hz), scalar or array."""
    f = np.asarray(f, dtype=float)
    if np.any(f <= 0.0):
        raise ValueError(f"frequency must be positive, got {f}")
    br = model.branch(state)
    w = 2.0 * math.pi * f
    x = w * br.l
    if br.c is not None:
        x = x - 1.0 / (w * br.c)
    return br.r + 1j * x


# ---------------------------------------------------------------------------
# reflection maps
# ---------------------------------------------------------------------------


def reflection_of_load(zl):
    """Gamma = (zl - eta) / (zl + eta) elementwise; |Gamma| <= 1 for Re(zl) >= 0."""
    den = zl + FREE_SPACE_ETA
    if np.any(den == 0):
        raise SingularityError("load impedance equals -eta exactly")
    return (zl - FREE_SPACE_ETA) / den


def load_of_reflection(gamma: complex) -> complex:
    """Inverse map zl = eta * (1 + Gamma) / (1 - Gamma)."""
    den = 1.0 - gamma
    if den == 0:
        raise SingularityError("gamma = 1 has no finite load impedance")
    return FREE_SPACE_ETA * (1.0 + gamma) / den


# ---------------------------------------------------------------------------
# two-port response
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoPortS:
    """Reciprocal two-port scattering parameters (s21 = s12)."""

    s11: complex
    s12: complex
    s22: complex


@dataclass(frozen=True)
class UnitaryParams:
    """Constructive parametrization of a lossless reciprocal two-port."""

    a22: float
    theta11: float
    theta22: float

    def __post_init__(self):
        if not 0.0 <= self.a22 <= 1.0:
            raise ValueError(f"a22 must lie in [0, 1], got {self.a22}")
        object.__setattr__(self, "theta11", wrap_angle(self.theta11))
        object.__setattr__(self, "theta22", wrap_angle(self.theta22))


def gamma1_full(s: TwoPortS, gl: complex) -> complex:
    """Port-1 reflection of a two-port closed by load reflection gl."""
    den = 1.0 - s.s22 * gl
    if abs(den) <= 1e-12:
        raise SingularityError("1 - s22*gl is (near) zero; response undefined")
    return s.s11 + s.s12 * s.s12 * gl / den


def unitary_from_params(p: UnitaryParams) -> TwoPortS:
    """Lossless reciprocal S with |s11| = |s22| = a22 and the phase closure
    theta12 = (theta11 + theta22 + pi) / 2 that makes S^H S = I exactly."""
    a = p.a22
    b = math.sqrt(max(0.0, 1.0 - a * a))
    theta12 = 0.5 * (p.theta11 + p.theta22 + math.pi)
    return TwoPortS(
        s11=a * cmath.exp(1j * p.theta11),
        s12=b * cmath.exp(1j * theta12),
        s22=a * cmath.exp(1j * p.theta22),
    )


def gamma1_reduced(a22, theta22, gl):
    """Blaschke form (a22 - z)/(1 - a22*z), z = exp(j*theta22)*gl.

    Equals exp(-j*theta11) * gamma1_full(unitary_from_params(...), gl).
    Arguments broadcast as numpy arrays.
    """
    z = np.exp(1j * np.asarray(theta22)) * gl
    den = 1.0 - a22 * z
    if np.any(np.abs(den) <= 1e-12):
        raise SingularityError("1 - a22*z is (near) zero; response undefined")
    return (a22 - z) / den


# ---------------------------------------------------------------------------
# design target: solve for the element that flips the wave between states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TargetSolution:
    """Smallest-a22 root of gamma1_r(gl0) = -gamma1_r(gl1), plus alternates.

    `minima` holds the exact closed-form roots (at most two) as
    (a22, theta22, residual) sorted by a22, residual being the closure
    |gamma1_0 + gamma1_1| at that root; `converged` is False when no root
    exists (minima empty) or the chosen root's residual is not below 1e-9.
    """

    a22: float
    theta22: float
    residual: float
    converged: bool
    minima: tuple[tuple[float, float, float], ...]


def _closure_residual(x, theta, gl0, gl1):
    """|gamma1_r(gl0) + gamma1_r(gl1)| on broadcastable arrays."""
    u = np.exp(1j * np.asarray(theta))
    x = np.asarray(x)
    g = 0.0
    for gl in (gl0, gl1):
        z = u * gl
        g = g + (x - z) / (1.0 - x * z)
    return np.abs(g)


def solve_target_s22(gl0: complex, gl1: complex) -> TargetSolution:
    """Solve (a-z0)/(1-a*z0) = -(a-z1)/(1-a*z1) for a22 and theta22.

    z_s = exp(j*theta22)*gl_s.  Cross-multiplying gives the quadratic
    (z0+z1)*a**2 - 2*(1+z0*z1)*a + (z0+z1) = 0, i.e. with S = gl0+gl1,
    P = gl0*gl1 and u = exp(j*theta22)

        k = (a**2 + 1) / (2*a) = (conj(u) + u*P) / S,

    which must be real and at least 1 for a real a22 in (0, 1].  Im(k) = 0 is
    A*cos(theta) + B*sin(theta) = 0 with A = Im(conj S) + Im(P*conj S) and
    B = Re(P*conj S) - Re(conj S), so the candidates are
    theta = atan2(-A, B) and theta + pi; each with k >= 1 gives the root
    a22 = k - sqrt(k**2 - 1) (the product of the quadratic's roots is 1, so
    this is the one inside the unit interval).  The smallest-a22 root wins.
    Antipodal loads (S = 0) are already anti-phase: a22 = 0, theta22 = 0.
    """
    if abs(gl0 - gl1) <= 1e-9:
        raise NoContrastError("load states coincide; no phase contrast possible")
    s = gl0 + gl1
    if s == 0:
        return TargetSolution(0.0, 0.0, 0.0, converged=True, minima=((0.0, 0.0, 0.0),))

    p = gl0 * gl1
    sc = s.conjugate()
    theta = math.atan2(-(sc.imag + (p * sc).imag), (p * sc).real - sc.real)
    roots = []
    for t in (theta, wrap_angle(theta + math.pi)):
        k = float(((cmath.exp(-1j * t) + cmath.exp(1j * t) * p) / s).real)
        if k >= 1.0:
            # equals k - sqrt(k**2 - 1) without its cancellation at large k
            a = 1.0 / (k + math.sqrt(k * k - 1.0))
            roots.append((a, t, float(_closure_residual(a, t, gl0, gl1))))
    if not roots:
        return TargetSolution(0.0, 0.0, math.inf, converged=False, minima=())
    a, t, r = min(roots)
    return TargetSolution(a, t, r, converged=r < RESIDUAL_CONVERGED, minima=tuple(sorted(roots)))


# ---------------------------------------------------------------------------
# coding metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CodingMetrics:
    """Per-state reflection loss (dB, >= 0) and state phase difference (deg)."""

    loss0_db: float | np.ndarray
    loss1_db: float | np.ndarray
    phase_diff_deg: float | np.ndarray


def coding_metrics(g0, g1) -> CodingMetrics:
    """loss = -20*log10|gamma| per state; phase diff arg(g0)-arg(g1) in [0,360); elementwise."""
    for name, g in (("g0", g0), ("g1", g1)):
        mag = np.abs(g)
        if np.any((mag == 0.0) | (mag > 1.0 + 1e-9)):
            raise ValueError(f"|{name}| = {mag} outside (0, 1]")
    loss0 = np.maximum(0.0, -20.0 * np.log10(np.abs(g0)))
    loss1 = np.maximum(0.0, -20.0 * np.log10(np.abs(g1)))
    diff = np.degrees(np.angle(g0) - np.angle(g1)) % 360.0
    return CodingMetrics(loss0, loss1, diff)
