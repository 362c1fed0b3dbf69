"""Deterministic electrical stand-in for full-wave element simulation.

This is openly a lumped-element model, not electromagnetics: the 16x16 metal
grid is reduced to six geometry features and those features steer a fixed
one-port circuit.  It exists so the full pipeline (dataset, surrogate, GA,
validation) can run desk-scale with a reproducible ground truth that has the
right qualitative behavior: multi-resonant, strictly passive, smooth in
frequency, and factoring exactly through the features.

Circuit seen from the port (reference impedance eta = 377 ohm):

    z_series = jw*L_LEAD + 1/(jw*C_gap)        C_gap = C_GAP0 + C_GAP1*(1-rho_center)
    y1 = 1/(jw*L1 + 1/(jw*C1))                 L1 = L_A + L_B*(1-v_conn)
                                               C1 = C_A + C_B*rho + C_C*e_h
    y2 = 1/(jw*L2 + 1/(jw*C2))                 L2 = L2_0*(1+q_cb)
                                               C2 = C2_0*(1+e_v)
    y_stub = 1/(j*(eta/sqrt(eps_r))*tan(2*pi*f*sqrt(eps_r)*h/c0))
    z_in = z_series + 1/(y1 + y2 + y_stub + 1/eta)
    s22 = (z_in - eta)/(z_in + eta)

Every reactive element is lossless; the only real conductance is the 1/eta
radiation shunt, which keeps |s22| < 1 strictly.  The stub's quarter-wave
singularity sits near 26.4 GHz, far above the 2.8-8.8 GHz grid.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .netcalc import C0, FREE_SPACE_ETA
from .pattern import GENOME_BITS, GENOME_SIDE, GRID_SIDE, GeometryMeta, is_mirror_symmetric
from .rng import bits_to_u64

FREQ_START = 2.8e9  # Hz
FREQ_STEP = 0.1e9  # Hz
N_FREQ = 61

FEATURE_NAMES = ("rho", "v_conn", "e_h", "e_v", "rho_center", "q_cb")

# Entries nearer a branch series resonance than this are re-evaluated 1 Hz up.
_POLE_EPS = 1e-15

# Rows per block for the per-row arrays of the oracle and dataset paths.  The
# s22 kernel's temporaries for one block (about twenty 512 x 61 complex arrays
# of 0.5 MB) are reused from the heap block after block; whole-chunk ones were
# handed back to the OS and page-faulted in again on every call.
ROW_BLOCK = 512


def freq_grid() -> np.ndarray:
    """The fixed 61-point evaluation grid, 2.8 to 8.8 GHz inclusive."""
    return FREQ_START + FREQ_STEP * np.arange(N_FREQ)


@dataclass(frozen=True)
class OracleConstants:
    """Lumped constants mapping grid features to the circuit (SI units)."""

    l_lead: float = 0.15e-9
    c_gap0: float = 0.06e-12
    c_gap1: float = 0.15e-12
    c_a: float = 25e-15
    c_b: float = 180e-15
    c_c: float = 120e-15
    l_a: float = 0.8e-9
    l_b: float = 1.6e-9
    l2_0: float = 0.5e-9
    c2_0: float = 75e-15

    def __post_init__(self):
        for name, value in asdict(self).items():
            if value <= 0:
                raise ValueError(f"{name} must be positive")


def fingerprint(consts: OracleConstants, geom: GeometryMeta) -> str:
    """16-hex digest of the constants + geometry that define the model."""
    payload = json.dumps(
        {"oracle": asdict(consts), "geometry": asdict(geom)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------


# Genome words hold quadrant row r in byte 7 - r and column c in bit 7 - c of
# that byte (pattern.pack_genome's order), so a right shift by 1 brings a
# cell's right-hand neighbour onto it and a right shift by 8 the cell below.
_HAS_RIGHT = 0x7F7F7F7F7F7F7F7F  # cells in columns 0-6
_HAS_BELOW = 0x00FFFFFFFFFFFFFF  # cells in rows 0-6
_CORNER = 0x0F0F0F0F  # rows 4-7, columns 4-7
_ROW_SHIFTS = np.arange(0, 64, 8, dtype=np.uint64)[:, None]


def _count(x: np.ndarray) -> np.ndarray:
    return np.bitwise_count(x).astype(np.int64)


def _quadrant_counts(w: np.ndarray) -> tuple[np.ndarray, ...]:
    """(k,) uint64 genome words -> the five (k,) int64 counts of feature_codes."""
    # starts[j]: cells that start a vertical run of j + 1 or more metal cells
    starts = w << _ROW_SHIFTS
    for j in range(1, GENOME_SIDE):
        starts[j] &= starts[j - 1]
    # longer[j]: the columns holding such a run, as the OR of the eight rows
    longer = starts | starts >> 32
    longer |= longer >> 16
    longer |= longer >> 8
    longer &= 0xFF
    # ending[j]: the columns whose run ending at row 7 has j + 1 cells or more
    ending = (starts >> _ROW_SHIFTS) & 0xFF
    # max(longest, 2 x ending) of a column is the number of i >= 1 with
    # longest >= i or ending >= ceil(i / 2); longest is at most 8
    s = (_count(longer | ending[[0, 0, 1, 1, 2, 2, 3, 3]]).sum(axis=0)
         + 2 * _count(ending[4:]).sum(axis=0))
    n = _count(w)
    h = _count((w ^ w >> 1) & _HAS_RIGHT)
    v = _count((w ^ w >> 8) & _HAS_BELOW)
    c = _count(w & _CORNER)
    return n, s, h, v, c


def features_batch(grids) -> np.ndarray:
    """(n, 16, 16) or (16, 16) mirrored grids -> (n, 6) feature rows in FEATURE_NAMES order.

    Each feature lies in [0, 1]: rho is the overall metal fill, v_conn the
    mean per-column longest vertical metal run / 16, e_h and e_v the
    horizontally and vertically dissimilar neighbor pairs / (16*15),
    rho_center the fill of the central 8x8 block, q_cb |rho_center - rho_border|.
    They are computed from the quadrant counts that feature_codes packs (the
    grid's are 4x those, 2x for s); an unmirrored grid raises ValueError.
    """
    g = np.asarray(grids).astype(bool, copy=False)
    if g.ndim == 2:
        g = g[None, :, :]
    if g.shape[1:] != (GRID_SIDE, GRID_SIDE):
        raise ValueError(f"expected (n, {GRID_SIDE}, {GRID_SIDE}) grids, got {g.shape}")
    if not is_mirror_symmetric(g):
        raise ValueError("grids must have the four-fold mirror symmetry of expand_genome")
    quadrant = g[:, :GENOME_SIDE, :GENOME_SIDE].reshape(-1, GENOME_BITS)
    n, s, h, v, c = _quadrant_counts(bits_to_u64(quadrant))
    rho = 4 * n / GRID_SIDE**2
    v_conn = 2 * s / GRID_SIDE / GRID_SIDE
    e_h = 4 * h / (GRID_SIDE * (GRID_SIDE - 1))
    e_v = 4 * v / (GRID_SIDE * (GRID_SIDE - 1))
    center = 4 * c / 64
    border = (rho * GRID_SIDE**2 - center * 64.0) / (GRID_SIDE**2 - 64.0)
    q_cb = np.abs(center - border)
    return np.stack([rho, v_conn, e_h, e_v, center, q_cb], axis=1)


def word_codes(words) -> np.ndarray:
    """(k,) uint64 genome words -> (k,) int64 codes n | s<<7 | h<<16 | v<<24 | c<<32.

    The five integers are counted on the 8x8 quadrant: n its fill, h and v its
    horizontally and vertically dissimilar neighbor pairs (the mirror seams add
    none), c the fill of its [4:, 4:] corner (a quarter of the central block),
    and s the sum over its columns of max(longest run, 2 x the run ending at
    row 7, which the horizontal seam doubles).  features_batch converts these
    same integers to its six floats, so equal codes give byte-equal rows.
    """
    n, s, h, v, c = _quadrant_counts(np.asarray(words, dtype=np.uint64))
    return n | s << 7 | h << 16 | v << 24 | c << 32


def feature_codes(bits) -> np.ndarray:
    """(k, 64) quadrant bits -> the (k,) int64 word_codes of their words."""
    q = np.asarray(bits).astype(bool)
    if q.ndim != 2 or q.shape[1] != GENOME_BITS:
        raise ValueError(f"expected (k, {GENOME_BITS}) genome bits, got {q.shape}")
    return word_codes(bits_to_u64(q))


# ---------------------------------------------------------------------------
# response
# ---------------------------------------------------------------------------


def _s22_kernel(feats: np.ndarray, freqs: np.ndarray, consts: OracleConstants,
                geom: GeometryMeta) -> np.ndarray:
    """(n, 6) features x (n, m) or (m,) freqs -> (n, m) s22, no pole guard."""
    rho = feats[:, 0:1]
    v_conn = feats[:, 1:2]
    e_h = feats[:, 2:3]
    e_v = feats[:, 3:4]
    rho_center = feats[:, 4:5]
    q_cb = feats[:, 5:6]

    w = 2.0 * math.pi * freqs
    eta = FREE_SPACE_ETA

    c_gap = consts.c_gap0 + consts.c_gap1 * (1.0 - rho_center)
    z_series = 1j * w * consts.l_lead + 1.0 / (1j * w * c_gap)

    l1 = consts.l_a + consts.l_b * (1.0 - v_conn)
    c1 = consts.c_a + consts.c_b * rho + consts.c_c * e_h
    zb1 = 1j * w * l1 + 1.0 / (1j * w * c1)

    l2 = consts.l2_0 * (1.0 + q_cb)
    c2 = consts.c2_0 * (1.0 + e_v)
    zb2 = 1j * w * l2 + 1.0 / (1j * w * c2)

    eta_s = eta / math.sqrt(geom.eps_r)
    beta_h = w * math.sqrt(geom.eps_r) * geom.substrate_h / C0
    z_stub = 1j * eta_s * np.tan(beta_h)  # frequency only: (m,) or (n, m)

    singular = (np.abs(zb1) < _POLE_EPS) | (np.abs(zb2) < _POLE_EPS) | (np.abs(z_stub) < _POLE_EPS)
    if np.any(singular):
        # exact branch resonance on a sample: deterministic 1 Hz nudge
        f_adj = np.broadcast_to(freqs, singular.shape) + 1.0
        nudged = _s22_kernel(feats, np.where(singular, f_adj, freqs), consts, geom)
        with np.errstate(divide="ignore", invalid="ignore"):
            plain = _finish(z_series, zb1, zb2, z_stub, eta)
        return np.where(singular, nudged, plain)
    return _finish(z_series, zb1, zb2, z_stub, eta)


def _finish(z_series, zb1, zb2, z_stub, eta):
    y = 1.0 / zb1 + 1.0 / zb2 + 1.0 / z_stub + 1.0 / eta
    z_in = z_series + 1.0 / y
    return (z_in - eta) / (z_in + eta)


def response_batch(grids, consts: OracleConstants = OracleConstants(),
                   geom: GeometryMeta = GeometryMeta(),
                   freqs: np.ndarray | None = None) -> np.ndarray:
    """(n, 16, 16) or (16, 16) mirrored grids -> (n, m) complex s22.

    The m frequencies (Hz) default to the 61-point grid of freq_grid().  The
    output is allocated once and the kernel fills it ROW_BLOCK rows at a time,
    so its temporaries stay a block's size whatever n is.  The kernel is
    elementwise per row, so every output row has the same bits as a one-grid
    call; callers that meet repeated genomes deduplicate them first (the
    oracle GA scores each feature_codes value once).
    """
    f = freq_grid() if freqs is None else np.atleast_1d(np.asarray(freqs, dtype=float))
    if f.ndim != 1:
        raise ValueError(f"expected a 1-D array of frequencies, got shape {f.shape}")
    if np.any(f <= 0):
        raise ValueError("frequencies must be positive")
    feats = features_batch(grids)
    out = np.empty((len(feats), len(f)), dtype=complex)
    for i in range(0, len(feats), ROW_BLOCK):
        out[i:i + ROW_BLOCK] = _s22_kernel(feats[i:i + ROW_BLOCK], f, consts, geom)
    return out
