"""Deterministic electrical stand-in for full-wave element simulation.

This is openly a lumped-element model, not electromagnetics: the 16x16 metal
grid is reduced to six geometry features and those features steer a fixed
one-port circuit.  It exists so the full pipeline (dataset, surrogate, GA,
validation) can run desk-scale with a reproducible ground truth that has the
right qualitative behavior: multi-resonant, passive, smooth in frequency,
and factoring exactly through the features.

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
radiation shunt, which keeps |s22| < 1 off resonance.  At an exact branch
series resonance on a grid row the branch shorts the shunt, and s22 is the
lossless series arm's total reflection, |s22| = 1 to within rounding.  The
stub's quarter-wave singularity sits near 26.4 GHz, far above the 2.8-8.8 GHz
grid.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .netcalc import C0, FREE_SPACE_ETA
from .pattern import GENOME_BITS, GENOME_SIDE, GRID_SIDE, GeometryMeta, is_mirror_symmetric

FREQ_START = 2.8e9  # Hz
FREQ_STEP = 0.1e9  # Hz
N_FREQ = 61
GRID_TOLERANCE_HZ = 1.0  # how far a file's or flag's grid frequency may be off its row

FEATURE_NAMES = ("rho", "v_conn", "e_h", "e_v", "rho_center", "q_cb")

# Rows per s22 kernel call.  The kernel gathers and computes its (rows, 61)
# arrays in scratch reused from block to block (_kernel_scratch), beside the
# reactance tables the module holds (_held_tables); what it still allocates
# per block (the block's counts and table rows, bool masks, numpy's 64 KiB
# iterator buffers) stays under glibc's 128 KiB mmap threshold, as does a
# (256, 61) float64 array at 124,928 bytes.  A larger allocation is a fresh
# mmap, page-faulted in and unmapped again on free: with every temporary
# allocated per block, 512-row blocks ran at half the speed per row of
# 256-row ones in a fresh process.
KERNEL_BLOCK = 256


def freq_grid() -> np.ndarray:
    """The fixed 61-point evaluation grid, 2.8 to 8.8 GHz inclusive."""
    return FREQ_START + FREQ_STEP * np.arange(N_FREQ)


def grid_row(f: float) -> int:
    """Index of the grid frequency nearest f; an exact half step rounds toward
    lower frequency.  A frequency nearest no row raises ValueError."""
    idx = math.ceil((f - FREQ_START) / FREQ_STEP - 0.5)
    if not 0 <= idx < N_FREQ:
        raise ValueError(f"frequency {f} Hz is off the evaluation grid")
    return idx


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
            if not 0 < value < math.inf:  # also false for NaN
                raise ValueError(f"{name} must be finite and positive, got {value}")


# The paper cell's dimensions, loss tangent and design frequency, which the model does not
# read; fingerprint hashes them as the geometry fields they once were, keeping its digests.
_PAPER_CELL = {"period": 25.8e-3, "pixel_side": 1.5e-3, "pixel_pitch": 1.375e-3, "gap": 0.3e-3,
               "lead_width": 0.7e-3, "lead_length": 11.125e-3, "tan_delta": 0.0018, "f0": 5.8e9}


def fingerprint(consts: OracleConstants, geom: GeometryMeta) -> str:
    """16-hex digest of the constants + geometry that define the model."""
    payload = json.dumps(
        {"oracle": asdict(consts), "geometry": _PAPER_CELL | asdict(geom)},
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
    """(k,) uint64 genome words -> the five (k,) int64 counts that word_codes packs."""
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
    """(n, 16, 16) or (16, 16) mirrored grids -> the (n,) int64 word_codes of their quadrants.

    An unmirrored grid raises ValueError.  is_mirror_symmetric checks the
    grids; the quadrant's genome words are then bytes 0, 2, ..., 14 of the 32
    that np.packbits makes of each grid, its rows 0-7 left of the vertical
    seam, read big-endian.  code_features turns the codes into feature rows.
    """
    g = np.ascontiguousarray(grids, dtype=bool)
    if g.ndim == 2:
        g = g[None, :, :]
    if g.shape[1:] != (GRID_SIDE, GRID_SIDE):
        raise ValueError(f"expected (n, {GRID_SIDE}, {GRID_SIDE}) grids, got {g.shape}")
    if not is_mirror_symmetric(g):
        raise ValueError("grids must have the four-fold mirror symmetry of expand_genome")
    rows = np.packbits(g.reshape(-1)).reshape(len(g), GRID_SIDE, GRID_SIDE // 8)
    return word_codes(np.ascontiguousarray(rows[:, :GENOME_SIDE, 0]).view(">u8")[:, 0])


def _count_features(n, s, h, v, c) -> np.ndarray:
    """The five (k,) int64 quadrant counts -> (k, 6) feature rows."""
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
    row 7, which the horizontal seam doubles).  features_batch gives the same
    codes for the mirrored grids of these words.
    """
    n, s, h, v, c = _quadrant_counts(np.asarray(words, dtype=np.uint64))
    return n | s << 7 | h << 16 | v << 24 | c << 32


def code_features(codes) -> np.ndarray:
    """(k,) int64 word_codes -> (k, 6) feature rows in FEATURE_NAMES order.

    Each feature lies in [0, 1] and is the full grid's: rho is the overall
    metal fill, v_conn the mean per-column longest vertical metal run / 16,
    e_h and e_v the horizontally and vertically dissimilar neighbor pairs /
    (16*15), rho_center the fill of the central 8x8 block, q_cb |rho_center -
    rho_border|.  The grid's counts are 4x the code's (2x for s).  Equal codes
    give byte-equal rows.
    """
    return _count_features(*_code_fields(np.asarray(codes, dtype=np.int64)).T)


# word_codes' fields n, s, h, v and c as (shift, mask); c's mask keeps every
# bit above it, so a stray high bit or a negative code gives an out-of-range c
_CODE_SHIFTS = np.array([0, 7, 16, 24, 32])
_CODE_MASKS = np.array([0x7F, 0x1FF, 0xFF, 0xFF, -1])


def _code_fields(codes: np.ndarray) -> np.ndarray:
    """(k,) int64 word_codes -> (k, 5) int64 fields n, s, h, v, c."""
    fields = codes[:, None] >> _CODE_SHIFTS
    fields &= _CODE_MASKS
    return fields


# ---------------------------------------------------------------------------
# response
# ---------------------------------------------------------------------------


# The largest value of each quadrant count n, s, h, v and c: a code field
# above it is refused (_code_rows), and the tables hold a row per value up to it.
_COUNT_MAX = np.array([GENOME_BITS, 2 * GENOME_BITS, GENOME_SIDE * (GENOME_SIDE - 1),
                       GENOME_SIDE * (GENOME_SIDE - 1), GENOME_BITS // 4])
_N_VALUES, _S_VALUES, _H_VALUES, _V_VALUES, _C_VALUES = (_COUNT_MAX + 1).tolist()


def _build_tables(consts: OracleConstants, geom: GeometryMeta) -> tuple:
    """The s22 kernel's reactance terms of (consts, geom) on freq_grid().

    Five read-only float64 tables hold one row of N_FREQ per value of the
    counts their term depends on:
    - x_series = w*l_lead - 1/(w*c_gap), row c;
    - w*l1, row s;
    - 1/(w*c1), row n * 57 + h;
    - w*l2, row n * 17 + c;
    - 1/(w*c2), row v.
    The stub's (N_FREQ,) reactance, which depends on frequency only, follows
    them.

    Each entry is computed from the features that _count_features gives its
    counts, by the IEEE operations that the circuit of the module docstring
    performs on a feature row, so a gathered entry has the bits of one
    computed per row.  The (rows, N_FREQ) products are taken in place in the
    tables, so the build allocates little beside them.
    """
    w = 2.0 * math.pi * freq_grid()
    # row i: the features of count value i taken as every count at once,
    # as each count but q_cb's pair (n, c) fixes its feature alone; s has the
    # most values, and the other counts' features are sliced to theirs
    i = np.arange(_S_VALUES)
    rho, v_conn, e_h, e_v, rho_center, _ = _count_features(i, i, i, i, i).T[:, :, None]
    n, c = np.divmod(np.arange(_N_VALUES * _C_VALUES), _C_VALUES)
    q_cb = _count_features(n, 0 * n, 0 * n, 0 * n, c)[:, 5:]
    c_gap = consts.c_gap0 + consts.c_gap1 * (1.0 - rho_center[:_C_VALUES])
    l1 = consts.l_a + consts.l_b * (1.0 - v_conn)
    c1 = consts.c_a + consts.c_b * rho[:_N_VALUES] + consts.c_c * e_h[:_H_VALUES].T
    l2 = consts.l2_0 * (1.0 + q_cb)
    c2 = consts.c2_0 * (1.0 + e_v[:_V_VALUES])

    def inverse_wc(c):
        x = np.multiply(w, c)
        return np.divide(1.0, x, out=x)

    x_series = inverse_wc(c_gap)
    np.subtract(w * consts.l_lead, x_series, out=x_series)
    eta_s = FREE_SPACE_ETA / math.sqrt(geom.eps_r)
    beta_h = w * math.sqrt(geom.eps_r) * geom.substrate_h / C0
    tables = (x_series, w * l1, inverse_wc(c1.reshape(-1, 1)), w * l2, inverse_wc(c2),
              eta_s * np.tan(beta_h))
    for table in tables:
        table.flags.writeable = False
    return tables


@functools.lru_cache(maxsize=4)
def _held_tables(consts: OracleConstants, geom: GeometryMeta) -> tuple:
    """_build_tables, built on first use and held for the next calls with
    equal constants and geometry."""
    return _build_tables(consts, geom)


_COUNT_MAX_U64 = _COUNT_MAX.astype(np.uint64)


def _code_rows(codes: np.ndarray, first: int) -> tuple[np.ndarray, ...]:
    """(k,) int64 word_codes -> the five (k,) row indices of their _build_tables entries.

    The counts are the code's packed fields; a field above its count's
    largest value (a negative code included) raises ValueError naming the
    code by its index plus `first`.
    """
    fields = _code_fields(codes)
    # a negative c is a huge unsigned one
    bad = fields.view(np.uint64) > _COUNT_MAX_U64
    if bad.any():
        row = int(np.argmax(bad.any(axis=1)))
        raise ValueError(f"feature code {first + row} has a count beyond its range: "
                         f"{int(codes[row])}")
    n, s, h, v, c = fields.T
    return c, s, n * _H_VALUES + h, n * _C_VALUES + c, v


def _kernel_scratch(rows: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The s22 kernel's scratch for blocks of up to `rows` rows x m frequencies:
    four (rows, m) float64 slabs and two (rows, m) complex128 ones."""
    return np.empty((4, rows, m)), np.empty((2, rows, m), dtype=complex)


def _s22_kernel(rows: tuple[np.ndarray, ...], tables: tuple, out: np.ndarray,
                scratch: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """_code_rows of n codes x _build_tables -> (n, N_FREQ) s22 in out.

    Every element but the 1/eta shunt is lossless, so the series arm, both
    branches and the stub are each one real reactance X and their shunt sum
    is the conductance 1/eta plus the susceptance -1/X1 - 1/X2 - 1/X_stub.
    Only 1/y and the reflection are complex.  numpy's complex products with a
    zero real part are exact and its division of 1 by (0, b) returns
    (+-0, -(1/b)), so the reactances and the susceptance are the IEEE
    operations the complex cascade of the module docstring performs on its
    (0, X) impedances, and the spectra have the bits of that cascade on the
    codes' code_features rows (the oracle tests keep it as the reference).
    X_series is gathered whole from the tables and each branch X = w*L -
    1/(w*C) as one subtraction of two gathered rows.  The (n, N_FREQ) arrays
    are gathered and computed in place in out and in the slabs of scratch
    (_kernel_scratch of >= n rows), which the caller reuses from block to
    block.

    An exact branch resonance on a grid row subtracts to X = +0, so -1/X =
    -inf, y = (1/eta, -inf) and numpy's 1/y = (-0, +0): the branch shorts the
    shunt and s22 is the series arm's reflection (j*X_series - eta) /
    (j*X_series + eta), the circuit's limit there, with no special case.  The
    caller ignores the division by zero that gives -inf.
    """
    by_c, by_s, by_nh, by_nc, by_v = rows
    series, wl1, inv_wc1, wl2, inv_wc2, x_stub = tables
    n = len(by_c)
    x_series, x1, x2, tmp = scratch[0][:, :n]
    y, den = scratch[1][:, :n]
    # every row index is in range (_code_rows), so "clip" moves none; it
    # spares np.take the buffered copy that its default mode makes of out
    np.take(series, by_c, axis=0, out=x_series, mode="clip")
    np.subtract(np.take(wl1, by_s, axis=0, out=x1, mode="clip"),
                np.take(inv_wc1, by_nh, axis=0, out=tmp, mode="clip"), out=x1)
    np.subtract(np.take(wl2, by_nc, axis=0, out=x2, mode="clip"),
                np.take(inv_wc2, by_v, axis=0, out=tmp, mode="clip"), out=x2)
    return _finish(x_series, x1, x2, x_stub, FREE_SPACE_ETA, y, den, out)


def _finish(x_series, x1, x2, x_stub, eta, y, den, out):
    """out = (z_in - eta)/(z_in + eta), z_in = j*x_series + 1/y, with
    y = 1/eta + j*(-1/x1 - 1/x2 - 1/x_stub).

    The steps run in place in x1, x2, y and den, which they overwrite, so
    out, which may be a strided view, is written once.
    """
    b = np.divide(-1.0, x1, out=x1)
    b -= np.divide(1.0, x2, out=x2)
    b -= 1.0 / x_stub
    # the complex cascade adds 1/eta as (1/eta, +0), so the susceptance
    # gets + 0.0, which turns a -0 into +0
    np.add(b, 0.0, out=y.imag)
    y.real = 1.0 / eta
    z_in = np.divide(1.0, y, out=y)
    z_in.imag += x_series
    np.add(z_in, eta, out=den)
    return np.divide(np.subtract(z_in, eta, out=z_in), den, out=out)


def features_response_batch(codes, consts: OracleConstants = OracleConstants(),
                            geom: GeometryMeta = GeometryMeta(),
                            out: np.ndarray | None = None) -> np.ndarray:
    """(n,) integer word_codes -> (n, 61) complex s22 on freq_grid(), written
    into `out` when given.

    `out` may be any (n, 61) complex128 array, a strided view such as the
    "resp" field of dataset records viewed as complex included; it is returned.

    The kernel gathers each reactance from tables per count value
    (_build_tables), which the module builds on first use and holds per
    (constants, geometry), at the row indices read off each code's packed
    counts.  A code with a field beyond its count's range raises ValueError
    naming it; any array that is not (n,) integers is refused.
    The kernel fills the output KERNEL_BLOCK rows at a time, so its
    temporaries stay a block's size whatever n is.  It is elementwise per
    row, so every output row has the same bits as a one-row call; callers
    that meet repeated genomes deduplicate them first (the oracle GA scores
    each word_codes value once).
    """
    return _response(codes, consts, geom, out)


def response_batch(grids, consts: OracleConstants = OracleConstants(),
                   geom: GeometryMeta = GeometryMeta()) -> np.ndarray:
    """(n, 16, 16) or (16, 16) mirrored grids -> (n, 61) complex s22 on freq_grid().

    features_response_batch of the grids' features_batch codes.
    """
    # through _response, so that a traced run (perfbench/spans.py) counts
    # one oracle response per call rather than two nested ones
    return _response(features_batch(grids), consts, geom, None)


def _response(codes, consts, geom, out) -> np.ndarray:
    codes = np.asarray(codes)
    if codes.dtype.kind not in "iu" or codes.ndim != 1:
        raise ValueError(f"expected (n,) integer feature codes, got {codes.dtype} of shape "
                         f"{codes.shape}")
    codes = codes.astype(np.int64, copy=False)
    if out is None:
        out = np.empty((len(codes), N_FREQ), dtype=complex)
    elif out.shape != (len(codes), N_FREQ) or out.dtype != np.complex128:
        raise ValueError(f"out must be a ({len(codes)}, {N_FREQ}) complex128 array, "
                         f"got {out.shape} {out.dtype}")
    scratch = _kernel_scratch(min(KERNEL_BLOCK, len(codes)), N_FREQ)
    # a reactance may overflow to infinity, or a branch resonance make a
    # susceptance -inf (_s22_kernel), and still give a finite s22; a response
    # made non-finite passes through inf/inf or inf - inf
    try:
        with np.errstate(divide="ignore", over="ignore", invalid="raise"):
            tables = _held_tables(consts, geom)
            for i in range(0, len(codes), KERNEL_BLOCK):
                _s22_kernel(_code_rows(codes[i:i + KERNEL_BLOCK], i), tables,
                            out[i:i + KERNEL_BLOCK], scratch)
    except FloatingPointError as exc:
        raise ValueError(f"the oracle response is not finite under {consts} and {geom}") from exc
    return out
