"""64-bit pixel genomes and their four-fold mirrored 16x16 metal grids.

A genome is the top-left 8x8 quadrant, row-major, bit 0 at (row 0, col 0).
The physical pattern mirrors it about both axes, so every design is symmetric
and the full grid never has to be stored.  Grids are boolean numpy arrays
with True = metal.

The etched gap, lead width and lead length are not rasterized onto the grid;
they live in GeometryMeta and enter the electrical model through its lumped
constants.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

from .rng import u64_to_bits

GENOME_SIDE = 8
GRID_SIDE = 16
GENOME_BITS = GENOME_SIDE * GENOME_SIDE


@dataclass(frozen=True)
class GeometryMeta:
    """Physical cell geometry (SI units).  tan_delta is carried for record
    keeping only; the electrical model is lossless."""

    period: float = 25.8e-3  # element period P
    pixel_side: float = 1.5e-3  # pixel square side L
    pixel_pitch: float = 1.375e-3  # pixel center spacing
    substrate_h: float = 1.52e-3  # substrate thickness h
    eps_r: float = 3.5  # substrate relative permittivity
    tan_delta: float = 0.0018  # substrate loss tangent (metadata only)
    gap: float = 0.3e-3  # etched gap bridged by the switch
    lead_width: float = 0.7e-3  # feed lead width W
    lead_length: float = 11.125e-3  # feed lead length L1
    f0: float = 5.8e9  # design center frequency, Hz

    def __post_init__(self):
        for name in ("period", "pixel_side", "pixel_pitch", "substrate_h",
                     "eps_r", "gap", "lead_width", "lead_length", "f0"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def expand_genome(bits) -> np.ndarray:
    """Mirror 8x8 genomes about both axes into 16x16 grids.

    One genome, (64,) or (8, 8), gives a (16, 16) grid; a batch, (n, 64) or
    (n, 8, 8), gives (n, 16, 16).  Bit (r, c) lands on (r, c), (r, 15-c),
    (15-r, c) and (15-r, 15-c).
    """
    arr = np.asarray(bits)
    if arr.ndim in (1, 2) and arr.shape[-1] == GENOME_BITS:
        arr = arr.reshape(arr.shape[:-1] + (GENOME_SIDE, GENOME_SIDE))
    if arr.ndim not in (2, 3) or arr.shape[-2:] != (GENOME_SIDE, GENOME_SIDE):
        raise ValueError(
            f"expected genome shape (64,), (8, 8), (n, 64) or (n, 8, 8), got {arr.shape}")
    g = arr.astype(bool)
    top = np.concatenate([g, g[..., ::-1]], axis=-1)
    return np.concatenate([top, top[..., ::-1, :]], axis=-2)


def pack_genome(word: int) -> str:
    """Genome word as canonical 16-digit uppercase hex, bit (0, 0) first."""
    if not 0 <= word < 1 << 64:
        raise ValueError(f"genome word out of 64-bit range: {word}")
    return f"{word:016X}"


def unpack_genome(text: str) -> np.ndarray:
    """(8, 8) bool genome of a pack_genome string, in either case."""
    s = text.strip()
    # int(s, 16) alone would also take a sign, a 0x prefix and _ separators
    if len(s) != 16 or not all(ch in string.hexdigits for ch in s):
        raise ValueError(f"genome hex must be 16 hex digits, got {text!r}")
    word = np.array([int(s, 16)], dtype=np.uint64)
    return u64_to_bits(word).reshape(GENOME_SIDE, GENOME_SIDE).astype(bool)


def render_pbm(grid) -> str:
    """Plain PBM (P1) image of a 16x16 grid, 1 = metal."""
    arr = np.asarray(grid).astype(bool)
    if arr.shape != (GRID_SIDE, GRID_SIDE):
        raise ValueError(f"expected ({GRID_SIDE}, {GRID_SIDE}) grid, got {arr.shape}")
    rows = [" ".join("1" if v else "0" for v in row) for row in arr]
    return f"P1\n{GRID_SIDE} {GRID_SIDE}\n" + "\n".join(rows) + "\n"


def is_mirror_symmetric(grid) -> bool:
    """True when a 16x16 grid, or each of a batch, has expand_genome's four-fold symmetry."""
    arr = np.asarray(grid).astype(bool, copy=False)
    return bool(np.array_equal(arr, arr[..., ::-1]) and np.array_equal(arr, arr[..., ::-1, :]))
