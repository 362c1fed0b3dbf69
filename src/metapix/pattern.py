"""64-bit pixel genomes and their four-fold mirrored 16x16 metal grids.

A genome is the top-left 8x8 quadrant, row-major, bit 0 at (row 0, col 0).
The physical pattern mirrors it about both axes, so every design is symmetric
and the full grid never has to be stored.  Grids are boolean numpy arrays
with True = metal.

The etched gap, lead width and lead length are not rasterized onto the grid,
and nothing models them: the electrical model reads the grid's features and
GeometryMeta's substrate only.
"""

from __future__ import annotations

import string
from dataclasses import asdict, dataclass

import numpy as np

from .rng import u64_to_bits

GENOME_SIDE = 8
GRID_SIDE = 16
GENOME_BITS = GENOME_SIDE * GENOME_SIDE


@dataclass(frozen=True)
class GeometryMeta:
    """The cell's substrate, as the oracle's stub reads it (SI units)."""

    substrate_h: float = 1.52e-3  # substrate thickness h
    eps_r: float = 3.5  # substrate relative permittivity

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not 0 < value < np.inf:  # also false for NaN
                raise ValueError(f"{name} must be finite and positive, got {value}")


def expand_genome(bits) -> np.ndarray:
    """Mirror 8x8 genomes about both axes into 16x16 grids.

    One genome, (64,) or (8, 8), gives a (16, 16) grid; a batch, (n, 64) or
    (n, 8, 8), gives (n, 16, 16).  Bit (r, c) lands on (r, c), (r, 15-c),
    (15-r, c) and (15-r, 15-c).

    The grid is built from words: a row's 8 bool cells are one uint64, and
    that word's byteswap is the row mirrored left-right.  Each genome row
    gives the left and right words of its grid row, and the bottom 8 rows
    take them in reverse order.  The result is a bool view of the (n, 16, 2)
    words.
    """
    arr = np.asarray(bits)
    if arr.ndim in (1, 2) and arr.shape[-1] == GENOME_BITS:
        arr = arr.reshape(arr.shape[:-1] + (GENOME_SIDE, GENOME_SIDE))
    if arr.ndim not in (2, 3) or arr.shape[-2:] != (GENOME_SIDE, GENOME_SIDE):
        raise ValueError(
            f"expected genome shape (64,), (8, 8), (n, 64) or (n, 8, 8), got {arr.shape}")
    left = np.ascontiguousarray(arr, dtype=bool).view(np.uint64)[..., 0]
    right = left.byteswap()
    words = np.empty(left.shape[:-1] + (GRID_SIDE, 2), dtype=np.uint64)
    # written from left and right, not from the top rows: numpy would copy a
    # source that shares memory with the destination into a temporary first
    words[..., :GENOME_SIDE, 0] = left
    words[..., :GENOME_SIDE, 1] = right
    words[..., GENOME_SIDE:, 0] = left[..., ::-1]
    words[..., GENOME_SIDE:, 1] = right[..., ::-1]
    return words.view(bool)


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
    """Plain PBM (P1) image of a 2-D 0/1 array, such as a grid with 1 = metal;
    its columns give the width and its rows the height."""
    arr = np.asarray(grid).astype(bool)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {arr.shape}")
    rows = [" ".join("1" if v else "0" for v in row) for row in arr]
    return f"P1\n{arr.shape[1]} {arr.shape[0]}\n" + "\n".join(rows) + "\n"


def is_mirror_symmetric(grid) -> bool:
    """True when a 16x16 grid, or each of a batch, has expand_genome's four-fold symmetry.

    The check runs on rows as expand_genome builds them, two uint64 words of
    8 bool cells each: the left words of rows 0-7 equal those of rows 15-8,
    and on every row the right word is the byteswap of the left.  Any other
    shape raises ValueError.
    """
    arr = np.ascontiguousarray(grid, dtype=bool)
    if arr.shape[-2:] != (GRID_SIDE, GRID_SIDE):
        raise ValueError(f"expected (..., {GRID_SIDE}, {GRID_SIDE}) grids, got {arr.shape}")
    words = arr.view(np.uint64)
    top, bottom = words[..., :GENOME_SIDE, :], words[..., GENOME_SIDE:, :]
    # byteswapped 8 rows at a time, so that for a batch of 1024 grids (a
    # dataset block) the temporary takes 64 KiB, under glibc's 128 KiB mmap
    # threshold
    return bool(np.array_equal(top[..., 0], bottom[..., ::-1, 0])
                and all(np.array_equal(half[..., 1], half[..., 0].byteswap())
                        for half in (top, bottom)))
