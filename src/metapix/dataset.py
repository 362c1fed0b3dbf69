"""Genome/response datasets: deterministic generation, file format, splits.

A dataset is a flat binary file: one JSON header line, then packed records.
Each record is the 64-bit genome word (big endian, matching the canonical hex
form) followed by the 61-point response with real and imaginary parts
interleaved per frequency, little-endian float64.

Record i of a run is always genome stream_u64(seed, i); together with the
chunk-invariant response evaluation this makes the file contents a pure
function of (n, seed, constants, geometry), whatever the worker count.  The
interleaved "resp" field has exactly the layout of 61 little-endian complex128
values, so the oracle writes a record's response straight into it through a
complex view, and readers take it back the same way.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .jsontypes import loads, read
from .oracle import (
    FREQ_START,
    FREQ_STEP,
    N_FREQ,
    GeometryMeta,
    OracleConstants,
    features_batch,
    features_response_batch,
    fingerprint,
)
from .pattern import expand_genome
from .rng import stream_u64, u64_to_bits

DATASET_VERSION = 1
RESP_WIDTH = 2 * N_FREQ
SPLIT_NUM, SPLIT_DEN = 10, 11  # split trains on 10 of every 11 records

RECORD_DTYPE = np.dtype([("genome", ">u8"), ("resp", "<f8", (RESP_WIDTH,))])

# Records per block when load and summarize walk a record array, so their
# temporaries stay one block's size.
ROW_BLOCK = 512


@dataclass(frozen=True)
class DatasetHeader:
    version: int
    n: int
    seed: int
    fingerprint: str
    freq_start: float
    freq_step: float
    n_freq: int


def _fill(part: np.ndarray, seed: int, start: int, consts: OracleConstants,
          geom: GeometryMeta) -> None:
    """Compute the records at counters start.. in place in `part`."""
    words = stream_u64(seed, start, len(part))
    part["genome"] = words
    features_response_batch(features_batch(expand_genome(u64_to_bits(words))), consts, geom,
                            out=part["resp"].view(np.complex128))


def generate(n: int, seed: int, consts: OracleConstants = OracleConstants(),
             geom: GeometryMeta = GeometryMeta(), jobs: int = 1,
             chunk: int = 4096) -> np.ndarray:
    """n records for (seed, constants); bit-identical for any jobs/chunk.

    Every chunk is computed straight into its slice of the returned array, so
    the records are held once for any jobs.  The chunks run on min(jobs,
    chunks) threads, which write disjoint slices; the kernel's numpy loops
    release the GIL, so the threads run side by side.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    records = np.empty(n, dtype=RECORD_DTYPE)
    starts = range(0, n, chunk)
    with ThreadPoolExecutor(max_workers=min(jobs, len(starts))) as pool:
        list(pool.map(lambda s: _fill(records[s:s + chunk], seed, s, consts, geom), starts))
    return records


def _header_for(records: np.ndarray, seed: int, consts: OracleConstants,
                geom: GeometryMeta) -> DatasetHeader:
    return DatasetHeader(
        version=DATASET_VERSION,
        n=len(records),
        seed=int(seed),
        fingerprint=fingerprint(consts, geom),
        freq_start=FREQ_START,
        freq_step=FREQ_STEP,
        n_freq=N_FREQ,
    )


def save(path: str, records: np.ndarray, seed: int,
         consts: OracleConstants = OracleConstants(),
         geom: GeometryMeta = GeometryMeta()) -> DatasetHeader:
    """Write header + records to `path`; the caller makes the write atomic.

    The body is written straight from the records' own buffer, without a copy.
    """
    records = np.ascontiguousarray(records, dtype=RECORD_DTYPE)
    header = _header_for(records, seed, consts, geom)
    with open(path, "wb") as fh:
        fh.write((json.dumps(header.__dict__, sort_keys=True) + "\n").encode())
        fh.write(records.view(np.uint8))
    return header


def _parse_header(line: bytes, consts: OracleConstants, geom: GeometryMeta,
                  check_fingerprint: bool) -> DatasetHeader:
    try:
        doc = loads(line.decode())
    except ValueError as exc:
        raise ValueError(f"not a dataset file ({exc})") from exc
    header = read(DatasetHeader, doc, "dataset header field")
    if header.version != DATASET_VERSION:
        raise ValueError(f"dataset version {header.version}, expected {DATASET_VERSION}")
    grid = (header.freq_start, header.freq_step, header.n_freq)
    if grid != (FREQ_START, FREQ_STEP, N_FREQ):
        raise ValueError(f"frequency grid {grid} is not {(FREQ_START, FREQ_STEP, N_FREQ)}")
    if check_fingerprint:
        want = fingerprint(consts, geom)
        if header.fingerprint != want:
            raise ValueError(
                f"dataset fingerprint {header.fingerprint} does not match "
                f"the active model constants {want}; regenerate or pass the "
                f"constants it was built with"
            )
    return header


def _check_body(path, n: int, size: int) -> None:
    whole, tail = divmod(size, RECORD_DTYPE.itemsize)
    if tail or whole != n:
        raise ValueError(
            f"{path}: header says {n} records, file holds "
            f"{whole}{' and a partial record' if tail else ''}"
        )


def load(path: str, consts: OracleConstants = OracleConstants(),
         geom: GeometryMeta = GeometryMeta(),
         check_fingerprint: bool = True) -> tuple[DatasetHeader, np.ndarray]:
    """Read a dataset; refuse one built under other model constants or frequencies.

    The header (field types included) and the body size are checked before
    anything is allocated; the body is then read straight into the returned
    records, so they are held once.  A record whose response is not finite is
    refused; the check runs over ROW_BLOCK records at a time.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        try:
            header = _parse_header(line, consts, geom, check_fingerprint)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        _check_body(path, header.n, os.fstat(fh.fileno()).st_size - len(line))
        records = np.empty(header.n, dtype=RECORD_DTYPE)
        _check_body(path, header.n, fh.readinto(records.view(np.uint8)))
    resp = records["resp"]
    for i in range(0, len(resp), ROW_BLOCK):
        finite = np.isfinite(resp[i:i + ROW_BLOCK]).all(axis=1)
        if not finite.all():
            bad = i + int(np.argmin(finite))
            raise ValueError(f"{path}: record {bad} holds a non-finite response")
    return header, records


def split(records: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Leading floor(n*10/11) records for training, the rest for validation."""
    k = len(records) * SPLIT_NUM // SPLIT_DEN
    if k == 0 or k == len(records):
        raise ValueError(f"cannot split {len(records)} records {SPLIT_NUM}/{SPLIT_DEN}")
    return records[:k], records[k:]


def _column_sums(resp: np.ndarray, rows_into) -> np.ndarray:
    """Axis-0 sums of the rows that rows_into(out, block) writes per block.

    Each block is reduced with the running sums as its first row, so every
    column adds its rows one after another, bit-equal to numpy's axis-0 sum
    over the whole stack; one block-sized buffer is reused throughout.
    """
    buf = np.empty((ROW_BLOCK + 1, resp.shape[1]))
    acc = np.zeros(resp.shape[1])  # numpy's add.reduce starts from 0.0 too
    for i in range(0, len(resp), ROW_BLOCK):
        block = resp[i:i + ROW_BLOCK]
        rows = buf[:len(block) + 1]
        rows[0] = acc
        rows_into(rows[1:], block)
        acc = np.add.reduce(rows, axis=0)
    return acc


def summarize(records: np.ndarray) -> dict:
    """Sanity statistics: per-frequency response moments, fill, magnitudes.

    Works on blocks of ROW_BLOCK rows, so beyond the records it holds one
    block of temporaries plus one float per record; the figures are bit-equal
    to numpy's whole-array mean, std, abs and histogram.
    """
    n = len(records)
    if n == 0:
        raise ValueError("cannot summarize an empty dataset")
    resp = records["resp"]
    mag_min, mag_max = np.inf, -np.inf
    s22 = resp.view(np.complex128)
    for i in range(0, n, ROW_BLOCK):
        mags = np.abs(s22[i:i + ROW_BLOCK])
        mag_min, mag_max = min(mag_min, mags.min()), max(mag_max, mags.max())
    # the quadrant's fill is the grid's; a popcount over 64 is exactly the
    # mean of the genome's 64 bits
    fill = np.bitwise_count(records["genome"]) / 64
    # np.std takes the mean as np.mean does, then sums the squared deviations
    mean = _column_sums(resp, np.copyto) / n
    std = np.sqrt(_column_sums(
        resp, lambda out, block: np.square(np.subtract(block, mean, out=out), out=out)) / n)
    hist, edges = np.histogram(fill, bins=16, range=(0.0, 1.0))
    return {
        "n": n,
        "re_mean": mean[0::2].tolist(),
        "re_std": std[0::2].tolist(),
        "im_mean": mean[1::2].tolist(),
        "im_std": std[1::2].tolist(),
        "mag_min": float(mag_min),
        "mag_max": float(mag_max),
        "fill_mean": float(fill.mean()),
        "fill_hist": hist.tolist(),
        "fill_edges": edges.tolist(),
    }
