"""Genome/response datasets: deterministic generation, file format, splits.

A dataset is a flat binary file: one JSON header line, then packed records.
Each record is the 64-bit genome word (big endian, matching the canonical hex
form) followed by the 61-point response with real and imaginary parts
interleaved per frequency, little-endian float64.

Record i of a run is always genome stream_u64(seed, i); together with the
chunk-invariant response evaluation this makes the file contents a pure
function of (n, seed, constants, geometry), whatever the worker count.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .oracle import (
    FREQ_START,
    FREQ_STEP,
    N_FREQ,
    GeometryMeta,
    OracleConstants,
    fingerprint,
    response_batch,
)
from .pattern import expand_genome
from .rng import stream_u64, u64_to_bits

DATASET_VERSION = 1
RESP_WIDTH = 2 * N_FREQ

RECORD_DTYPE = np.dtype([("genome", ">u8"), ("resp", "<f8", (RESP_WIDTH,))])


@dataclass(frozen=True)
class DatasetHeader:
    version: int
    n: int
    seed: int
    fingerprint: str
    freq_start: float
    freq_step: float
    n_freq: int


def interleave(s22: np.ndarray) -> np.ndarray:
    """(n, 61) complex -> (n, 122) float64, Re/Im alternating per frequency."""
    s22 = np.asarray(s22)
    out = np.empty((s22.shape[0], 2 * s22.shape[1]))
    out[:, 0::2] = s22.real
    out[:, 1::2] = s22.imag
    return out


def deinterleave(resp: np.ndarray) -> np.ndarray:
    """(n, 122) float64 -> (n, 61) complex, inverse of interleave."""
    resp = np.asarray(resp)
    return resp[..., 0::2] + 1j * resp[..., 1::2]


def _make_chunk(seed: int, start: int, count: int,
                consts: OracleConstants, geom: GeometryMeta) -> np.ndarray:
    words = stream_u64(seed, start, count)
    s22 = response_batch(expand_genome(u64_to_bits(words)), consts, geom)
    out = np.empty(count, dtype=RECORD_DTYPE)
    out["genome"] = words
    out["resp"] = interleave(s22)
    return out


def generate(n: int, seed: int, consts: OracleConstants = OracleConstants(),
             geom: GeometryMeta = GeometryMeta(), jobs: int = 1,
             chunk: int = 4096) -> np.ndarray:
    """n records for (seed, constants); bit-identical for any jobs/chunk.

    At most one worker process per chunk is started.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    starts = list(range(0, n, chunk))
    args = [(seed, s, min(chunk, n - s), consts, geom) for s in starts]
    workers = min(jobs, len(args))
    if workers <= 1:
        parts = [_make_chunk(*a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_make_chunk, *zip(*args)))
    # concatenate promotes the big-endian genome field to native order;
    # cast back so in-memory records match the file layout byte for byte
    return np.concatenate(parts).astype(RECORD_DTYPE, copy=False)


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
    """Write header + records atomically (tmp file, then rename)."""
    records = np.ascontiguousarray(records, dtype=RECORD_DTYPE)
    header = _header_for(records, seed, consts, geom)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write((json.dumps(header.__dict__, sort_keys=True) + "\n").encode())
        fh.write(records.tobytes())
    os.replace(tmp, path)
    return header


def load(path: str, consts: OracleConstants = OracleConstants(),
         geom: GeometryMeta = GeometryMeta(),
         check_fingerprint: bool = True) -> tuple[DatasetHeader, np.ndarray]:
    """Read a dataset; refuse one built under other model constants or frequencies."""
    with open(path, "rb") as fh:
        line = fh.readline()
        body = fh.read()
    try:
        header = DatasetHeader(**json.loads(line.decode()))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: not a dataset file ({exc})") from exc
    if header.version != DATASET_VERSION:
        raise ValueError(f"{path}: dataset version {header.version}, expected {DATASET_VERSION}")
    grid = (header.freq_start, header.freq_step, header.n_freq)
    if grid != (FREQ_START, FREQ_STEP, N_FREQ):
        raise ValueError(f"{path}: frequency grid {grid} is not {(FREQ_START, FREQ_STEP, N_FREQ)}")
    if check_fingerprint:
        want = fingerprint(consts, geom)
        if header.fingerprint != want:
            raise ValueError(
                f"{path}: dataset fingerprint {header.fingerprint} does not match "
                f"the active model constants {want}; regenerate or pass the "
                f"constants it was built with"
            )
    whole, tail = divmod(len(body), RECORD_DTYPE.itemsize)
    if tail or whole != header.n:
        raise ValueError(
            f"{path}: header says {header.n} records, file holds "
            f"{whole}{' and a partial record' if tail else ''}"
        )
    return header, np.frombuffer(body, dtype=RECORD_DTYPE)


def split(records: np.ndarray, num: int = 10, den: int = 11) -> tuple[np.ndarray, np.ndarray]:
    """Leading floor(n*num/den) records for training, the rest for validation."""
    if not 0 < num < den:
        raise ValueError("split fraction must be in (0, 1)")
    k = len(records) * num // den
    if k == 0 or k == len(records):
        raise ValueError(f"cannot split {len(records)} records {num}/{den}")
    return records[:k], records[k:]


def summarize(records: np.ndarray) -> dict:
    """Sanity statistics: per-frequency response moments, fill, magnitudes."""
    resp = np.asarray(records["resp"])
    s22 = deinterleave(resp)
    mags = np.abs(s22)
    words = np.asarray(records["genome"], dtype=np.uint64)
    fill = u64_to_bits(words).mean(axis=1)  # the quadrant's fill is the grid's
    hist, edges = np.histogram(fill, bins=16, range=(0.0, 1.0))
    return {
        "n": int(len(records)),
        "re_mean": resp[:, 0::2].mean(axis=0).tolist(),
        "re_std": resp[:, 0::2].std(axis=0).tolist(),
        "im_mean": resp[:, 1::2].mean(axis=0).tolist(),
        "im_std": resp[:, 1::2].std(axis=0).tolist(),
        "mag_min": float(mags.min()),
        "mag_max": float(mags.max()),
        "fill_mean": float(fill.mean()),
        "fill_hist": hist.tolist(),
        "fill_edges": edges.tolist(),
    }
