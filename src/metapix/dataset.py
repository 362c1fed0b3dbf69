"""Genome/response datasets: deterministic generation, file format, splits.

A dataset is a flat binary file: one JSON header line, then packed records.
Each record is the 64-bit genome word (big endian, matching the canonical hex
form) followed by the 61-point response with real and imaginary parts
interleaved per frequency, little-endian float64.

Record i of a run is genome stream_u64(seed, i) and its oracle response, so
the file is a pure function of (n, seed, constants, geometry).  The "resp"
field has the layout of 61 little-endian complex128 values, so the oracle
writes into it through a complex view.

Files are made and read in blocks of BLOCK records.  `save` fills them on one
thread pool into a ring of buffers one longer than the pool, and writes and
hashes them in order on the calling thread.  `FileBlocks` opens a file,
checks its header once and yields its blocks; `load` reads any record range.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from collections import deque
from collections.abc import Iterable, Iterator
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

# Records per block: one fill task of `save`, one buffer of its ring, and one
# block of a file that `FileBlocks` yields.  A fill task's temporaries, about
# 1.2 MB at this size (1 MB of it the s22 kernel's scratch), come once per
# fill thread on top of the ring's buffers of about 1 MB each.
BLOCK = 1024
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
             geom: GeometryMeta = GeometryMeta(), start: int = 0,
             out: np.ndarray | None = None) -> np.ndarray:
    """Records start..start+n-1 of (seed, constants), filled one BLOCK-record
    block at a time straight into their slice of the first n records of `out`,
    or of records allocated here.  `save` passes buffers allocated on its
    calling thread, whose heap gets them back when they are freed (a pool
    thread's malloc arena would keep them).
    """
    if n <= 0:
        raise ValueError("n must be positive")
    records = np.empty(n, dtype=RECORD_DTYPE) if out is None else out[:n]
    if len(records) < n:
        raise ValueError(f"out holds {len(records)} records, fewer than n = {n}")
    for i in range(0, n, BLOCK):
        _fill(records[i:i + BLOCK], seed, start + i, consts, geom)
    return records


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def save(path: str, n: int, seed: int, consts: OracleConstants = OracleConstants(),
         geom: GeometryMeta = GeometryMeta(), jobs: int = 1) -> str:
    """Generate records 0..n-1 of (seed, constants) into a dataset file at
    path; return the file's sha256.

    Each BLOCK-record block is one `generate` task of one pool of w threads,
    w = min(jobs, CPUs this process may run on, blocks of n), filling one of
    w + 1 block buffers allocated on the calling thread.  The calling thread
    writes and hashes the blocks in counter order, straight from their
    buffers, and waits for the oldest block only when every buffer is taken.
    The file is byte-identical for any `jobs`; the caller makes the write
    atomic.
    """
    header = DatasetHeader(
        version=DATASET_VERSION,
        n=n,
        seed=int(seed),
        fingerprint=fingerprint(consts, geom),
        freq_start=FREQ_START,
        freq_step=FREQ_STEP,
        n_freq=N_FREQ,
    )
    workers = max(1, min(jobs, _cpus(), -(-n // BLOCK)))
    ring = [np.empty(BLOCK, dtype=RECORD_DTYPE) for _ in range(workers + 1)]
    filling = deque()
    digest = hashlib.sha256()
    with open(path, "wb") as fh, ThreadPoolExecutor(max_workers=workers) as pool:
        def put(data) -> None:
            fh.write(data)
            digest.update(data)

        put((json.dumps(header.__dict__, sort_keys=True) + "\n").encode())
        for k, s in enumerate(range(0, n, BLOCK)):
            if len(filling) == len(ring):
                put(filling.popleft().result().view(np.uint8))
            filling.append(pool.submit(generate, min(BLOCK, n - s), seed, consts, geom,
                                       start=s, out=ring[k % len(ring)]))
        for block in filling:
            put(block.result().view(np.uint8))
    return digest.hexdigest()


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


def load(path: str, start: int = 0, count: int | None = None, *,
         opened: FileBlocks | None = None) -> tuple[DatasetHeader, np.ndarray]:
    """Read records start..start+count-1 (default: to the end) of a dataset;
    refuse one built under other model constants or frequencies.

    The records are read through `opened`, the FileBlocks of `path`, under
    the header it checked against its constants; without it, through a
    FileBlocks opened for this call under the default constants.  The range
    is checked before anything is allocated, then read straight into the
    returned records, so they are held once.  A record whose response is not
    finite is refused by its index in the file; the check runs over
    ROW_BLOCK records at a time.
    """
    with (FileBlocks(path) if opened is None else contextlib.nullcontext(opened)) as blocks:
        header = blocks.header
        count = header.n - start if count is None else count
        if not 0 <= start <= start + count <= header.n:
            raise ValueError(f"{path}: records {start}..{start + count - 1} "
                             f"lie outside its {header.n} records")
        records = np.empty(count, dtype=RECORD_DTYPE)
        blocks._fh.seek(blocks._offset + start * RECORD_DTYPE.itemsize)
        got = blocks._fh.readinto(records.view(np.uint8))
    _check_body(path, header.n, header.n * RECORD_DTYPE.itemsize - records.nbytes + got)
    resp = records["resp"]
    for i in range(0, len(resp), ROW_BLOCK):
        finite = np.isfinite(resp[i:i + ROW_BLOCK]).all(axis=1)
        if not finite.all():
            bad = start + i + int(np.argmin(finite))
            raise ValueError(f"{path}: record {bad} holds a non-finite response")
    return header, records


class FileBlocks:
    """The records of a dataset file as a re-iterable of BLOCK-record blocks.

    The constructor opens the file and checks its header and body size once,
    the fingerprint against `consts` and `geom` unless `check_fingerprint` is
    false, closing it again when a check fails; the file then stays open until
    `close` or the end of a `with` block.  Each pass reads the body anew, one
    block at a time through `load`, so a pass holds the block in hand and the
    next one while it is read.
    """

    def __init__(self, path, consts: OracleConstants = OracleConstants(),
                 geom: GeometryMeta = GeometryMeta(), check_fingerprint: bool = True):
        self.path = path
        self._fh = open(path, "rb")
        try:
            line = self._fh.readline()
            try:
                self.header = _parse_header(line, consts, geom, check_fingerprint)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc
            self._offset = len(line)
            _check_body(path, self.header.n, os.fstat(self._fh.fileno()).st_size - len(line))
        except BaseException:
            self._fh.close()
            raise

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> FileBlocks:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __iter__(self) -> Iterator[np.ndarray]:
        n = self.header.n
        for start in range(0, n, BLOCK):
            yield load(self.path, start=start, count=min(BLOCK, n - start), opened=self)[1]


def split(records: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Leading floor(n*10/11) rows for training, the rest for validation.

    The rows are records, or the network inputs or targets made from them.
    """
    k = len(records) * SPLIT_NUM // SPLIT_DEN
    if k == 0 or k == len(records):
        raise ValueError(f"cannot split {len(records)} records {SPLIT_NUM}/{SPLIT_DEN}")
    return records[:k], records[k:]


def _add_rows(acc: np.ndarray, buf: np.ndarray, rows: np.ndarray, rows_into) -> np.ndarray:
    """acc plus the rows that rows_into(out, rows) writes, added one after another.

    The rows are reduced with acc as their first row, so running sums carried
    across calls add every column's rows in order, bit-equal to numpy's axis-0
    sum over the whole stack; `buf` holds ROW_BLOCK + 1 rows and is reused.
    """
    out = buf[:len(rows) + 1]
    out[0] = acc
    rows_into(out[1:], rows)
    return np.add.reduce(out, axis=0)


def summarize(blocks: Iterable[np.ndarray]) -> dict:
    """Sanity statistics: per-frequency response moments, fill, magnitudes.

    `blocks` is a re-iterable of record arrays, such as a FileBlocks or a
    list of one whole array, walked twice: column sums, magnitudes and
    popcount totals first, then the squared deviations from the mean.
    Beyond the block in hand it holds one ROW_BLOCK of temporaries; the
    figures are bit-equal to numpy's whole-array mean, std, abs and
    histogram over all the records.
    """
    buf = np.empty((ROW_BLOCK + 1, RESP_WIDTH))
    sums = np.zeros(RESP_WIDTH)  # numpy's add.reduce starts from 0.0 too
    # records per genome popcount: the quadrant's fill is the grid's, and a
    # popcount over 64 is exactly the mean of the genome's 64 bits
    fills = np.zeros(65, dtype=np.int64)
    mag_min, mag_max = np.inf, -np.inf
    n = 0
    for block in blocks:
        n += len(block)
        fills += np.bincount(np.bitwise_count(block["genome"]), minlength=65)
        for i in range(0, len(block), ROW_BLOCK):
            resp = block["resp"][i:i + ROW_BLOCK]
            sums = _add_rows(sums, buf, resp, np.copyto)
            mags = np.abs(resp.view(np.complex128))
            mag_min, mag_max = min(mag_min, mags.min()), max(mag_max, mags.max())
    if n == 0:
        raise ValueError("cannot summarize an empty dataset")
    # np.std takes the mean as np.mean does, then sums the squared deviations
    mean = sums / n
    squares = np.zeros(RESP_WIDTH)
    seen = 0
    for block in blocks:
        seen += len(block)
        for i in range(0, len(block), ROW_BLOCK):
            squares = _add_rows(
                squares, buf, block["resp"][i:i + ROW_BLOCK],
                lambda out, rows: np.square(np.subtract(rows, mean, out=out), out=out))
    if seen != n:
        raise ValueError(f"the second pass over the blocks saw {seen} of {n} records; "
                         f"summarize needs blocks it can iterate twice")
    std = np.sqrt(squares / n)
    # popcount/64 summed over the records is exact in float64 in any order,
    # so the totals give numpy's mean and histogram of the fills exactly
    popcounts = np.arange(65)
    hist, edges = np.histogram(popcounts / 64, bins=16, range=(0.0, 1.0), weights=fills)
    return {
        "n": n,
        "re_mean": mean[0::2].tolist(),
        "re_std": std[0::2].tolist(),
        "im_mean": mean[1::2].tolist(),
        "im_std": std[1::2].tolist(),
        "mag_min": float(mag_min),
        "mag_max": float(mag_max),
        "fill_mean": int(fills @ popcounts) / 64 / n,
        "fill_hist": hist.tolist(),
        "fill_edges": edges.tolist(),
    }
