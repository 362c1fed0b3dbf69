import hashlib
import json
import os
import re
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from metapix import dataset as ds
from metapix import oracle
from metapix.cli import main
from metapix.dataset import ROW_BLOCK
from metapix.oracle import (
    KERNEL_BLOCK,
    OracleConstants,
    features_batch,
    freq_grid,
    response_batch,
)
from metapix.pattern import expand_genome
from metapix.rng import stream_u64, u64_to_bits


def interleave(s22: np.ndarray) -> np.ndarray:
    """(n, 61) complex -> (n, 122) float64, Re/Im alternating per frequency."""
    out = np.empty((s22.shape[0], 2 * s22.shape[1]))
    out[:, 0::2] = s22.real
    out[:, 1::2] = s22.imag
    return out


def deinterleave(resp: np.ndarray) -> np.ndarray:
    """(n, 122) float64 -> (n, 61) complex, inverse of interleave."""
    return resp[..., 0::2] + 1j * resp[..., 1::2]


def _save_records(path, recs, seed):
    """A dataset file of len(recs) records of seed whose body is `recs`."""
    ds.save(path, len(recs), seed)
    with open(path, "r+b") as fh:
        fh.seek(-recs.nbytes, os.SEEK_END)
        fh.write(recs.tobytes())


def test_interleave_round_trip():
    """The records' Re/Im layout is complex128's, so their complex view is
    the deinterleaved response."""
    rng = np.random.default_rng(0)
    s22 = rng.normal(size=(5, 61)) + 1j * rng.normal(size=(5, 61))
    flat = interleave(s22)
    assert flat.shape == (5, 122)
    np.testing.assert_array_equal(flat[:, 0::2], s22.real)
    np.testing.assert_array_equal(flat[:, 1::2], s22.imag)
    np.testing.assert_array_equal(deinterleave(flat), s22)
    recs = np.empty(5, dtype=ds.RECORD_DTYPE)
    recs["resp"] = flat
    assert recs["resp"].view(np.complex128).tobytes() == s22.tobytes()


def test_records_hold_the_oracle_response():
    recs = ds.generate(8, seed=5)
    words = stream_u64(5, 0, 8)
    np.testing.assert_array_equal(recs["genome"], words)
    expect = response_batch(expand_genome(u64_to_bits(words)))
    np.testing.assert_array_equal(deinterleave(recs["resp"]), expect)


@pytest.mark.parametrize("jobs", [1, 2])
def test_filled_records_are_the_interleaved_oracle_response(tmp_path, monkeypatch, pin_cpus,
                                                            jobs):
    """Blocks of more than two kernel blocks, written straight into the ring
    buffers of `save` by a pool of one or two threads, equal the records
    built from interleave(response_batch(...)), byte for byte."""
    count = 2 * KERNEL_BLOCK + 37
    monkeypatch.setattr(ds, "BLOCK", count)
    pin_cpus(jobs)
    path = str(tmp_path / "set.bin")
    ds.save(path, 3 * count, 5, jobs=jobs)
    words = stream_u64(5, 0, 3 * count)
    expect = np.empty(3 * count, dtype=ds.RECORD_DTYPE)
    expect["genome"] = words
    expect["resp"] = interleave(response_batch(expand_genome(u64_to_bits(words))))
    assert ds.load(path)[1].tobytes() == expect.tobytes()


def test_generate_propagates_chunk_errors_and_joins_its_threads(tmp_path, monkeypatch, pin_cpus):
    """A block that raises propagates out of generate, which starts no pool
    or thread, and out of save on one fill thread or two, which joins its
    pool's threads."""
    before = threading.active_count()
    monkeypatch.setattr(ds, "BLOCK", 100)
    monkeypatch.setattr(ds, "ThreadPoolExecutor", None)  # generate must not call it
    ds.generate(300, seed=9)
    assert threading.active_count() == before

    real = ds.features_response_batch

    def fail_short_chunk(feats, consts, geom, out):
        if len(feats) < 100:
            raise RuntimeError("chunk failed")
        return real(feats, consts, geom, out=out)

    monkeypatch.setattr(ds, "features_response_batch", fail_short_chunk)
    with pytest.raises(RuntimeError, match="chunk failed"):
        ds.generate(250, seed=9)
    monkeypatch.setattr(ds, "ThreadPoolExecutor", ThreadPoolExecutor)
    pin_cpus(2)
    for jobs in (1, 2):
        with pytest.raises(RuntimeError, match="chunk failed"):
            ds.save(str(tmp_path / "set.bin"), 250, 9, jobs=jobs)
    assert threading.active_count() == before


def test_generation_is_chunk_and_worker_invariant(tmp_path, monkeypatch, pin_cpus):
    """The same (n, seed) must produce byte-identical records no matter how
    the work is sliced into blocks or how many threads fill them."""
    assert ds.BLOCK >= 600
    base = ds.generate(600, seed=9)
    path = str(tmp_path / "set.bin")
    pin_cpus(16)
    for block, jobs in ((64, 1), (97, 3), (200, 2)):
        monkeypatch.setattr(ds, "BLOCK", block)
        ds.save(path, 600, 9, jobs=jobs)
        assert base.tobytes() == ds.load(path)[1].tobytes()
    # more threads than cores, switching as often as the interpreter allows
    monkeypatch.setattr(ds, "BLOCK", 37)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ds.save(path, 600, 9, jobs=16)
        assert base.tobytes() == ds.load(path)[1].tobytes()
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("jobs, chunk, workers", [(64, 100, 3), (2, 100, 2), (64, 300, 1)])
def test_generation_starts_at_most_one_worker_per_chunk(tmp_path, monkeypatch, pin_cpus, jobs,
                                                        chunk, workers):
    """`save` starts one pool, of at most one thread per BLOCK-record chunk,
    up to jobs, and fills every chunk on it."""
    real, started, threads = ds.ThreadPoolExecutor, [], set()

    def recording_pool(max_workers):
        started.append(max_workers)
        return real(max_workers=max_workers)

    fill = ds._fill

    def recording_fill(*args):
        threads.add(threading.current_thread())
        fill(*args)

    monkeypatch.setattr(ds, "ThreadPoolExecutor", recording_pool)
    monkeypatch.setattr(ds, "_fill", recording_fill)
    monkeypatch.setattr(ds, "BLOCK", chunk)
    pin_cpus(64)
    path = str(tmp_path / "set.bin")
    ds.save(path, 300, 9, jobs=jobs)
    assert started == [workers]
    assert threading.current_thread() not in threads and len(threads) <= workers
    assert ds.load(path)[1].tobytes() == ds.generate(300, seed=9).tobytes()


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "set.bin"
    recs = ds.generate(64, seed=5)
    digest = ds.save(str(path), 64, seed=5)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    got_header, got = ds.load(str(path))
    assert got_header.n == 64
    assert got_header.seed == 5
    assert got_header.n_freq == 61
    np.testing.assert_array_equal(got, recs)
    assert got.tobytes() == recs.tobytes()


def test_load_rejects_wrong_constants(tmp_path):
    path = str(tmp_path / "set.bin")
    ds.save(path, 4, seed=1)
    with pytest.raises(ValueError, match="fingerprint"):
        ds.FileBlocks(path, OracleConstants(c_b=200e-15))
    # explicit opt-out still works
    with ds.FileBlocks(path, OracleConstants(c_b=200e-15), check_fingerprint=False) as blocks:
        _, got = ds.load(path, opened=blocks)
    assert len(got) == 4


def test_load_rejects_garbage(tmp_path):
    path = str(tmp_path / "junk.bin")
    with open(path, "wb") as fh:
        fh.write(b"not a dataset\n")
    with pytest.raises(ValueError, match="not a dataset"):
        ds.load(path)


def test_load_rejects_truncation(tmp_path):
    path = str(tmp_path / "set.bin")
    ds.save(path, 16, seed=2)
    blob = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(blob[:-100])
    with pytest.raises(ValueError, match="header says 16"):
        ds.load(path)


def test_load_rejects_trailing_bytes(tmp_path):
    path = str(tmp_path / "set.bin")
    recs = ds.generate(16, seed=2)
    ds.save(path, len(recs), seed=2)
    with open(path, "ab") as fh:
        fh.write(recs[:1].tobytes())
    with pytest.raises(ValueError, match="header says 16 records, file holds 17$"):
        ds.load(path)
    with open(path, "ab") as fh:
        fh.write(b"\0\0\0")
    with pytest.raises(ValueError, match="file holds 17 and a partial record"):
        ds.load(path)


def _edit_header(path, **fields):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        body = fh.read()
    header.update(fields)
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode() + body)


@pytest.mark.parametrize("fields", [
    {"freq_start": 1e9, "freq_step": 0.5e9},
    {"freq_start": 2.9e9},
    {"freq_step": 0.2e9},
    {"n_freq": 60},
])
def test_load_rejects_another_frequency_grid(tmp_path, fields):
    path = str(tmp_path / "set.bin")
    ds.save(path, 4, seed=1)
    _edit_header(path, **fields)
    for check in (True, False):
        with pytest.raises(ValueError, match=f"{path}: frequency grid"):
            ds.FileBlocks(path, check_fingerprint=check)


@pytest.mark.parametrize("fields", [
    {"n": 16.0}, {"n": "16"}, {"n": None}, {"seed": "x"}, {"version": True},
    {"n_freq": 61.0}, {"fingerprint": 5}, {"freq_start": "3e9"}, {"freq_step": False},
])
def test_load_rejects_header_field_of_wrong_type(tmp_path, fields):
    path = str(tmp_path / "set.bin")
    ds.save(path, 16, seed=2)
    _edit_header(path, **fields)
    (name, value), = fields.items()
    kind = ds.DatasetHeader.__annotations__[name]
    want = re.escape(f"{path}: dataset header field {name} expects {kind}, "
                     f"got {json.dumps(value)}")
    with pytest.raises(ValueError, match=f"^{want}$"):
        ds.load(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("bad", [[0], [ROW_BLOCK - 1, ROW_BLOCK + 2], [ROW_BLOCK + 2]])
def test_load_refuses_non_finite_responses(tmp_path, value, bad):
    """The first bad record is named, also when it lies past the first block."""
    path = str(tmp_path / "set.bin")
    recs = ds.generate(ROW_BLOCK + 3, seed=2)
    for i in bad:
        recs["resp"][i, 7] = value
    _save_records(path, recs, seed=2)
    want = re.escape(f"{path}: record {bad[0]} holds a non-finite response")
    with pytest.raises(ValueError, match=f"^{want}$"):
        ds.load(path)


def test_load_accepts_integer_frequencies(tmp_path):
    """A JSON writer may print a whole-number float without its point."""
    path = str(tmp_path / "set.bin")
    ds.save(path, 4, seed=2)
    _edit_header(path, freq_start=int(ds.FREQ_START), freq_step=int(ds.FREQ_STEP))
    assert len(ds.load(path)[1]) == 4


def test_load_refuses_a_huge_count_before_allocating(tmp_path):
    path = str(tmp_path / "set.bin")
    ds.save(path, 16, seed=2)
    _edit_header(path, n=10**15)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"header says {10**15} records, file holds 16$"):
            ds.load(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_split_sizes_and_order():
    recs = ds.generate(11, seed=3)
    train, val = ds.split(recs)
    assert len(train) == 10 and len(val) == 1
    np.testing.assert_array_equal(np.concatenate([train, val]), recs)

    train, val = ds.split(ds.generate(1100, seed=3))
    assert len(train) == 1000 and len(val) == 100

    with pytest.raises(ValueError):
        ds.split(recs[:1])


def test_generate_rejects_bad_n():
    with pytest.raises(ValueError):
        ds.generate(0, seed=1)


def test_summary_statistics():
    recs = ds.generate(512, seed=7)
    s = ds.summarize([recs])
    assert s["n"] == 512
    assert len(s["re_mean"]) == 61 and len(s["im_std"]) == 61
    assert 0.0 < s["mag_min"] <= s["mag_max"] < 1.0
    assert sum(s["fill_hist"]) == 512
    # genome bits are fair coin flips: fill concentrates near 1/2
    assert abs(s["fill_mean"] - 0.5) < 0.02
    # fill read straight from the quadrant words equals the grid feature rho
    rho = features_batch(expand_genome(u64_to_bits(recs["genome"])))[:, 0]
    assert s["fill_mean"] == float(rho.mean())
    assert s["fill_hist"] == np.histogram(rho, bins=16, range=(0.0, 1.0))[0].tolist()
    grid_re = deinterleave(recs["resp"]).real
    np.testing.assert_allclose(s["re_mean"], grid_re.mean(axis=0))
    assert len(freq_grid()) * 2 == recs["resp"].shape[1]


def _reference_summary(records):
    """The whole-array formulas: numpy's mean, std, abs and histogram over all rows."""
    resp = np.asarray(records["resp"])
    mags = np.abs(resp[:, 0::2] + 1j * resp[:, 1::2])
    fill = u64_to_bits(np.asarray(records["genome"], dtype=np.uint64)).mean(axis=1)
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


def _wide_records(n, seed=3):
    """Records whose responses span twelve decades, so that any change in the
    order of the column sums shows in the last bits."""
    rng = np.random.default_rng(seed)
    recs = np.empty(n, dtype=ds.RECORD_DTYPE)
    recs["genome"] = rng.integers(0, 2**64, size=n, dtype=np.uint64)
    recs["resp"] = rng.normal(size=(n, ds.RESP_WIDTH)) * 10.0 ** rng.uniform(-6, 6, (n, 1))
    return recs


@pytest.fixture(scope="module")
def summary_records():
    """Oracle records and wide-range records."""
    return {"oracle": ds.generate(10000, seed=7), "wide": _wide_records(10000)}


@pytest.mark.parametrize("block", [None, 1, 7])
@pytest.mark.parametrize("n", [1, 2, 512, 513, 4095, 4096, 4097, 10000])
@pytest.mark.parametrize("source", ["oracle", "wide"])
def test_summarize_is_bit_equal_to_whole_array_formulas(monkeypatch, summary_records,
                                                        source, n, block):
    if block is not None:
        monkeypatch.setattr(ds, "ROW_BLOCK", block)
    recs = summary_records[source][:n]
    assert json.dumps(ds.summarize([recs])) == json.dumps(_reference_summary(recs))


def test_summarize_refuses_no_records():
    with pytest.raises(ValueError, match="empty"):
        ds.summarize([ds.generate(1, seed=1)[:0]])


def test_summarize_refuses_blocks_it_cannot_walk_twice():
    recs = ds.generate(10, seed=1)
    with pytest.raises(ValueError, match="saw 0 of 10 records"):
        ds.summarize(recs[i:i + 4] for i in range(0, 10, 4))


def _peak_bytes(fn, *args):
    """Peak bytes fn allocates, numpy data buffers included, and its result."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def test_each_stage_holds_the_records_once(tmp_path, capsys):
    n = 20000
    path = str(tmp_path / "set.bin")
    one_block, _ = _peak_bytes(ds.generate, ds.BLOCK, 11)
    peak, recs = _peak_bytes(ds.generate, n, 11)
    size = recs.nbytes
    assert peak <= size + 1.1 * one_block, f"generate {peak / size:.2f}x the records"
    # save writes one block of its two-block ring while the other fills
    block = ds.BLOCK * ds.RECORD_DTYPE.itemsize
    peak, _ = _peak_bytes(ds.save, path, n, 11)
    assert peak < 4 * block, f"save {peak / block:.2f} blocks"
    peak, (_, got) = _peak_bytes(ds.load, path)
    assert peak <= 1.05 * size, f"load {peak / size:.2f}x the records"
    assert got.tobytes() == recs.tobytes()
    peak, _ = _peak_bytes(ds.summarize, [got])
    assert peak <= 0.6 * size, f"summarize {peak / size:.2f}x the records"

    # gen and stats stream the file, never holding the whole set: gen holds
    # a ring of jobs + 1 blocks and working space under two blocks per job,
    # stats two blocks and working space under two blocks
    n = 40000
    for jobs in (1, 2):
        argv = ["gen", "--n", str(n), "--seed", "11", "--jobs", str(jobs),
                "--out", str(tmp_path / f"jobs{jobs}.bin")]
        peak, code = _peak_bytes(main, argv)
        assert code == 0
        assert peak < 4 * jobs * block, f"gen --jobs {jobs} {peak / block:.2f} blocks"
    peak, code = _peak_bytes(main, ["stats", "--data", str(tmp_path / "jobs1.bin"),
                                    "--out", str(tmp_path / "stats.json")])
    assert code == 0
    assert peak < 4 * block, f"stats {peak / block:.2f} blocks"
    capsys.readouterr()
    assert (tmp_path / "jobs1.bin").read_bytes() == (tmp_path / "jobs2.bin").read_bytes()


B = ds.BLOCK


# one record, and the edges of one, three, four and twelve blocks
@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 1, 4 * B - 1, 4 * B, 4 * B + 1,
                               12 * B + 1])
@pytest.mark.parametrize("source", ["oracle", "wide"])
def test_streamed_summary_is_bit_equal_to_whole_array_formulas(tmp_path, source, n):
    """`stats` reads BLOCK-record blocks of the file in two passes; its
    summary equals the whole-array one in every bit."""
    recs = ds.generate(n, seed=7) if source == "oracle" else _wide_records(n)
    path = str(tmp_path / "set.bin")
    _save_records(path, recs, seed=7)
    want = json.dumps(_reference_summary(recs))
    with ds.FileBlocks(path) as blocks:
        assert [len(b) for b in blocks] == [len(recs[i:i + B]) for i in range(0, n, B)]
        assert json.dumps(ds.summarize(blocks)) == want
    # any split into blocks, the empty one included
    half = (n + 1) // 2
    parts = [recs[:1], recs[1:1], recs[1:half], recs[half:]]
    assert json.dumps(ds.summarize(parts)) == want


def test_file_blocks_read_the_header_once_through_one_open_file(tmp_path, monkeypatch):
    n = 2 * ds.BLOCK + 3
    recs = ds.generate(n, seed=5)
    path = str(tmp_path / "set.bin")
    ds.save(path, n, seed=5)
    parsed, opened = [], []
    parse, builtin_open = ds._parse_header, open
    monkeypatch.setattr(ds, "_parse_header", lambda *a: parsed.append(a) or parse(*a))
    monkeypatch.setattr(ds, "open", lambda *a: opened.append(a) or builtin_open(*a),
                        raising=False)
    with ds.FileBlocks(path) as blocks:
        for _ in range(2):
            assert b"".join(b.tobytes() for b in blocks) == recs.tobytes()
        header, got = ds.load(path, start=n - 5, count=5, opened=blocks)
        assert header is blocks.header and got.tobytes() == recs[n - 5:].tobytes()
        with pytest.raises(ValueError, match=f"records {n - 1}..{n} lie outside its {n}"):
            ds.load(path, start=n - 1, count=2, opened=blocks)
    assert (len(parsed), len(opened)) == (1, 1)
    assert blocks._fh.closed


@pytest.mark.parametrize("spoil, message", [
    (lambda path: _edit_header(path, n_freq=60), "frequency grid"),
    (lambda path: _edit_header(path, version="1"), "dataset header field version"),
    (lambda path: open(path, "ab").write(b"\0"), "header says 4 records, file holds 4 and a"),
    (lambda path: os.truncate(path, os.path.getsize(path) - 1), "file holds 3 and a partial"),
])
def test_file_blocks_close_the_file_when_a_check_fails(tmp_path, monkeypatch, spoil, message):
    path = str(tmp_path / "set.bin")
    ds.save(path, 4, seed=2)
    spoil(path)
    handles, builtin_open = [], open
    monkeypatch.setattr(ds, "open", lambda *a: handles.append(builtin_open(*a)) or handles[-1],
                        raising=False)
    with pytest.raises(ValueError, match=f"^{re.escape(path)}: .*{message}"):
        ds.FileBlocks(path)
    assert len(handles) == 1 and handles[0].closed


def test_save_writes_its_windows_in_order_and_returns_their_sha256(tmp_path, monkeypatch,
                                                                     pin_cpus):
    recs = ds.generate(1003, seed=4)
    whole = tmp_path / "whole.bin"
    parts = tmp_path / "parts.bin"
    digest = ds.save(str(whole), 1003, seed=4)
    assert digest == hashlib.sha256(whole.read_bytes()).hexdigest()
    assert ds.load(str(whole))[1].tobytes() == recs.tobytes()
    # blocks filled on 16 threads while the calling thread writes them,
    # switching as often as the interpreter allows
    monkeypatch.setattr(ds, "BLOCK", 5)
    pin_cpus(16)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for jobs in (1, 16):
            assert ds.save(str(parts), 1003, seed=4, jobs=jobs) == digest
            assert parts.read_bytes() == whole.read_bytes()
    finally:
        sys.setswitchinterval(interval)


def test_two_fill_threads_that_find_the_tables_cold_build_equal_tables(tmp_path, monkeypatch,
                                                                      pin_cpus):
    """With the oracle's held tables cleared, both fill threads of `save`
    find them cold and build their own (a barrier keeps the first build
    waiting until the second starts); the file holds the bytes of jobs=1."""
    monkeypatch.setattr(ds, "BLOCK", 300)
    whole = tmp_path / "whole.bin"
    parts = tmp_path / "parts.bin"
    digest = ds.save(str(whole), 600, seed=4, jobs=1)
    build, builders = oracle._build_tables, []
    barrier = threading.Barrier(2, timeout=30)

    def build_together(*args):
        builders.append(threading.current_thread())
        barrier.wait()
        return build(*args)

    monkeypatch.setattr(oracle, "_build_tables", build_together)
    oracle._held_tables.cache_clear()
    pin_cpus(2)
    assert ds.save(str(parts), 600, seed=4, jobs=2) == digest
    assert parts.read_bytes() == whole.read_bytes()
    assert len(set(builders)) == 2 and threading.current_thread() not in builders


def test_generate_starts_at_any_counter(monkeypatch):
    """Records start.. of a run, fresh or in the first records of `out`."""
    monkeypatch.setattr(ds, "BLOCK", 128)
    whole = ds.generate(700, seed=6)
    buf = np.empty(402, dtype=ds.RECORD_DTYPE)
    for start, count in ((0, 1), (1, 300), (299, 401), (699, 1)):
        part = ds.generate(count, seed=6, start=start)
        assert part.tobytes() == whole[start:start + count].tobytes()
        part = ds.generate(count, seed=6, start=start, out=buf)
        assert np.shares_memory(part, buf) and len(part) == count
        assert part.tobytes() == whole[start:start + count].tobytes()
    with pytest.raises(ValueError, match="out holds 402 records, fewer than n = 403"):
        ds.generate(403, seed=6, out=buf)


def test_load_reads_a_record_range(tmp_path):
    path = str(tmp_path / "set.bin")
    recs = ds.generate(50, seed=2)
    ds.save(path, 50, seed=2)
    for start, count in ((0, 0), (0, 50), (13, 7), (49, 1), (50, 0), (20, None)):
        header, got = ds.load(path, start=start, count=count)
        assert header.n == 50
        assert got.tobytes() == recs[start:None if count is None else start + count].tobytes()
    for start, count in ((-1, 2), (0, 51), (49, 2), (51, None), (10, -1)):
        with pytest.raises(ValueError, match=f"{re.escape(path)}: records .* lie outside its 50"):
            ds.load(path, start=start, count=count)


def test_load_names_a_non_finite_record_by_its_index_in_the_file(tmp_path):
    path = str(tmp_path / "set.bin")
    recs = ds.generate(ROW_BLOCK + 40, seed=2)
    recs["resp"][ROW_BLOCK + 30, 3] = np.nan
    _save_records(path, recs, seed=2)
    assert len(ds.load(path, start=0, count=ROW_BLOCK + 30)[1]) == ROW_BLOCK + 30
    for start in (0, 5, ROW_BLOCK + 30):
        with pytest.raises(ValueError, match=f"record {ROW_BLOCK + 30} holds a non-finite"):
            ds.load(path, start=start)
