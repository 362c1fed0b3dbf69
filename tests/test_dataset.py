import json
import multiprocessing
import re
import tracemalloc

import numpy as np
import pytest

from metapix import dataset as ds
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
def test_filled_records_are_the_interleaved_oracle_response(jobs):
    """Chunks of more than two kernel blocks, written straight into the
    records by this process or by pool workers, equal the records built from
    interleave(response_batch(...)), byte for byte."""
    count = 2 * KERNEL_BLOCK + 37
    got = ds.generate(3 * count, 5, jobs=jobs, chunk=count)
    words = stream_u64(5, 0, 3 * count)
    expect = np.empty(3 * count, dtype=ds.RECORD_DTYPE)
    expect["genome"] = words
    expect["resp"] = interleave(response_batch(expand_genome(u64_to_bits(words))))
    assert got.tobytes() == expect.tobytes()


def test_generate_drops_its_shared_records_and_workers(monkeypatch):
    """The module-level handle is cleared and no pool process outlives
    generate, both after a normal return and after a chunk raises."""
    ds.generate(300, seed=9, jobs=2, chunk=100)
    assert ds._records is None
    assert multiprocessing.active_children() == []

    real = ds.features_response_batch

    def fail_short_chunk(feats, consts, geom, out):
        if len(feats) < 100:
            raise RuntimeError("chunk failed")
        return real(feats, consts, geom, out=out)

    monkeypatch.setattr(ds, "features_response_batch", fail_short_chunk)
    for jobs in (1, 2):
        with pytest.raises(RuntimeError, match="chunk failed"):
            ds.generate(250, seed=9, jobs=jobs, chunk=100)
        assert ds._records is None
        assert multiprocessing.active_children() == []


def test_generate_refuses_jobs_without_fork(monkeypatch):
    def no_fork(method):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(ds.multiprocessing, "get_context", no_fork)
    with pytest.raises(ValueError, match="fork start method"):
        ds.generate(300, seed=9, jobs=2, chunk=100)
    assert ds._records is None
    assert ds.generate(300, seed=9, jobs=2, chunk=300).tobytes() == ds.generate(300, 9).tobytes()


def test_generation_is_chunk_and_worker_invariant():
    """The same (n, seed) must produce byte-identical records no matter how
    the work is sliced or how many processes run it."""
    base = ds.generate(600, seed=9, chunk=600)
    np.testing.assert_array_equal(ds.generate(600, seed=9, chunk=64), base)
    np.testing.assert_array_equal(ds.generate(600, seed=9, jobs=3, chunk=97), base)
    assert base.tobytes() == ds.generate(600, seed=9, jobs=2, chunk=200).tobytes()


@pytest.mark.parametrize("jobs, chunk, workers", [(64, 100, 3), (2, 100, 2), (64, 300, None)])
def test_generation_starts_at_most_one_worker_per_chunk(monkeypatch, jobs, chunk, workers):
    started = []

    class FakePool:
        """Runs the chunks in this process and records the requested pool size."""

        def __init__(self, max_workers, mp_context):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(ds, "ProcessPoolExecutor", FakePool)
    recs = ds.generate(300, seed=9, jobs=jobs, chunk=chunk)
    assert started == ([] if workers is None else [workers])
    assert recs.tobytes() == ds.generate(300, seed=9).tobytes()


def test_save_load_round_trip(tmp_path):
    path = str(tmp_path / "set.bin")
    recs = ds.generate(64, seed=5)
    header = ds.save(path, recs, seed=5)
    got_header, got = ds.load(path)
    assert got_header == header
    assert got_header.n == 64
    assert got_header.seed == 5
    assert got_header.n_freq == 61
    np.testing.assert_array_equal(got, recs)
    assert got.tobytes() == recs.tobytes()


def test_load_rejects_wrong_constants(tmp_path):
    path = str(tmp_path / "set.bin")
    recs = ds.generate(4, seed=1)
    ds.save(path, recs, seed=1)
    with pytest.raises(ValueError, match="fingerprint"):
        ds.load(path, consts=OracleConstants(c_b=200e-15))
    # explicit opt-out still works
    _, got = ds.load(path, consts=OracleConstants(c_b=200e-15), check_fingerprint=False)
    assert len(got) == 4


def test_load_rejects_garbage(tmp_path):
    path = str(tmp_path / "junk.bin")
    with open(path, "wb") as fh:
        fh.write(b"not a dataset\n")
    with pytest.raises(ValueError, match="not a dataset"):
        ds.load(path)


def test_load_rejects_truncation(tmp_path):
    path = str(tmp_path / "set.bin")
    ds.save(path, ds.generate(16, seed=2), seed=2)
    blob = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(blob[:-100])
    with pytest.raises(ValueError, match="header says 16"):
        ds.load(path)


def test_load_rejects_trailing_bytes(tmp_path):
    path = str(tmp_path / "set.bin")
    recs = ds.generate(16, seed=2)
    ds.save(path, recs, seed=2)
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
    ds.save(path, ds.generate(4, seed=1), seed=1)
    _edit_header(path, **fields)
    for check in (True, False):
        with pytest.raises(ValueError, match=f"{path}: frequency grid"):
            ds.load(path, check_fingerprint=check)


@pytest.mark.parametrize("fields", [
    {"n": 16.0}, {"n": "16"}, {"n": None}, {"seed": "x"}, {"version": True},
    {"n_freq": 61.0}, {"fingerprint": 5}, {"freq_start": "3e9"}, {"freq_step": False},
])
def test_load_rejects_header_field_of_wrong_type(tmp_path, fields):
    path = str(tmp_path / "set.bin")
    ds.save(path, ds.generate(16, seed=2), seed=2)
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
    ds.save(path, recs, seed=2)
    want = re.escape(f"{path}: record {bad[0]} holds a non-finite response")
    with pytest.raises(ValueError, match=f"^{want}$"):
        ds.load(path)


def test_load_accepts_integer_frequencies(tmp_path):
    """A JSON writer may print a whole-number float without its point."""
    path = str(tmp_path / "set.bin")
    ds.save(path, ds.generate(4, seed=2), seed=2)
    _edit_header(path, freq_start=int(ds.FREQ_START), freq_step=int(ds.FREQ_STEP))
    assert len(ds.load(path)[1]) == 4


def test_load_refuses_a_huge_count_before_allocating(tmp_path):
    path = str(tmp_path / "set.bin")
    ds.save(path, ds.generate(16, seed=2), seed=2)
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
    s = ds.summarize(recs)
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


@pytest.fixture(scope="module")
def summary_records():
    """Oracle records, and records whose responses span twelve decades, so
    that any change in the order of the column sums shows in the last bits."""
    oracle = ds.generate(10000, seed=7)
    rng = np.random.default_rng(3)
    wide = np.empty(10000, dtype=ds.RECORD_DTYPE)
    wide["genome"] = rng.integers(0, 2**64, size=10000, dtype=np.uint64)
    wide["resp"] = rng.normal(size=(10000, ds.RESP_WIDTH)) * 10.0 ** rng.uniform(-6, 6, (10000, 1))
    return {"oracle": oracle, "wide": wide}


@pytest.mark.parametrize("block", [None, 1, 7])
@pytest.mark.parametrize("n", [1, 2, 512, 513, 4095, 4096, 4097, 10000])
@pytest.mark.parametrize("source", ["oracle", "wide"])
def test_summarize_is_bit_equal_to_whole_array_formulas(monkeypatch, summary_records,
                                                        source, n, block):
    if block is not None:
        monkeypatch.setattr(ds, "ROW_BLOCK", block)
    recs = summary_records[source][:n]
    assert json.dumps(ds.summarize(recs)) == json.dumps(_reference_summary(recs))


def test_summarize_refuses_no_records():
    with pytest.raises(ValueError, match="empty"):
        ds.summarize(ds.generate(1, seed=1)[:0])


def _peak_bytes(fn, *args):
    """Peak bytes fn allocates, numpy data buffers included, and its result."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def test_each_stage_holds_the_records_once(tmp_path):
    n = 20000
    path = str(tmp_path / "set.bin")
    one_chunk, _ = _peak_bytes(ds.generate, 4096, 11)
    peak, recs = _peak_bytes(ds.generate, n, 11)
    size = recs.nbytes
    assert peak <= size + 1.1 * one_chunk, f"generate {peak / size:.2f}x the records"
    peak, _ = _peak_bytes(ds.save, path, recs, 11)
    assert peak <= 0.05 * size, f"save {peak / size:.2f}x the records"
    peak, (_, got) = _peak_bytes(ds.load, path)
    assert peak <= 1.05 * size, f"load {peak / size:.2f}x the records"
    assert got.tobytes() == recs.tobytes()
    peak, _ = _peak_bytes(ds.summarize, got)
    assert peak <= 0.6 * size, f"summarize {peak / size:.2f}x the records"
