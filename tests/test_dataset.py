import json

import numpy as np
import pytest

from metapix import dataset as ds
from metapix.oracle import OracleConstants, features_batch, freq_grid, response_batch
from metapix.pattern import expand_genome
from metapix.rng import stream_u64, u64_to_bits


def test_interleave_round_trip():
    rng = np.random.default_rng(0)
    s22 = rng.normal(size=(5, 61)) + 1j * rng.normal(size=(5, 61))
    flat = ds.interleave(s22)
    assert flat.shape == (5, 122)
    np.testing.assert_array_equal(flat[:, 0::2], s22.real)
    np.testing.assert_array_equal(flat[:, 1::2], s22.imag)
    np.testing.assert_array_equal(ds.deinterleave(flat), s22)


def test_records_hold_the_oracle_response():
    recs = ds.generate(8, seed=5)
    words = stream_u64(5, 0, 8)
    np.testing.assert_array_equal(recs["genome"], words)
    expect = response_batch(expand_genome(u64_to_bits(words)))
    np.testing.assert_array_equal(ds.deinterleave(recs["resp"]), expect)


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

        def __init__(self, max_workers):
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


def test_split_sizes_and_order():
    recs = ds.generate(11, seed=3)
    train, val = ds.split(recs)
    assert len(train) == 10 and len(val) == 1
    np.testing.assert_array_equal(np.concatenate([train, val]), recs)

    train, val = ds.split(ds.generate(1100, seed=3))
    assert len(train) == 1000 and len(val) == 100

    with pytest.raises(ValueError):
        ds.split(recs, num=11, den=11)
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
    grid_re = ds.deinterleave(recs["resp"]).real
    np.testing.assert_allclose(s["re_mean"], grid_re.mean(axis=0))
    assert len(freq_grid()) * 2 == recs["resp"].shape[1]
