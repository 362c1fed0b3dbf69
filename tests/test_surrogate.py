import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest

from metapix import dataset as ds
from metapix import surrogate as sg
from metapix.rng import CounterRng


def _toy_data(n=24, seed=13):
    recs = ds.generate(n, seed=seed)
    return sg.records_to_xy(recs)


def test_default_network_shape():
    mlp = sg.init_mlp(0)
    assert mlp.sizes == (64, 256, 256, 256, 122)
    assert mlp.params.size == 179_578
    assert sum((a + 1) * b for a, b in zip(mlp.sizes, mlp.sizes[1:])) == 179_578


def test_init_is_seeded():
    a = sg.init_mlp(7, hidden=(32,))
    b = sg.init_mlp(7, hidden=(32,))
    c = sg.init_mlp(8, hidden=(32,))
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    assert any(not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))
    for bias in a.biases:
        assert not bias.any()
    # He-uniform bound on the first layer
    assert np.abs(a.weights[0]).max() <= np.sqrt(6.0 / 64)


def test_encode_bits():
    x = sg.encode_bits(np.array([0, (1 << 64) - 1, 1 << 63], dtype=np.uint64))
    np.testing.assert_array_equal(x[0], -np.ones(64))
    np.testing.assert_array_equal(x[1], np.ones(64))
    assert x[2, 0] == 1.0 and (x[2, 1:] == -1.0).all()


def test_target_layout_re_then_im():
    resp = np.arange(244, dtype=float).reshape(2, 122)
    y = sg.targets_from_resp(resp)
    np.testing.assert_array_equal(y[:, :61], resp[:, 0::2])
    np.testing.assert_array_equal(y[:, 61:], resp[:, 1::2])


def test_records_to_xy_fills_the_split_of_a_file_block_by_block(tmp_path):
    """`train` fills int8 inputs and float64 targets from BLOCK-record
    blocks and splits those; they equal the encoding of the split records.
    The file ends inside a block and the split point falls inside the second."""
    n = 2 * ds.BLOCK + 3
    k = n * ds.SPLIT_NUM // ds.SPLIT_DEN
    assert n % ds.BLOCK and ds.BLOCK < k < 2 * ds.BLOCK
    path = str(tmp_path / "set.bin")
    ds.save(path, n, seed=8)
    with ds.FileBlocks(path) as blocks:
        x, y = sg.records_to_xy(blocks)
    assert (x.dtype, y.dtype) == (np.int8, np.float64)
    for got, want_recs in zip(zip(ds.split(x), ds.split(y)), ds.split(ds.load(path)[1])):
        want = sg.records_to_xy(want_recs)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
    # the inputs are the float64 encoding's values, exactly
    words = ds.load(path, count=100)[1]["genome"]
    bits = np.unpackbits(words.astype(">u8").view(np.uint8).reshape(100, 8), axis=1)
    np.testing.assert_array_equal(x[:100].astype(np.float64), bits.astype(np.float64) * 2.0 - 1.0)


@pytest.mark.parametrize("rows", [1, 64, 1000, 2 * sg.PREDICT_BATCH + 5])
def test_predict_is_bit_equal_to_the_last_forward_activation(rows):
    mlp = sg.init_mlp(4)
    mlp.params += CounterRng(6).uniform(mlp.params.size, -0.01, 0.01)  # nonzero biases
    words = CounterRng(2).u64(rows)
    x = sg.encode_bits(words)
    out = mlp.predict(x)
    assert out.shape == (rows, 122) and out.dtype == np.float64
    assert out.tobytes() == mlp.forward(x)[-1].tobytes()
    assert out.tobytes() == mlp.predict(x.astype(np.float64)).tobytes()


def _traced_peak(fn) -> int:
    """Peak bytes traced while fn runs, above those held when it starts."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_predict_holds_two_activations_at_a_time():
    """Each bias is added in the fresh product, so a 4096-row pass holds at
    most the float64 input and the two widest activations (8 MiB each); a
    separate sum would hold a third."""
    mlp = sg.init_mlp(4)
    x = sg.encode_bits(CounterRng(2).u64(sg.PREDICT_BATCH))
    bound = x.size * 8 + 2 * len(x) * max(mlp.sizes) * 8
    assert _traced_peak(lambda: mlp.predict(x)) < bound + 256 * 1024


def test_training_peaks_without_a_stale_gradient_beside_validation():
    """An epoch holds the two Adam moments and the best snapshot, and at its
    peak the two widest activations of a validation pass; the last batch's
    gradient (mlp.params.nbytes) kept beside them would break the bound."""
    rng = CounterRng(3)
    xt, xv = sg.encode_bits(rng.u64(640)), sg.encode_bits(rng.u64(1000))
    yt = rng.uniform(640 * 122, -1.0, 1.0).reshape(640, 122)
    yv = rng.uniform(1000 * 122, -1.0, 1.0).reshape(1000, 122)
    mlp = sg.init_mlp(5)
    held = 3 * mlp.params.nbytes + 2 * len(xv) * max(mlp.sizes) * 8
    settings = sg.TrainSettings(max_epochs=1)
    peak = _traced_peak(lambda: sg.train(mlp, xt, yt, xv, yv, settings))
    assert peak < held + mlp.params.nbytes // 4


@pytest.mark.parametrize("rows", [1, sg.PREDICT_BATCH - 1, sg.PREDICT_BATCH,
                                  sg.PREDICT_BATCH + 1, 10_000])
def test_mae_equals_the_out_of_place_sum_bit_for_bit(rows):
    mlp = sg.init_mlp(4)
    mlp.params += CounterRng(6).uniform(mlp.params.size, -0.01, 0.01)  # nonzero biases
    rng = CounterRng(9)
    x = sg.encode_bits(rng.u64(rows))
    y = rng.uniform(rows * 122, -1.0, 1.0).reshape(rows, 122)
    x_bytes, y_bytes = x.tobytes(), y.tobytes()
    total = 0.0
    for i in range(0, rows, sg.PREDICT_BATCH):
        xb, yb = x[i : i + sg.PREDICT_BATCH], y[i : i + sg.PREDICT_BATCH]
        total += float(np.abs(mlp.predict(xb) - yb).sum())
    assert sg.mae(mlp, x, y).hex() == (total / y.size).hex()
    assert (x.tobytes(), y.tobytes()) == (x_bytes, y_bytes)


def test_forward_matches_hand_matmul():
    mlp = sg.init_mlp(3, hidden=(5,), n_in=4, n_out=3)
    x = np.array([[1.0, -1.0, 1.0, 1.0]])
    h = np.maximum(x @ mlp.weights[0] + mlp.biases[0], 0.0)
    out = h @ mlp.weights[1] + mlp.biases[1]
    np.testing.assert_array_equal(mlp.predict(x), out)


def test_loss_is_mean_absolute_error():
    mlp = sg.init_mlp(1, hidden=(8,), n_in=4, n_out=2)
    x = np.array([[1.0, 1.0, -1.0, 1.0], [-1.0, 1.0, 1.0, -1.0]])
    y = np.array([[0.1, -0.2], [0.3, 0.0]])
    loss, _ = mlp.loss_and_grads(x, y)
    np.testing.assert_allclose(loss, np.abs(mlp.predict(x) - y).mean(), rtol=1e-15)


def test_gradients_pass_central_difference_audit():
    x, y = _toy_data(8)
    mlp = sg.init_mlp(3, hidden=(32, 32))
    rel, checked, skipped = sg.grad_check(mlp, x, y, n_coords=150, seed=5)
    assert checked >= 100
    assert rel < 1e-4
    assert skipped < 25


def test_grad_check_catches_a_corrupted_gradient():
    x, y = _toy_data(8)
    mlp = sg.init_mlp(3, hidden=(32, 32))

    def off_by_two_percent(m, a, b):
        loss, grad = m.loss_and_grads(a, b)
        return loss, grad * 1.02

    rel, checked, _ = sg.grad_check(mlp, x, y, n_coords=150, seed=5, grad_fn=off_by_two_percent)
    assert checked >= 100
    assert rel > 1e-3


def test_training_memorizes_a_small_set():
    x, y = _toy_data(24)
    mlp = sg.init_mlp(1, hidden=(64, 64))
    res = sg.train(mlp, x, y, x, y, sg.TrainSettings(seed=2, batch_size=8, max_epochs=200,
                                                     patience=25, lr0=3e-3))
    assert res.best_val_mae < 0.03
    assert sg.mae(mlp, x, y) <= res.best_val_mae + 1e-12


def test_training_is_deterministic():
    x, y = _toy_data(16)
    runs = []
    for _ in range(2):
        mlp = sg.init_mlp(5, hidden=(16,))
        res = sg.train(mlp, x, y, x, y, sg.TrainSettings(seed=9, batch_size=4, max_epochs=5))
        runs.append((mlp, res))
    (m1, r1), (m2, r2) = runs
    assert r1.history == r2.history
    for a, b in zip(m1.weights, m2.weights):
        np.testing.assert_array_equal(a, b)


def test_training_history_and_checkpoint_are_frozen(tmp_path):
    """A small seeded run must reproduce its exact history and checkpoint
    bytes; the best epoch (5) is not the last, so the snapshot and restore
    of the best weights are covered too."""
    x, y = _toy_data(16)
    mlp = sg.init_mlp(5, hidden=(16, 8))
    settings = sg.TrainSettings(seed=9, batch_size=4, max_epochs=7, lr0=0.3, patience=2,
                                min_delta=0.02)
    res = sg.train(mlp, x[:12], y[:12], x[12:], y[12:], settings)
    assert res.history == [
        (1, 1.0920825364595932, 0.36463030014574227, 0.3),
        (2, 0.5810365247498281, 0.21195894319434444, 0.3),
        (3, 0.19704648638784197, 0.20179553528814073, 0.3),
        (4, 0.18109565906207106, 0.17098851551960123, 0.3),
        (5, 0.15289886169459424, 0.15051622929633632, 0.3),
        (6, 0.13397884136019975, 0.1365684349930864, 0.3),
        (7, 0.12399900224730948, 0.13717086502001216, 0.3),
    ]
    assert (res.best_epoch, res.epochs_run) == (5, 7)
    path = tmp_path / "net.ckpt"
    sg.save_checkpoint(str(path), mlp, meta={"best_epoch": res.best_epoch})
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "0f23cc9ae0ddb8838ece7e546e4ea28d01aacba83598f8d01a84bde35ae4b22d")


def _unflushed_adam_step(p, m, v, t, g, lr):
    """The Adam update with no zeroing of subnormal first moments."""
    c1 = 1.0 - sg.ADAM_BETA1**t
    c2 = 1.0 - sg.ADAM_BETA2**t
    m *= sg.ADAM_BETA1
    m += (1.0 - sg.ADAM_BETA1) * g
    v *= sg.ADAM_BETA2
    v += (1.0 - sg.ADAM_BETA2) * g * g
    p -= lr * (m / c1) / (np.sqrt(v / c2) + sg.ADAM_EPS)


@pytest.mark.parametrize("zeroings", [1, 3])
@pytest.mark.parametrize("lr", [1e-3, 10.0])
def test_adam_zeroes_subnormal_first_moments_without_moving_a_bit(zeroings, lr):
    """Crafted states: every parameter, every second moment and every normal
    first moment stays bit-equal to the unflushed formula over steps with
    zero and nonzero gradients, while subnormal first moments of parameters
    far from zero are zeroed at the second step."""
    tiny = np.finfo(np.float64).tiny
    sub = [5e-324, 2e-323, 1e-310, tiny * (1 - 2**-52)]
    moments = [s * sign for s in sub for sign in (1.0, -1.0)] + [0.0, -0.0, 3e-4, -tiny]
    params = [0.0, -0.0, 5e-324, -1e-310, 2.0**-950, -(2.0**-901), 2.0**-899, 1e-30, 0.3, -0.7]
    grid_p, grid_m = (a.ravel() for a in np.meshgrid(params, moments, indexing="ij"))
    size = grid_p.size
    mlp = sg.Mlp((size - 1, 1), grid_p.copy())
    opt = sg._Adam(mlp)
    opt.m[:] = grid_m
    opt.v[:] = CounterRng(3).uniform(size, 0.0, 1e-6) * (np.arange(size) % 3 > 0)
    opt.t = t0 = zeroings * sg._ZERO_EVERY - 2
    ref_p, ref_m, ref_v = mlp.params.copy(), opt.m.copy(), opt.v.copy()
    nonzero = CounterRng(4).uniform(size, -1e-3, 1e-3)
    half = np.where(np.arange(size) % 2 == 0, nonzero, 0.0)
    zero = np.zeros(size)
    flushed = np.zeros(size, dtype=bool)
    for t, g in enumerate([zero, zero, -zero, half, zero, nonzero, zero], start=t0 + 1):
        opt.step(mlp, g, lr)
        _unflushed_adam_step(ref_p, ref_m, ref_v, t, g, lr)
        assert mlp.params.tobytes() == ref_p.tobytes()
        assert opt.v.tobytes() == ref_v.tobytes()
        same = opt.m.view(np.int64) == ref_m.view(np.int64)
        zeroed = (opt.m == 0.0) & (np.abs(ref_m) < tiny) & (ref_m != 0.0)
        assert (same | zeroed).all()
        flushed |= zeroed
    # the zeroing happened, only where the parameter is far from zero, and
    # parameters at or near zero did move under the unflushed formula
    far = np.abs(grid_p) >= max(lr, 1.0) * 2.0**-900
    assert flushed.any() and not (flushed & ~far).any()
    assert (ref_p[~far] != grid_p[~far]).any()


def test_plateau_drops_lr_twice_then_stops():
    """With a step size too small to ever improve, the scheduler must fire an
    event every `patience` epochs: two rate cuts, then a stop."""
    x, y = _toy_data(8)
    mlp = sg.init_mlp(1, hidden=(8,))
    res = sg.train(mlp, x, y, x, y, sg.TrainSettings(seed=3, batch_size=8, lr0=1e-13,
                                                     max_epochs=50, patience=2,
                                                     min_delta=1e-4))
    assert res.stop_reason == "plateau"
    assert res.epochs_run == 7  # baseline epoch + 3 stretches of patience 2
    lrs = [row[3] for row in res.history]
    np.testing.assert_allclose(lrs, [1e-13, 1e-13, 1e-13, 1e-14, 1e-14, 1e-15, 1e-15])


def test_training_restores_best_weights():
    x, y = _toy_data(16)
    mlp = sg.init_mlp(4, hidden=(16,))
    res = sg.train(mlp, x, y, x, y, sg.TrainSettings(seed=6, batch_size=4, max_epochs=12))
    np.testing.assert_allclose(sg.mae(mlp, x, y), res.best_val_mae, rtol=1e-12)


@pytest.mark.parametrize("field, value", [
    ("lr0", float("nan")),
    ("lr0", float("inf")),
    ("min_delta", float("nan")),
    ("min_delta", float("inf")),
    ("min_delta", -1e-4),
])
def test_train_settings_refuse_values_that_corrupt_training(field, value):
    """A NaN min_delta never records a best epoch, so training would restore
    the initial weights; a negative one lets a worse epoch become the best;
    a NaN rate turns every weight into NaN."""
    with pytest.raises(ValueError, match=field):
        sg.TrainSettings(**{field: value})


def test_checkpoint_round_trip(tmp_path):
    mlp = sg.init_mlp(11, hidden=(16, 8), n_in=6, n_out=3)
    path = str(tmp_path / "net.ckpt")
    sg.save_checkpoint(path, mlp, meta={"tag": "unit"})
    back, meta = sg.load_checkpoint(path)
    assert meta == {"tag": "unit"}
    assert back.sizes == mlp.sizes
    for a, b in zip(mlp.weights + mlp.biases, back.weights + back.biases):
        np.testing.assert_array_equal(a, b)


def test_checkpoint_rejects_damage(tmp_path):
    mlp = sg.init_mlp(11, hidden=(8,), n_in=4, n_out=2)
    path = str(tmp_path / "net.ckpt")
    sg.save_checkpoint(path, mlp)
    blob = open(path, "rb").read()

    with open(path, "wb") as fh:
        fh.write(blob[:-8])
    with pytest.raises(ValueError, match="truncated"):
        sg.load_checkpoint(path)

    with open(path, "wb") as fh:
        fh.write(blob + b"\x00" * 8)
    with pytest.raises(ValueError, match="trailing"):
        sg.load_checkpoint(path)

    with open(path, "wb") as fh:
        fh.write(b'{"format": "other"}\n')
    with pytest.raises(ValueError, match="format"):
        sg.load_checkpoint(path)

    with open(path, "wb") as fh:
        fh.write(b"garbage\n")
    with pytest.raises(ValueError, match="not a checkpoint"):
        sg.load_checkpoint(path)

    with open(path, "wb") as fh:
        fh.write(b'["mlp-f64", [4, 8, 2]]\n')
    with pytest.raises(ValueError, match="not a checkpoint"):
        sg.load_checkpoint(path)

    header, body = blob.split(b"\n", 1)
    for sizes in (None, [4], [4, "8", 2], [4, 8.0, 2], [4, 0, 2], [4, True, 2], "4,8,2"):
        doc = json.loads(header)
        if sizes is None:
            del doc["sizes"]
        else:
            doc["sizes"] = sizes
        with open(path, "wb") as fh:
            fh.write(json.dumps(doc).encode() + b"\n" + body)
        with pytest.raises(ValueError, match="sizes"):
            sg.load_checkpoint(path)

    for bad in (np.nan, np.inf):
        params = np.frombuffer(body, "<f8").copy()
        params[3] = bad
        with open(path, "wb") as fh:
            fh.write(header + b"\n" + params.tobytes())
        with pytest.raises(ValueError, match="non-finite"):
            sg.load_checkpoint(path)


@pytest.mark.parametrize("edit, message", [
    ({"version": 99}, "checkpoint version 99 is not 1"),
    ({"version": 99, "meta": [1, 2]}, "checkpoint header field meta expects dict, got [1, 2]"),
    ({"version": True}, "checkpoint header field version expects int, got true"),
    ({"meta": None}, "checkpoint header field meta is missing"),
    ({"extra": 1}, "unknown checkpoint header field extra"),
])
def test_checkpoint_refuses_other_versions_and_malformed_meta(tmp_path, edit, message):
    path = str(tmp_path / "net.ckpt")
    sg.save_checkpoint(path, sg.init_mlp(11, hidden=(8,), n_in=4, n_out=2))
    header, body = open(path, "rb").read().split(b"\n", 1)
    doc = json.loads(header) | edit
    if edit.get("meta", {}) is None:
        del doc["meta"]
    with open(path, "wb") as fh:
        fh.write(json.dumps(doc).encode() + b"\n" + body)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        sg.load_checkpoint(path)


def test_history_csv(tmp_path):
    path = str(tmp_path / "hist.csv")
    sg.save_history(path, [(1, 0.5, 0.6, 1e-3), (2, 0.4, 0.55, 1e-3)])
    lines = open(path).read().splitlines()
    assert lines[0] == "epoch,train_mae,val_mae,lr"
    assert lines[1].startswith("1,0.50000000,0.60000000,")
    assert len(lines) == 3


def test_predict_s22_assembles_complex_rows():
    recs = ds.generate(5, seed=20)
    mlp = sg.init_mlp(2)
    s22 = sg.predict_s22(mlp, recs["genome"])
    out = mlp.predict(sg.encode_bits(recs["genome"]))
    assert s22.shape == (5, 61)
    np.testing.assert_array_equal(s22.real, out[:, :61])
    np.testing.assert_array_equal(s22.imag, out[:, 61:])
