"""Dense ReLU surrogate of the electrical model, float64 numpy throughout.

The network maps the 64 genome bits to the 122 response values, laid out as
the 61 real parts followed by the 61 imaginary parts.  Inputs are held as
int8, bit b as 2b - 1 in {-1, +1}, 64 bytes per genome; `Mlp.forward` takes
each batch to float64, which holds those values exactly.
All parameters live in one float64 vector, `Mlp.params`: for each layer the
(fan_in, fan_out) weight block, then the bias block.  The gradient, the Adam
moments, the best-weight snapshot and the checkpoint body share that layout.
Training is plain minibatch Adam on mean absolute error with a
reduce-on-plateau schedule; every random draw (init, shuffles, coordinate
picks) comes from CounterRng so runs are exactly repeatable.
At its peak, training holds x and y, the parameters, the two Adam moments
and the best snapshot, plus either one gradient during a step or two
activations during validation: a forward pass adds each bias in place in
the fresh product, and each batch's gradient is released after its Adam
step.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .dataset import RESP_WIDTH, FileBlocks
from .jsontypes import loads, read_object
from .oracle import N_FREQ
from .rng import CounterRng, u64_to_bits

DEFAULT_HIDDEN = (256, 256, 256)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
PREDICT_BATCH = 4096  # rows per forward pass in predict_s22 and mae
GRAD_CHECK_EPS = 1e-5  # central-difference half step of grad_check
_NORMAL_MIN = np.finfo(np.float64).tiny  # 2**-1022, the smallest normal float64
# Adam steps between zeroings of subnormal first moments: a zeroing costs
# about a quarter of a step, and a moment that turns subnormal stays so for
# at most 15 more steps
_ZERO_EVERY = 16

CHECKPOINT_FORMAT = "mlp-f64"
CHECKPOINT_VERSION = 1
_CHECKPOINT_FIELDS = {"format": str, "version": int, "sizes": tuple[int, ...], "meta": dict}


class Mlp:
    """Fully connected ReLU net over one flat float64 parameter vector.

    `params` holds, layer by layer, the (fan_in, fan_out) weight block and
    then the fan_out bias block; `weights[k]`, `biases[k]` and `layers[k]`
    (the slice of layer k in `params`) are fixed views built here.
    """

    def __init__(self, sizes, params: np.ndarray | None = None):
        self.sizes = tuple(sizes)
        self._blocks = []  # (start, bias start, end, fan_in, fan_out) per layer
        end = 0
        for fan_in, fan_out in zip(self.sizes, self.sizes[1:]):
            start, mid, end = end, end + fan_in * fan_out, end + (fan_in + 1) * fan_out
            self._blocks.append((start, mid, end, fan_in, fan_out))
        self.layers = [slice(a, c) for a, _, c, _, _ in self._blocks]
        self.params = np.zeros(end) if params is None else params
        self.weights, self.biases = self._views(self.params)

    def _views(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer weight and bias views of a vector laid out like `params`."""
        return ([flat[a:b].reshape(fi, fo) for a, b, _, fi, fo in self._blocks],
                [flat[b:c] for _, b, c, _, _ in self._blocks])

    def _activations(self, x: np.ndarray) -> Iterator[np.ndarray]:
        """Each layer activation in turn, input (as float64) first, linear output last."""
        a = np.asarray(x, dtype=np.float64)
        yield a
        last = len(self.weights) - 1
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = a @ w
            a += b  # in the fresh product: a pass holds two activations, not three
            if k < last:
                np.maximum(a, 0.0, out=a)
            yield a

    def forward(self, x: np.ndarray) -> list[np.ndarray]:
        """All layer activations, input first, linear output last."""
        return list(self._activations(x))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """The linear output alone; at most two activations are held at a time."""
        return deque(self._activations(x), maxlen=1)[0]

    def loss_and_grads(self, x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        """Mean absolute error and its gradient, laid out like `params`."""
        acts = self.forward(x)
        err = acts[-1] - y
        loss = float(np.abs(err).mean())
        delta = np.sign(err) / err.size
        grad = np.empty_like(self.params)
        gws, gbs = self._views(grad)
        for k in range(len(self.weights) - 1, -1, -1):
            np.matmul(acts[k].T, delta, out=gws[k])
            delta.sum(axis=0, out=gbs[k])
            if k:
                delta = (delta @ self.weights[k].T) * (acts[k] > 0.0)
        return loss, grad


def init_mlp(seed: int, hidden: tuple[int, ...] = DEFAULT_HIDDEN,
             n_in: int = 64, n_out: int = RESP_WIDTH) -> Mlp:
    """He-uniform weights, zero biases, drawn layer by layer from one seed."""
    mlp = Mlp((n_in, *hidden, n_out))
    rng = CounterRng(seed)
    for w in mlp.weights:
        bound = np.sqrt(6.0 / w.shape[0])
        w[:] = rng.uniform(w.size, -bound, bound).reshape(w.shape)
    return mlp


# ---------------------------------------------------------------------------
# data plumbing
# ---------------------------------------------------------------------------


def encode_bits(words: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Genome words -> (n, 64) int8 inputs in {-1, +1}, written to `out` if given."""
    bits = u64_to_bits(np.asarray(words, dtype=np.uint64))
    x = np.multiply(bits.view(np.int8), 2, out=out)
    x -= 1
    return x


def targets_from_resp(resp: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Interleaved (n, 122) records -> network layout (61 Re then 61 Im), written to `out` if given."""
    resp = np.asarray(resp)
    return np.concatenate([resp[:, 0::2], resp[:, 1::2]], axis=1, out=out)


def records_to_xy(records: np.ndarray | FileBlocks) -> tuple[np.ndarray, np.ndarray]:
    """(n, 64) int8 inputs and (n, 122) float64 targets of a record array or of
    a dataset file's blocks, filled block by block: beside the two arrays, a
    file's records are held only as the block in hand and the next one while
    it is read."""
    whole = isinstance(records, np.ndarray)
    n = len(records) if whole else records.header.n
    x = np.empty((n, 64), dtype=np.int8)
    y = np.empty((n, RESP_WIDTH))
    i = 0
    for block in (records,) if whole else records:
        j = i + len(block)
        encode_bits(block["genome"], out=x[i:j])
        targets_from_resp(block["resp"], out=y[i:j])
        i = j
    return x, y


def predict_s22(mlp: Mlp, words: np.ndarray) -> np.ndarray:
    """Genome words -> (n, 61) complex response under the surrogate.

    A network whose output overflows or is not finite is refused with
    ValueError rather than scored.
    """
    x = encode_bits(words)
    with np.errstate(over="ignore", invalid="ignore"):
        outs = [mlp.predict(x[i : i + PREDICT_BATCH]) for i in range(0, len(x), PREDICT_BATCH)]
    out = np.concatenate(outs) if outs else np.empty((0, RESP_WIDTH))
    if not np.isfinite(out).all():
        raise ValueError("the surrogate predicts a non-finite response")
    return out[:, :N_FREQ] + 1j * out[:, N_FREQ:]


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainSettings:
    """Network shape and training schedule; `seed` drives init and shuffles."""

    hidden: tuple[int, ...] = DEFAULT_HIDDEN
    batch_size: int = 64
    lr0: float = 1e-3
    max_epochs: int = 150
    patience: int = 10
    min_delta: float = 1e-4
    lr_drops: int = 2
    seed: int = 0

    def __post_init__(self):
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ValueError("hidden sizes must be positive")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch size and epoch count must be positive")
        if not 0 < self.lr0 < np.inf:  # also false for NaN
            raise ValueError(f"lr0 must be finite and positive, got {self.lr0}")
        if not 0 <= self.min_delta < np.inf:  # NaN or < 0 corrupts the best snapshot
            raise ValueError(f"min_delta must be finite and nonnegative, got {self.min_delta}")
        if self.patience < 1:
            raise ValueError(f"patience must be at least 1, got {self.patience}")
        if self.lr_drops < 0:
            raise ValueError(f"lr_drops must be nonnegative, got {self.lr_drops}")


@dataclass
class TrainResult:
    best_val_mae: float
    best_epoch: int
    epochs_run: int
    stop_reason: str
    history: list[tuple[int, float, float, float]] = field(repr=False, default_factory=list)


class _Adam:
    """Adam moments laid out like `params`; `step` updates them and the net in place."""

    def __init__(self, mlp: Mlp):
        self.m = np.zeros_like(mlp.params)
        self.v = np.zeros_like(mlp.params)
        self.t = 0

    def step(self, mlp: Mlp, grad: np.ndarray, lr: float):
        self.t += 1
        c1 = 1.0 - ADAM_BETA1**self.t
        c2 = 1.0 - ADAM_BETA2**self.t
        # layer by layer: whole-vector temporaries would not stay in cache
        for s in mlp.layers:
            p, g, m, v = mlp.params[s], grad[s], self.m[s], self.v[s]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        if self.t % _ZERO_EVERY == 0:
            self._zero_subnormal_moments(mlp.params, lr)

    def _zero_subnormal_moments(self, params: np.ndarray, lr: float) -> None:
        """Zero the first moments that decayed below the normal range, where
        that moves no bit of any later step.

        A first moment whose gradients stay 0 decays into the subnormal range
        and then takes every step through subnormal arithmetic, which is slow
        on x86.  Left as it is, it would go on moving its parameter by less
        than lr * 2**-990 per step (|m| < 2**-1022, c1 >= 0.1, denominator >=
        1e-8): below a quarter ulp of any |p| >= max(lr, 1) * 2**-900, the only
        parameters whose moments are zeroed, as lr never rises in `train`.
        Once a gradient g returns, 0.9 * m + 0.1 * g rounds to 0.1 * g unless
        |0.1 * g| < 2**-968; a nonzero gradient of this network is a sum of
        products of activations, weights and 1/(batch x 122), nowhere near.
        """
        small = np.abs(self.m) < _NORMAL_MIN
        small &= np.abs(params) >= max(lr, 1.0) * 2.0**-900
        self.m[small] = 0.0


def mae(mlp: Mlp, x: np.ndarray, y: np.ndarray) -> float:
    """Mean absolute error of the network's outputs for x against y.

    The forward passes take PREDICT_BATCH rows at a time, as predict_s22's
    do, and the batches' error sums are added in order.  Each batch's error
    and its magnitude are taken in place in the prediction.
    """
    total = 0.0
    for i in range(0, len(x), PREDICT_BATCH):
        err = mlp.predict(x[i : i + PREDICT_BATCH])
        err -= y[i : i + PREDICT_BATCH]
        total += float(np.abs(err, out=err).sum())
    return total / y.size


def train(mlp: Mlp, x_train: np.ndarray, y_train: np.ndarray,
          x_val: np.ndarray, y_val: np.ndarray,
          settings: TrainSettings = TrainSettings(), log=None) -> TrainResult:
    """Adam + reduce-on-plateau, in place on `mlp`.

    Plateau events fire when the best validation error has not improved by
    min_delta for `patience` straight epochs; the first `lr_drops` events
    divide the rate by 10, the next one stops training.  The weights left in
    `mlp` are the best-validation ones, not the last ones.  `settings.hidden`
    is not read here: the network's shape is fixed by `mlp`.  An epoch whose
    training or validation error is not finite raises ValueError naming it:
    the network diverged.
    """
    rng = CounterRng(settings.seed)
    opt = _Adam(mlp)
    best = mlp.params.copy()
    best_val = np.inf
    best_epoch = 0
    lr = settings.lr0
    bad = 0
    events = 0
    history: list[tuple[int, float, float, float]] = []
    stop_reason = "max_epochs"

    n = len(x_train)
    epochs_run = 0
    for epoch in range(1, settings.max_epochs + 1):
        epochs_run = epoch
        order = rng.permutation(n)
        running = 0.0
        # a diverging network overflows; the epoch's error reports it below
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(0, n, settings.batch_size):
                idx = order[i : i + settings.batch_size]
                loss, grad = mlp.loss_and_grads(x_train[idx], y_train[idx])
                opt.step(mlp, grad, lr)
                del grad  # held beside neither the next batch's gradient nor validation
                running += loss * len(idx)
            train_mae = running / n
            val_mae = mae(mlp, x_val, y_val)
        if not (np.isfinite(train_mae) and np.isfinite(val_mae)):
            raise ValueError(f"training diverged at epoch {epoch}: train MAE {train_mae:g}, "
                             f"val MAE {val_mae:g}")
        history.append((epoch, train_mae, val_mae, lr))
        if log is not None:
            log(f"epoch {epoch:4d}  train {train_mae:.5f}  val {val_mae:.5f}  lr {lr:g}")

        if val_mae < best_val - settings.min_delta:
            best_val = val_mae
            best_epoch = epoch
            np.copyto(best, mlp.params)
            bad = 0
        else:
            bad += 1
            if bad >= settings.patience:
                events += 1
                bad = 0
                if events > settings.lr_drops:
                    stop_reason = "plateau"
                    break
                lr /= 10.0

    np.copyto(mlp.params, best)
    return TrainResult(float(best_val), best_epoch, epochs_run, stop_reason, history)


def save_history(path: str, history) -> None:
    with open(path, "w") as fh:
        fh.write("epoch,train_mae,val_mae,lr\n")
        for epoch, tr, va, lr in history:
            fh.write(f"{epoch},{tr:.8f},{va:.8f},{lr:g}\n")


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path: str, mlp: Mlp, meta: dict | None = None) -> None:
    """One JSON line (format, version, sizes, meta), then `mlp.params` as raw
    little endian float64: per layer the weight block followed by the bias block."""
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "sizes": list(mlp.sizes),
        "meta": meta or {},
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
        fh.write(mlp.params.astype("<f8", copy=False).tobytes())


def load_checkpoint(path: str) -> tuple[Mlp, dict]:
    """Network and meta dict; ValueError on any malformed header or body."""
    with open(path, "rb") as fh:
        line = fh.readline()
        body = fh.read()
    try:
        header = loads(line.decode())
    except ValueError as exc:
        raise ValueError(f"{path}: not a checkpoint file") from exc
    if not isinstance(header, dict):
        raise ValueError(f"{path}: not a checkpoint file")
    if header.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: unknown checkpoint format {header.get('format')!r}")
    try:
        header = read_object(_CHECKPOINT_FIELDS, header, "checkpoint header field")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if header["version"] != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: checkpoint version {header['version']} is not {CHECKPOINT_VERSION}")
    sizes = header["sizes"]
    if len(sizes) < 2 or min(sizes) < 1:
        raise ValueError(f"{path}: checkpoint sizes must be two or more positive ints: {sizes}")
    need = 8 * sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes, sizes[1:]))
    if len(body) < need:
        raise ValueError(f"{path}: checkpoint truncated")
    if len(body) > need:
        raise ValueError(f"{path}: {len(body) - need} trailing bytes in checkpoint")
    params = np.frombuffer(body, "<f8").astype(np.float64)
    if not np.isfinite(params).all():
        raise ValueError(f"{path}: non-finite weights in checkpoint")
    return Mlp(sizes, params), header["meta"]


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------


def grad_check(mlp: Mlp, x: np.ndarray, y: np.ndarray, *, n_coords: int = 120,
               seed: int = 0, grad_fn=None) -> tuple[float, int, int]:
    """Central-difference audit of the analytic gradient.

    Checks n_coords randomly chosen coordinates of `mlp.params` and returns
    (max relative error, checked, skipped).  A coordinate is skipped when the
    +/- GRAD_CHECK_EPS evaluations disagree on any ReLU gate or error sign,
    since the difference quotient straddles a kink there and says nothing
    about the gradient.  `grad_fn(mlp, x, y) -> (loss, grad)` substitutes the
    gradient implementation under audit; default is the network's own.
    """
    loss_grad = grad_fn or (lambda m, a, b: m.loss_and_grads(a, b))
    _, analytic = loss_grad(mlp, x, y)
    params = mlp.params

    def signature_and_loss(i, delta):
        keep = params[i]
        params[i] = keep + delta
        acts = mlp.forward(x)
        params[i] = keep
        err = acts[-1] - y
        gates = [a > 0.0 for a in acts[1:-1]]
        return float(np.abs(err).mean()), gates, np.sign(err)

    picks = CounterRng(seed).integers(n_coords, params.size)
    max_rel = 0.0
    checked = skipped = 0
    for i in picks:
        lp, gates_p, signs_p = signature_and_loss(i, +GRAD_CHECK_EPS)
        lm, gates_m, signs_m = signature_and_loss(i, -GRAD_CHECK_EPS)
        same = np.array_equal(signs_p, signs_m) and all(
            np.array_equal(a, b) for a, b in zip(gates_p, gates_m)
        )
        if not same:
            skipped += 1
            continue
        fd = (lp - lm) / (2.0 * GRAD_CHECK_EPS)
        ga = float(analytic[i])
        rel = abs(ga - fd) / max(abs(ga), abs(fd), 1e-12)
        max_rel = max(max_rel, rel)
        checked += 1
    return max_rel, checked, skipped
