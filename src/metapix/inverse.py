"""Design targets, genetic search over pixel genomes, and design validation.

The flow: build_target turns a frequency band plus a switch model into the
required reflection spectrum (solving the anti-phase condition per frequency),
ga_run searches genome space against any pure fitness scorer for it, and
validate_design re-checks the winner against the electrical model with the
switch loaded, reporting the usable operating band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import netcalc as nc
from .jsontypes import read_object
from .netcalc import PIN_SWITCH, SwitchModel
from .oracle import (
    FREQ_START,
    FREQ_STEP,
    GeometryMeta,
    OracleConstants,
    code_features,
    features_response_batch,
    freq_grid,
    response_batch,
    word_codes,
)
from .pattern import expand_genome, pack_genome
from .rng import CounterRng, bits_to_u64, u64_to_bits

FITNESS_EPS = 1e-6
PHASE_WINDOW_DEG = 45.0
LOSS_LIMIT_DB = 1.5


class NoSolutionError(RuntimeError):
    """The anti-phase condition has no root at a requested frequency."""


# ---------------------------------------------------------------------------
# targets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TargetSpec:
    """Required reflection per grid frequency; weight 0 marks don't-care."""

    freqs: np.ndarray
    re: np.ndarray
    im: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        for name in ("freqs", "re", "im", "weight"):
            value = np.asarray(getattr(self, name), dtype=float)
            if not np.isfinite(value).all():
                raise ValueError(f"target {name} must be finite")
            object.__setattr__(self, name, value)
        n = len(self.freqs)
        if not (len(self.re) == len(self.im) == len(self.weight) == n):
            raise ValueError("target arrays must share one length")
        if not (self.weight >= 0).all():
            raise ValueError("weights must be nonnegative")
        if not (self.weight > 0).any():
            raise ValueError("target needs at least one nonzero weight")
        with np.errstate(over="ignore"):  # the sum fitness divides by
            if not np.isfinite(self.weight.sum()):
                raise ValueError("target weight sum must be finite")
        live = self.weight > 0
        if np.abs(self.re[live]).max() > 1.0 or np.abs(self.im[live]).max() > 1.0:
            raise ValueError("required values must lie in [-1, 1]")

    def to_json(self) -> dict:
        return {
            "freqs": self.freqs.tolist(),
            "re": self.re.tolist(),
            "im": self.im.tolist(),
            "weight": self.weight.tolist(),
        }

    @classmethod
    def from_json(cls, obj) -> "TargetSpec":
        """Exactly the four fields, each a list of finite numbers."""
        fields = dict.fromkeys(("freqs", "re", "im", "weight"), tuple[float, ...])
        return cls(**read_object(fields, obj, "target"))


def _grid_index(f: float) -> int:
    """Nearest grid index; an exact half step rounds toward lower frequency."""
    idx = math.ceil((f - FREQ_START) / FREQ_STEP - 0.5)
    if not 0 <= idx < len(freq_grid()):
        raise ValueError(f"frequency {f} Hz is off the evaluation grid")
    return idx


def build_target(f_lo: float, f_hi: float, switch: SwitchModel = PIN_SWITCH,
                 anchors=()) -> TargetSpec:
    """Solve the anti-phase condition over [f_lo, f_hi] on the grid.

    Each in-band grid frequency gets the solved required response at weight 1,
    the switch impedances being re-evaluated per frequency.  Anchors are
    explicit (f, re, im) rows, also at weight 1, snapped to the nearest grid
    frequency; an anchor landing on an in-band row or on another anchor's row
    is refused rather than silently replacing the value set there.
    """
    if f_lo > f_hi:
        raise ValueError("f_lo must not exceed f_hi")
    freqs = freq_grid()
    in_band = (freqs >= f_lo) & (freqs <= f_hi)
    if not in_band.any() and not anchors:
        raise ValueError("band contains no grid frequency and no anchors given")

    re = np.zeros_like(freqs)
    im = np.zeros_like(freqs)
    weight = np.zeros_like(freqs)
    for k in np.flatnonzero(in_band):
        f = float(freqs[k])
        # scalar f per row: loads from one call on the grid differ in their last bits
        sol = nc.solve_target_s22(*nc.switch_loads(switch, f))
        if not sol.converged:
            raise NoSolutionError(
                f"anti-phase condition unsolved at {f} Hz (residual {sol.residual:.3e})"
            )
        s22 = sol.a22 * complex(math.cos(sol.theta22), math.sin(sol.theta22))
        re[k], im[k], weight[k] = s22.real, s22.imag, 1.0
    for f, a_re, a_im in anchors:
        k = _grid_index(float(f))
        if weight[k]:
            kind = "in-band" if in_band[k] else "already anchored"
            raise ValueError(f"anchor at {f} Hz snaps to {kind} grid frequency {freqs[k]} Hz")
        re[k], im[k], weight[k] = float(a_re), float(a_im), 1.0
    return TargetSpec(freqs, re, im, weight)


# ---------------------------------------------------------------------------
# fitness
# ---------------------------------------------------------------------------


def target_error(s22: np.ndarray, target: TargetSpec) -> np.ndarray:
    """Weighted mean of (|dRe| + |dIm|)/2 over nonzero-weight frequencies."""
    s22 = np.atleast_2d(np.asarray(s22))
    if s22.shape[1] != len(target.freqs):
        raise ValueError(f"response has {s22.shape[1]} points, target {len(target.freqs)}")
    err = 0.5 * (np.abs(s22.real - target.re) + np.abs(s22.imag - target.im))
    return (err * target.weight).sum(axis=1) / target.weight.sum()


def fitness_of(s22: np.ndarray, target: TargetSpec) -> np.ndarray:
    return 1.0 / (target_error(s22, target) + FITNESS_EPS)


# ---------------------------------------------------------------------------
# evaluators
# ---------------------------------------------------------------------------


def _cached_scorer(key_of, score):
    """Scorer from (k, 64) genome bits to (k,) fitness that scores each key once.

    The scorer packs the bits to genome words once; key_of maps the words to
    the (k,) integer keys fitness depends on alone, and score(keys) scores
    the call's new keys, sorted, as one batch.  The scorer keeps a sorted
    array of the keys seen, in their own dtype, and their float64 fitness.
    """
    keys = values = None

    def evaluate(bits: np.ndarray) -> np.ndarray:
        nonlocal keys, values
        batch, inverse = np.unique(key_of(bits_to_u64(bits)), return_inverse=True)
        if keys is None:
            keys, values = batch[:0], np.empty(0)
        pos = np.searchsorted(keys, batch)
        # every key value can occur (the all-ones genome word included), so
        # positions past the end are masked rather than caught by a sentinel
        seen = pos < len(keys)
        seen[seen] = keys[pos[seen]] == batch[seen]
        fit = np.empty(len(batch))
        fit[seen] = values[pos[seen]]
        miss = ~seen
        if miss.any():
            fit[miss] = score(batch[miss])
            keys = np.insert(keys, pos[miss], batch[miss])
            values = np.insert(values, pos[miss], fit[miss])
        return fit[inverse]

    return evaluate


def oracle_evaluator(target: TargetSpec, consts: OracleConstants = OracleConstants(),
                     geom: GeometryMeta = GeometryMeta()):
    """Scorer mapping (k, 64) genome bits to (k,) oracle fitness against target.

    Fitness depends on a genome only through its feature code, so the scorer
    runs the oracle once per code for its whole life, on the feature row the
    code fixes (code_features), without mirroring the genome.  The kernel and
    fitness_of are exact row by row, so every value has the bits of a
    one-genome fitness_of(response_batch(...)) call.
    """
    def score(codes):
        return fitness_of(features_response_batch(code_features(codes), consts, geom), target)

    return _cached_scorer(word_codes, score)


def surrogate_evaluator(mlp, target: TargetSpec):
    """Same contract as oracle_evaluator, backed by a trained network.

    The scorer runs the network once per distinct genome word for its whole
    life, on each call's new words as one batch, so a call sequence always
    gives the same bits.  A batch of other size may differ in the last bit,
    as the matrix library picks its kernel by batch size.
    """
    from .surrogate import predict_s22

    def score(words):
        return fitness_of(predict_s22(mlp, words), target)

    return _cached_scorer(lambda words: words, score)


# ---------------------------------------------------------------------------
# genetic search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GAConfig:
    population: int = 1000
    generations: int = 300
    tournament: int = 4
    crossover_p: float = 0.5
    mutation_p: float = 1.0 / 64.0
    elitism: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.population < 2:
            raise ValueError("population must be at least 2")
        if not 0 < self.crossover_p <= 1 or not 0 < self.mutation_p <= 1:
            raise ValueError("probabilities must lie in (0, 1]")
        if self.tournament < 1:
            raise ValueError(f"tournament must be at least 1, got {self.tournament}")
        if self.generations < 0:
            raise ValueError(f"generations must be nonnegative, got {self.generations}")
        if not 0 <= self.elitism < self.population:
            raise ValueError("elitism must be smaller than the population")


@dataclass
class GaResult:
    best_word: int
    best_bits: np.ndarray
    best_fitness: float
    history_best: np.ndarray = field(repr=False)
    history_median: np.ndarray = field(repr=False)


def ga_run(cfg: GAConfig, evaluator) -> GaResult:
    """Tournament GA with elitism over 64-bit genomes, exactly reproducible.

    The population is an (n,) array of uint64 genome words.  Crossover takes
    each bit from the first parent where a packed mask of Bernoulli draws is
    set, mutation XORs a second packed mask; both masks hold the same draws,
    bit for bit, as comparing CounterRng.random with the probabilities.
    evaluator maps (k, 64) genome bits to (k,) fitness, as the scorers from
    oracle_evaluator and surrogate_evaluator do; it is called once on the
    initial population and once per generation.  history_* hold one entry
    for the initial population and one per generation; elitism makes
    history_best nondecreasing.
    """
    rng = CounterRng(cfg.seed)
    pop = rng.u64(cfg.population)

    fit = evaluator(u64_to_bits(pop))
    hist_best = [float(fit.max())]
    hist_median = [float(np.median(fit))]

    n_children = cfg.population - cfg.elitism

    def mask(p: float) -> np.ndarray:
        return bits_to_u64(rng.below(n_children * 64, p).reshape(n_children, 64))

    for _ in range(cfg.generations):
        order = np.argsort(-fit, kind="stable")
        elites = pop[order[: cfg.elitism]]

        draws = rng.integers(n_children * 2 * cfg.tournament, cfg.population)
        contest = draws.reshape(n_children, 2, cfg.tournament)
        winners = contest[
            np.arange(n_children)[:, None], [0, 1], np.argmax(fit[contest], axis=2)
        ]
        take_a = mask(cfg.crossover_p)
        children = (pop[winners[:, 0]] & take_a) | (pop[winners[:, 1]] & ~take_a)
        children ^= mask(cfg.mutation_p)

        pop = np.concatenate([elites, children])
        fit = evaluator(u64_to_bits(pop))
        hist_best.append(float(fit.max()))
        hist_median.append(float(np.median(fit)))

    k = int(np.argmax(fit))
    return GaResult(
        best_word=int(pop[k]),
        best_bits=u64_to_bits(pop[k : k + 1])[0],
        best_fitness=float(fit[k]),
        history_best=np.array(hist_best),
        history_median=np.array(hist_median),
    )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass
class DesignReport:
    """What validate_design computes for one genome: the model response, the
    loaded reflection of each switch state, their losses and phase difference,
    and the operating band as a per-frequency mask and as segments."""

    genome_word: int
    freqs: np.ndarray
    oracle_s22: np.ndarray
    gamma1_state0: np.ndarray
    gamma1_state1: np.ndarray
    loss0_db: np.ndarray
    loss1_db: np.ndarray
    phase_diff_deg: np.ndarray
    band_mask: np.ndarray
    band_segments: tuple[tuple[float, float], ...]

    @property
    def genome_hex(self) -> str:
        return pack_genome(self.genome_word)


def _segments(freqs: np.ndarray, mask: np.ndarray) -> tuple[tuple[float, float], ...]:
    out = []
    start = None
    for k, ok in enumerate(mask):
        if ok and start is None:
            start = k
        elif not ok and start is not None:
            out.append((float(freqs[start]), float(freqs[k - 1])))
            start = None
    if start is not None:
        out.append((float(freqs[start]), float(freqs[-1])))
    return tuple(out)


def validate_design(genome_bits, switch: SwitchModel = PIN_SWITCH,
                    consts: OracleConstants = OracleConstants(),
                    geom: GeometryMeta = GeometryMeta()) -> DesignReport:
    """Re-evaluate a genome under the electrical model with the switch loaded.

    Per frequency the model response is split into magnitude and phase, the
    loaded reflection is computed for both switch states, and the operating
    band collects contiguous grid frequencies with the state phase difference
    within 45 degrees of anti-phase and both losses at most 1.5 dB.  What the
    design search predicted is not read here: report_csv and report_summary
    take it from the caller.
    """
    bits = np.asarray(genome_bits, dtype=np.uint8).reshape(1, 64)
    freqs = freq_grid()
    s22 = response_batch(expand_genome(bits), consts, geom)[0]

    a, theta = np.abs(s22), np.angle(s22)
    g0, g1 = (nc.gamma1_reduced(a, theta, gl) for gl in nc.switch_loads(switch, freqs))
    m = nc.coding_metrics(g0, g1)

    mask = (
        (np.abs(m.phase_diff_deg - 180.0) <= PHASE_WINDOW_DEG)
        & (m.loss0_db <= LOSS_LIMIT_DB)
        & (m.loss1_db <= LOSS_LIMIT_DB)
    )

    return DesignReport(
        genome_word=int(bits_to_u64(bits)[0]),
        freqs=freqs,
        oracle_s22=s22,
        gamma1_state0=g0,
        gamma1_state1=g1,
        loss0_db=m.loss0_db,
        loss1_db=m.loss1_db,
        phase_diff_deg=m.phase_diff_deg,
        band_mask=mask,
        band_segments=_segments(freqs, mask),
    )


def report_csv(report: DesignReport, target: TargetSpec | None = None,
               predicted: np.ndarray | None = None) -> str:
    """Spectra table: frequency, target, predicted, model, loaded states.

    The target columns are filled where `target` has nonzero weight and the
    predicted ones where `predicted`, the (61,) s22 the design search
    predicted, is given; the rest come from `report`.
    """
    cols = ["f_hz", "target_re", "target_im", "pred_re", "pred_im",
            "oracle_re", "oracle_im", "g1_state0_re", "g1_state0_im",
            "g1_state1_re", "g1_state1_im", "loss0_db", "loss1_db",
            "phase_diff_deg", "in_band"]
    lines = [",".join(cols)]
    for k, f in enumerate(report.freqs):
        t_re = t_im = ""
        if target is not None and target.weight[k] > 0:
            t_re, t_im = f"{target.re[k]:.6f}", f"{target.im[k]:.6f}"
        p_re = p_im = ""
        if predicted is not None:
            p_re, p_im = f"{predicted[k].real:.6f}", f"{predicted[k].imag:.6f}"
        lines.append(",".join([
            f"{f:.0f}", t_re, t_im, p_re, p_im,
            f"{report.oracle_s22[k].real:.6f}", f"{report.oracle_s22[k].imag:.6f}",
            f"{report.gamma1_state0[k].real:.6f}", f"{report.gamma1_state0[k].imag:.6f}",
            f"{report.gamma1_state1[k].real:.6f}", f"{report.gamma1_state1[k].imag:.6f}",
            f"{report.loss0_db[k]:.4f}", f"{report.loss1_db[k]:.4f}",
            f"{report.phase_diff_deg[k]:.3f}", str(int(report.band_mask[k])),
        ]))
    return "\n".join(lines) + "\n"


def report_summary(report: DesignReport, history_best=(), target: TargetSpec | None = None,
                   predicted: np.ndarray | None = None) -> str:
    """Genome, operating band, the target_error of the oracle response and of
    `predicted`, the (61,) s22 the design search predicted, when `target` is
    given, and, from the search's `history_best`, its final fitness."""
    lines = [f"genome {report.genome_hex}"]
    if report.band_segments:
        for lo, hi in report.band_segments:
            lines.append(f"operating band {lo / 1e9:.1f}-{hi / 1e9:.1f} GHz")
    else:
        lines.append("operating band empty")
    if target is not None:
        lines.append(f"oracle target error {target_error(report.oracle_s22, target)[0]:.6f}")
        if predicted is not None:
            lines.append(f"predicted target error {target_error(predicted, target)[0]:.6f}")
    if len(history_best):
        lines.append(f"final fitness {history_best[-1]:.3f}")
    return "\n".join(lines) + "\n"
