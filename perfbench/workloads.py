"""The benchmark workloads: the stage chain each runs, built from a seed.

Each workload is a closed loop with one client: the stages run one after
another, as a user at a shell would run them, and no stage starts more than
two processes.  The GA, dataset and training seeds derive from the workload
seed; the program sees only the generated argv (and, for `train`, a config
file naming the training seed).  Paths are relative to the directory a
repetition runs in.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

WORKLOADS = ("design-oracle", "surrogate-build", "dataset-bulk")

BAND = "5.3e9:6.3e9"
ANCHOR = "5.0e9:-0.1:0"
POPULATION = 1000
GENERATIONS = 300
SURROGATE_RECORDS = 11000
EPOCHS = 3  # well below the default patience of 10, so every run trains 3 epochs
BULK_RECORDS = 100_000
STEER_THETA = 30.0
CUT_STEP = 0.25  # the `array --step` default


@dataclass(frozen=True)
class Stage:
    name: str
    argv: tuple[str, ...]
    # False for the --jobs 2 pass: its work runs in pool processes the tracer
    # cannot see, so it supplies only the generate wall time
    layer_split: bool = True


@dataclass(frozen=True)
class Chain:
    workload: str
    stages: tuple[Stage, ...]
    files: dict = field(default_factory=dict)  # input files written before the chain


def derive_seed(seed: int, role: str) -> int:
    """A 31-bit seed for one role, fixed by the workload seed."""
    digest = hashlib.sha256(f"{seed}:{role}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def _target() -> Stage:
    return Stage("target", ("target", "--band", BAND, "--anchor", ANCHOR, "--out", "target.json"))


def _design(evaluator: str, ga_seed: int) -> Stage:
    argv = ["design", "--target", "target.json", "--evaluator", evaluator,
            "--seed", str(ga_seed), "--population", str(POPULATION),
            "--generations", str(GENERATIONS), "--out", "design.json"]
    if evaluator == "surrogate":
        argv += ["--ckpt", "surrogate.ckpt"]
    return Stage("design", tuple(argv))


def _validate() -> Stage:
    return Stage("validate", ("validate", "--design", "design.json", "--target", "target.json",
                              "--out", "validation.csv", "--pbm", "genome.pbm"))


def _gen(n: int, data_seed: int, jobs: int, out: str) -> Stage:
    return Stage(f"gen.jobs{jobs}",
                 ("gen", "--n", str(n), "--seed", str(data_seed), "--jobs", str(jobs), "--out", out),
                 layer_split=jobs == 1)


def build(workload: str, seed: int) -> Chain:
    ga_seed = derive_seed(seed, "ga")
    data_seed = derive_seed(seed, "dataset")
    if workload == "design-oracle":
        stages = (
            _target(),
            _design("oracle", ga_seed),
            _validate(),
            Stage("array", ("array", "--steer", f"{STEER_THETA:g}:0", "--design", "design.json",
                            "--sweep", "--hemisphere", "--outdir", ".")),
        )
        return Chain(workload, stages)
    if workload == "surrogate-build":
        stages = (
            _target(),
            _gen(SURROGATE_RECORDS, data_seed, 1, "dataset.bin"),
            Stage("train", ("train", "--config", "train_config.json", "--data", "dataset.bin",
                            "--epochs", str(EPOCHS), "--out", "surrogate.ckpt",
                            "--history", "train_history.csv")),
            _design("surrogate", ga_seed),
            _validate(),
        )
        files = {"train_config.json": {"train": {"seed": derive_seed(seed, "train")}}}
        return Chain(workload, stages, files)
    if workload == "dataset-bulk":
        stages = (
            _gen(BULK_RECORDS, data_seed, 1, "jobs1.bin"),
            _gen(BULK_RECORDS, data_seed, 2, "jobs2.bin"),
            Stage("stats", ("stats", "--data", "jobs1.bin", "--out", "stats.json")),
        )
        return Chain(workload, stages)
    raise ValueError(f"unknown workload {workload!r}")


def train_rows(n: int) -> int:
    """Training rows of an n-record dataset under the default 10/11 split."""
    return n * 10 // 11
