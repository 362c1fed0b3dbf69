"""Output checks of one repetition of a workload chain.

Every check counts as attempted; a failed one is kept with a reason.  The
checks recompute what they can with the metapix library itself (the oracle is
the ground truth the pipeline is judged by), so they must run with the tracer
uninstalled.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import BULK_RECORDS, CUT_STEP, EPOCHS, STEER_THETA

ARTIFACTS = {
    "design-oracle": ("target.json", "design.json", "validation.csv", "genome.pbm",
                      "pattern_phi0.csv", "pattern_phi90.csv", "codes.pbm", "sweep.csv",
                      "hemisphere.pgm"),
    "surrogate-build": ("target.json", "dataset.bin", "surrogate.ckpt", "train_history.csv",
                        "design.json", "validation.csv", "genome.pbm"),
    "dataset-bulk": ("jobs1.bin", "jobs2.bin", "stats.json"),
}


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok, failure: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(failure)
        return bool(ok)


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_rep(workload: str, d: Path, checks: Checks) -> tuple[dict[str, str], dict[str, float]]:
    """Check the artifacts in `d`; return their hashes and the quality figures."""
    hashes: dict[str, str] = {}
    for name in ARTIFACTS[workload]:
        art, side = d / name, d / f"{name}.manifest.json"
        if not checks.expect(art.is_file() and side.is_file(), f"{name}: artifact or manifest missing"):
            continue
        hashes[name] = sha256(art)
        recorded = json.loads(side.read_text()).get("sha256")
        checks.expect(recorded == hashes[name], f"{name}: manifest sha256 does not match the bytes")
    if len(hashes) < len(ARTIFACTS[workload]):
        return hashes, {}

    quality: dict[str, float] = {}
    if workload == "design-oracle":
        quality["design_error"] = _check_design(d, checks, exact=True)
        _check_array(d, checks)
    elif workload == "surrogate-build":
        quality["design_error"] = _check_design(d, checks, exact=False)
        quality["surrogate_val_mae"] = _check_train(d, checks)
    else:
        checks.expect(hashes["jobs1.bin"] == hashes["jobs2.bin"],
                      "gen --jobs 1 and --jobs 2 wrote different bytes")
        stats = json.loads((d / "stats.json").read_text())
        checks.expect(stats["n"] == BULK_RECORDS, f"stats n {stats['n']} != {BULK_RECORDS}")
        checks.expect(stats["mag_max"] < 1.0, f"stats mag_max {stats['mag_max']} is not below 1")
    return hashes, quality


def _check_design(d: Path, checks: Checks, exact: bool) -> float:
    """The winner's oracle response must give design's fitness (exactly for the
    oracle evaluator; the surrogate's stored prediction must give it instead)
    and must be the response validate reported.  Returns the winner's target
    error under the oracle."""
    from metapix import inverse, oracle, pattern

    doc = json.loads((d / "design.json").read_text())
    target = inverse.TargetSpec.from_json(json.loads((d / "target.json").read_text()))
    grid = pattern.expand_genome(pattern.unpack_genome(doc["genome"]))
    s22 = oracle.response_batch(grid[None, :, :])[0]
    if exact:
        fit = float(inverse.fitness_of(s22, target)[0])
        checks.expect(fit == doc["fitness"],
                      f"oracle fitness {fit!r} of the winner != design fitness {doc['fitness']!r}")
    else:
        predicted = np.array(doc["predicted_re"]) + 1j * np.array(doc["predicted_im"])
        fit = float(inverse.fitness_of(predicted, target)[0])
        checks.expect(math.isclose(fit, doc["fitness"], rel_tol=1e-9),
                      f"surrogate fitness {fit!r} of the winner != design fitness {doc['fitness']!r}")
    with open(d / "validation.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    same = len(rows) == len(s22) and all(
        r["oracle_re"] == f"{v.real:.6f}" and r["oracle_im"] == f"{v.imag:.6f}"
        for r, v in zip(rows, s22))
    checks.expect(same, "validation.csv oracle response differs from the winner's")
    return float(inverse.target_error(s22, target)[0])


def _check_array(d: Path, checks: Checks) -> None:
    with open(d / "pattern_phi0.csv", newline="") as fh:
        rows = [(float(r["theta_deg"]), float(r["power_db"])) for r in csv.DictReader(fh)]
    peak = max(rows, key=lambda r: r[1])[0]
    checks.expect(abs(peak - STEER_THETA) <= CUT_STEP,
                  f"phi=0 cut peaks at {peak} deg, steered to {STEER_THETA}")


def _check_train(d: Path, checks: Checks) -> float:
    with open(d / "surrogate.ckpt", "rb") as fh:
        meta = json.loads(fh.readline())["meta"]
    checks.expect(meta["epochs_run"] == EPOCHS,
                  f"train ran {meta['epochs_run']} epochs, budget {EPOCHS}")
    return float(meta["best_val_mae"])
