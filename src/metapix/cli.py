"""Command line front end for the design pipeline.

Stages are exposed as subcommands sharing one JSON config file (flags beat
config fields, config fields beat built-in defaults).  Every file artifact
gets a JSON manifest sidecar recording the tool version, the exact
parameters, and SHA-256 hashes of all inputs and of the artifact itself, so
a run can be reproduced from the manifest alone.  Artifacts are never
silently replaced; pass --force to overwrite.  All frequencies are plain Hz
(scientific notation is fine).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, arraysim, dataset, inverse, oracle, pattern, surrogate
from .config import RunConfig, config_to_dict, load_config
from .inverse import NoSolutionError, TargetSpec
from .netcalc import NoContrastError, SingularityError
from .pattern import expand_genome, pack_genome, render_pbm, unpack_genome


class CliError(Exception):
    """User-facing failure: printed as one line, exit status 1."""


# ---------------------------------------------------------------------------
# flag parsing helpers
# ---------------------------------------------------------------------------


def _parse_freq(text: str) -> float:
    try:
        f = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad frequency {text!r}: expected Hz")
    if not math.isfinite(f):
        raise argparse.ArgumentTypeError(f"frequency must be finite, got {text}")
    if f <= 0:
        raise argparse.ArgumentTypeError(f"frequency must be positive, got {text}")
    return f


def _parse_band(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"bad band {text!r}: expected f_lo:f_hi in Hz")
    lo, hi = (_parse_freq(p) for p in parts)
    if hi < lo:
        raise argparse.ArgumentTypeError(f"band {text!r} is reversed")
    return lo, hi


def _parse_anchor(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"bad anchor {text!r}: expected f:re:im (Hz and target reflection)"
        )
    try:
        f, re, im = float(parts[0]), float(parts[1]), float(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad anchor {text!r}: non-numeric field")
    if not all(map(math.isfinite, (f, re, im))):
        raise argparse.ArgumentTypeError(f"bad anchor {text!r}: non-finite field")
    return f, re, im


def _parse_steer(text: str) -> arraysim.SteerTarget:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"bad steer {text!r}: expected theta:phi degrees")
    try:
        return arraysim.SteerTarget(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


# ---------------------------------------------------------------------------
# artifact plumbing
# ---------------------------------------------------------------------------


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _require(path: Path, what: str) -> Path:
    if not path.exists():
        raise CliError(f"missing {what}: {path}")
    return path


def _check_fresh(path: Path, force: bool) -> None:
    """Refuse to replace an artifact or its manifest sidecar unless forced."""
    for p in (path, path.with_name(path.name + ".manifest.json")):
        if p.exists() and not force:
            raise CliError(f"refusing to overwrite existing artifact: {p} (use --force)")


def _write_text(path: Path, text: str, force: bool) -> None:
    _check_fresh(path, force)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_manifest(artifact: Path, command: str, params: dict,
                    inputs: dict[str, Path]) -> None:
    """Write the sidecar; callers check it with _check_fresh before any write."""
    manifest = {
        "artifact": artifact.name,
        "sha256": _sha256(artifact),
        "command": command,
        "params": params,
        "inputs": {name: _sha256(p) for name, p in inputs.items()},
        "version": __version__,
    }
    side = artifact.with_name(artifact.name + ".manifest.json")
    tmp = side.with_name(side.name + f".tmp.{os.getpid()}")
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, side)


def _outdir(args, cfg: RunConfig) -> Path:
    out = Path(args.outdir if args.outdir else cfg.outdir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_target(args, cfg: RunConfig) -> int:
    if args.freq is not None:
        lo = hi = args.freq
    else:
        lo, hi = args.band
    try:
        spec = inverse.build_target(lo, hi, switch=cfg.switch, anchors=tuple(args.anchor))
    except (NoSolutionError, SingularityError, NoContrastError, ValueError) as exc:
        raise CliError(str(exc))
    for k in range(len(spec.freqs)):
        if spec.weight[k] == 0.0:
            continue
        kind = "band" if lo <= spec.freqs[k] <= hi else "anchor"
        print(f"{spec.freqs[k]:.4e} Hz  re {spec.re[k]:+.6f}  im {spec.im[k]:+.6f}  [{kind}]")
    if args.out:
        out = Path(args.out)
        _write_text(out, json.dumps(spec.to_json(), indent=2) + "\n", args.force)
        _write_manifest(out, "target",
                        {"band": [lo, hi], "anchors": [list(a) for a in args.anchor]},
                        {})
        print(f"wrote {out}")
    return 0


def cmd_gen(args, cfg: RunConfig) -> int:
    if args.jobs < 1:
        raise CliError(f"--jobs must be at least 1, got {args.jobs}")
    n = args.n if args.n is not None else cfg.dataset_n
    if n < 1:
        raise CliError(f"--n must be at least 1, got {n}")
    out = Path(args.out) if args.out else _outdir(args, cfg) / "dataset.bin"
    _check_fresh(out, args.force)
    seed = args.seed if args.seed is not None else cfg.dataset_seed
    records = dataset.generate(n, seed, cfg.constants, cfg.geometry, jobs=args.jobs)
    out.parent.mkdir(parents=True, exist_ok=True)
    dataset.save(out, records, seed, cfg.constants, cfg.geometry)
    _write_manifest(out, "gen",
                    {"n": n, "seed": seed,
                     "fingerprint": oracle.fingerprint(cfg.constants, cfg.geometry),
                     "dataset_version": dataset.DATASET_VERSION},
                    {})
    print(f"wrote {out} ({n} records, seed {seed})")
    return 0


def cmd_stats(args, cfg: RunConfig) -> int:
    path = _require(Path(args.data), "dataset artifact")
    header, records = dataset.load(path, cfg.constants, cfg.geometry,
                                   check_fingerprint=not args.no_fingerprint_check)
    stats = dataset.summarize(records)
    text = json.dumps(stats, indent=2, sort_keys=True) + "\n"
    if args.out:
        out = Path(args.out)
        _write_text(out, text, args.force)
        _write_manifest(out, "stats", {"n": header.n, "seed": header.seed},
                        {"dataset": path})
        print(f"wrote {out}")
    else:
        print(text, end="")
    return 0


def cmd_train(args, cfg: RunConfig) -> int:
    ts = cfg.train
    if args.epochs is not None:
        ts = dataclasses.replace(ts, max_epochs=args.epochs)
    data_path = Path(args.data) if args.data else _outdir(args, cfg) / "dataset.bin"
    _require(data_path, "dataset artifact (run `gen` first)")
    ckpt = Path(args.out) if args.out else _outdir(args, cfg) / "surrogate.ckpt"
    hist_path = Path(args.history) if args.history else _outdir(args, cfg) / "train_history.csv"
    _check_fresh(ckpt, args.force)
    _check_fresh(hist_path, args.force)

    _, records = dataset.load(data_path, cfg.constants, cfg.geometry)
    train_recs, val_recs = dataset.split(records)
    xt, yt = surrogate.records_to_xy(train_recs)
    xv, yv = surrogate.records_to_xy(val_recs)

    mlp = surrogate.init_mlp(ts.seed, ts.hidden)
    log = (lambda msg: print(msg)) if args.verbose else None
    result = surrogate.train(mlp, xt, yt, xv, yv, ts, log=log)
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    surrogate.save_checkpoint(ckpt, mlp, meta={
        "best_val_mae": result.best_val_mae, "best_epoch": result.best_epoch,
        "epochs_run": result.epochs_run, "stop_reason": result.stop_reason,
        "seed": ts.seed,
    })
    surrogate.save_history(hist_path, result.history)
    params = dataclasses.asdict(ts)
    _write_manifest(ckpt, "train", params, {"dataset": data_path})
    _write_manifest(hist_path, "train", params, {"dataset": data_path})
    print(f"best val MAE {result.best_val_mae:.6f} at epoch {result.best_epoch} "
          f"({result.epochs_run} epochs, {result.stop_reason})")
    print(f"wrote {ckpt}")
    return 0


def _load_target(path: Path) -> TargetSpec:
    _require(path, "target artifact (run `target --out` first)")
    try:
        doc = json.loads(path.read_text())
        if not isinstance(doc, dict):
            raise ValueError("not a JSON object")
        spec = TargetSpec.from_json(doc)
        if len(spec.freqs) != oracle.N_FREQ:
            raise ValueError(f"{len(spec.freqs)} rows, the grid has {oracle.N_FREQ}")
        if not np.all(np.abs(spec.freqs - oracle.freq_grid()) <= 1.0):
            raise ValueError(f"freqs are off the {oracle.N_FREQ}-point evaluation grid")
        return spec
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"bad target file {path}: {exc}")


def cmd_design(args, cfg: RunConfig) -> int:
    target = _load_target(Path(args.target))
    out = Path(args.out) if args.out else _outdir(args, cfg) / "design.json"
    _check_fresh(out, args.force)

    inputs: dict[str, Path] = {"target": Path(args.target)}
    if args.evaluator == "oracle":
        evaluator = inverse.oracle_evaluator(target, cfg.constants, cfg.geometry)
    else:
        ckpt = Path(args.ckpt) if args.ckpt else _outdir(args, cfg) / "surrogate.ckpt"
        _require(ckpt, "surrogate checkpoint (run `train` or pass --evaluator oracle)")
        mlp, _ = surrogate.load_checkpoint(ckpt)
        if (mlp.sizes[0], mlp.sizes[-1]) != (pattern.GENOME_BITS, dataset.RESP_WIDTH):
            raise CliError(f"checkpoint {ckpt} maps {mlp.sizes[0]} to {mlp.sizes[-1]} values; "
                           f"the surrogate needs {pattern.GENOME_BITS} to {dataset.RESP_WIDTH}")
        evaluator = inverse.surrogate_evaluator(mlp, target)
        inputs["checkpoint"] = ckpt

    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.population is not None:
        overrides["population"] = args.population
    if args.generations is not None:
        overrides["generations"] = args.generations
    ga = dataclasses.replace(cfg.ga, **overrides) if overrides else cfg.ga
    result = inverse.ga_run(ga, evaluator)

    if args.evaluator == "oracle":
        predicted = oracle.response_batch(expand_genome(result.best_bits[None, :]),
                                          cfg.constants, cfg.geometry)[0]
    else:
        predicted = surrogate.predict_s22(mlp, np.array([result.best_word], dtype=np.uint64))[0]
    doc = {
        "genome": pack_genome(result.best_word),
        "fitness": result.best_fitness,
        "evaluator": args.evaluator,
        "ga": dataclasses.asdict(ga),
        "predicted_re": [float(v) for v in predicted.real],
        "predicted_im": [float(v) for v in predicted.imag],
        "history_best": [float(v) for v in result.history_best],
        "history_median": [float(v) for v in result.history_median],
    }
    _write_text(out, json.dumps(doc, indent=2) + "\n", args.force)
    _write_manifest(out, "design", doc["ga"] | {"evaluator": args.evaluator}, inputs)
    print(f"best genome {doc['genome']}  fitness {result.best_fitness:.4f}")
    print(f"wrote {out}")
    return 0


def _load_design(path: Path) -> tuple[dict, np.ndarray]:
    """Design document and its (8, 8) genome; CliError on bad JSON or genome."""
    _require(path, "design artifact (run `design` first)")
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:
        raise CliError(f"bad design file {path}: {exc}")
    genome = doc.get("genome") if isinstance(doc, dict) else None
    if not isinstance(genome, str):
        raise CliError(f"bad design file {path}: no genome hex string")
    try:
        return doc, unpack_genome(genome)
    except ValueError as exc:
        raise CliError(f"bad design file {path}: {exc}")


def _design_floats(doc: dict, name: str, n: int | None = None) -> np.ndarray:
    """Design field `name` as a 1-D float array (of length n if given)."""
    if name not in doc:
        raise ValueError(f"no {name}")
    try:
        values = np.array(doc[name], dtype=float)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{name}: {exc}")
    if values.ndim != 1:
        raise ValueError(f"{name} must be a list of numbers")
    if n is not None and len(values) != n:
        raise ValueError(f"{name} needs {n} values, got {len(values)}")
    if not np.isfinite(values).all():
        raise ValueError(f"{name} holds a non-finite value")
    return values


def cmd_validate(args, cfg: RunConfig) -> int:
    design_path = Path(args.design)
    doc, genome = _load_design(design_path)
    try:
        predicted = (_design_floats(doc, "predicted_re", oracle.N_FREQ)
                     + 1j * _design_floats(doc, "predicted_im", oracle.N_FREQ))
        hist_b = _design_floats(doc, "history_best")
        hist_m = _design_floats(doc, "history_median")
    except ValueError as exc:
        raise CliError(f"bad design file {design_path}: {exc}")
    target = _load_target(Path(args.target))
    out_csv = Path(args.out) if args.out else _outdir(args, cfg) / "validation.csv"
    pbm = Path(args.pbm) if args.pbm else _outdir(args, cfg) / "genome.pbm"
    for path in (out_csv, pbm):
        _check_fresh(path, args.force)

    report = inverse.validate_design(
        genome.reshape(-1), cfg.switch, cfg.constants, cfg.geometry,
        predicted=predicted, history_best=hist_b, history_median=hist_m,
    )
    _write_text(out_csv, inverse.report_csv(report, target), args.force)
    _write_manifest(out_csv, "validate", {"genome": doc["genome"]},
                    {"design": design_path, "target": Path(args.target)})
    _write_text(pbm, render_pbm(expand_genome(genome)), args.force)
    _write_manifest(pbm, "validate", {"genome": doc["genome"]}, {"design": design_path})
    print(inverse.report_summary(report))
    print(f"wrote {out_csv}")
    return 0


def cmd_array(args, cfg: RunConfig) -> int:
    if args.sweep and not args.design:
        raise CliError("--sweep needs --design for the element reflection spectra")
    if not math.isfinite(args.ref_phase):
        raise CliError(f"--ref-phase must be finite, got {args.ref_phase}")
    try:
        cut = arraysim.default_cut(args.step)
    except ValueError as exc:
        raise CliError(f"--step: {exc}")
    acfg = cfg.array
    steer = args.steer
    f = args.freq if args.freq is not None else cfg.geometry.f0
    outdir = _outdir(args, cfg)
    names = ["pattern_phi0.csv", "pattern_phi90.csv", "codes.pbm"]
    if args.sweep:
        names.append("sweep.csv")
    if args.hemisphere:
        names.append("hemisphere.pgm")
    for name in names:
        _check_fresh(outdir / name, args.force)

    if args.design:
        design_path = Path(args.design)
        _, genome = _load_design(design_path)
        try:
            k = inverse._grid_index(f)
        except ValueError as exc:
            raise CliError(f"--freq with --design: {exc}")
        report = inverse.validate_design(genome, cfg.switch, cfg.constants, cfg.geometry)
        gamma0, gamma1 = complex(report.gamma1_state0[k]), complex(report.gamma1_state1[k])
        inputs = {"design": design_path}
    else:
        gamma0, gamma1 = 1.0 + 0.0j, -1.0 + 0.0j
        inputs = {}

    codes = arraysim.quantize_1bit(arraysim.ideal_phase(acfg, steer, f, args.ref_phase))
    params = {"steer": [steer.theta_deg, steer.phi_deg], "freq": f,
              "ref_phase": args.ref_phase, "step": args.step,
              "gamma0": [gamma0.real, gamma0.imag], "gamma1": [gamma1.real, gamma1.imag]}

    for phi in (0.0, 90.0):
        p = arraysim.far_field(acfg, codes, gamma0, gamma1, f, cut, phi)
        lines = ["theta_deg,power_db"]
        lines += [f"{cut[i]:.2f},{p[i]:.6f}" for i in range(len(cut))]
        path = outdir / f"pattern_phi{int(phi)}.csv"
        _write_text(path, "\n".join(lines) + "\n", args.force)
        _write_manifest(path, "array", params | {"cut_phi": phi}, inputs)
        peak = cut[int(np.argmax(p))]
        print(f"phi={int(phi)} cut: peak at {peak:.2f} deg -> {path}")

    codes_path = outdir / "codes.pbm"
    _write_text(codes_path, render_pbm(codes), args.force)
    _write_manifest(codes_path, "array", params, inputs)

    if args.sweep:
        sweep = arraysim.spectral_power_sweep(acfg, report.freqs, report.gamma1_state0,
                                              report.gamma1_state1, steer,
                                              f0=cfg.geometry.f0, ref_phase=args.ref_phase)
        lines = ["freq_hz,power_db"]
        lines += [f"{sweep.freqs[i]:.6e},{sweep.power_db[i]:.6f}" for i in range(len(sweep.freqs))]
        path = outdir / "sweep.csv"
        _write_text(path, "\n".join(lines) + "\n", args.force)
        _write_manifest(path, "array", params, inputs)
        if sweep.band is None:
            print(f"no 3-dB band around {cfg.geometry.f0:.3e} Hz -> {path}")
        else:
            print(f"3-dB band {sweep.band[0]:.3e}..{sweep.band[1]:.3e} Hz "
                  f"({sweep.bandwidth_pct:.1f}%) -> {path}")

    if args.hemisphere:
        thetas = np.arange(0.0, 90.0 + 1e-9, 1.0)
        phis = np.arange(0.0, 360.0, 1.0)
        gam = arraysim.gammas_from_codes(codes, gamma0, gamma1)
        rows = np.empty((len(phis), len(thetas)))
        for i, phi in enumerate(phis):
            e = arraysim.far_field_gammas(acfg, gam, f, thetas, float(phi))
            rows[i] = np.abs(e) ** 2
        peak = rows.max()
        if peak > 0.0:
            rows /= peak
        db = 10.0 * np.log10(np.maximum(rows, 1e-10))
        path = outdir / "hemisphere.pgm"
        _write_text(path, arraysim.render_pgm(db), args.force)
        _write_manifest(path, "array", params, inputs)
        print(f"wrote {path}")
    return 0


def cmd_config(args, cfg: RunConfig) -> int:
    print(json.dumps(config_to_dict(cfg), indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file (flags override its fields)")
    shared.add_argument("--outdir", help="output directory (default from config)")
    shared.add_argument("--force", action="store_true",
                        help="allow overwriting existing artifacts")

    parser = argparse.ArgumentParser(
        prog="metapix",
        description="1-bit pixelated meta-atom design pipeline",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("target", parents=[shared],
                       help="solve the required element reflection over a band")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--band", type=_parse_band, help="f_lo:f_hi in Hz")
    g.add_argument("--freq", type=_parse_freq, help="single frequency in Hz")
    p.add_argument("--anchor", type=_parse_anchor, action="append", default=[],
                   metavar="F:RE:IM", help="out-of-band anchor row (repeatable)")
    p.add_argument("--out", help="write the target spec JSON here")
    p.set_defaults(func=cmd_target)

    p = sub.add_parser("gen", parents=[shared], help="generate the oracle dataset")
    p.add_argument("--n", type=int, help="number of records")
    p.add_argument("--seed", type=int, help="dataset seed")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--out", help="dataset path (default <outdir>/dataset.bin)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("stats", parents=[shared], help="summarize a dataset")
    p.add_argument("--data", required=True, help="dataset path")
    p.add_argument("--no-fingerprint-check", action="store_true",
                   help="accept a dataset built with different constants")
    p.add_argument("--out", help="write the summary JSON here instead of stdout")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", parents=[shared], help="train the surrogate")
    p.add_argument("--data", help="dataset path (default <outdir>/dataset.bin)")
    p.add_argument("--epochs", type=int, help="override the epoch budget")
    p.add_argument("--out", help="checkpoint path (default <outdir>/surrogate.ckpt)")
    p.add_argument("--history", help="history CSV path (default <outdir>/train_history.csv)")
    p.add_argument("--verbose", action="store_true", help="log per-epoch progress")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("design", parents=[shared], help="run the genetic search")
    p.add_argument("--target", required=True, help="target spec JSON from `target --out`")
    p.add_argument("--evaluator", choices=("surrogate", "oracle"), default="surrogate")
    p.add_argument("--ckpt", help="surrogate checkpoint (default <outdir>/surrogate.ckpt)")
    p.add_argument("--seed", type=int, help="override the GA seed")
    p.add_argument("--population", type=int, help="override the population size")
    p.add_argument("--generations", type=int, help="override the generation count")
    p.add_argument("--out", help="design JSON path (default <outdir>/design.json)")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("validate", parents=[shared],
                       help="check a design against the circuit oracle")
    p.add_argument("--design", required=True, help="design JSON from `design`")
    p.add_argument("--target", required=True, help="target spec JSON")
    p.add_argument("--out", help="report CSV path (default <outdir>/validation.csv)")
    p.add_argument("--pbm", help="genome image path (default <outdir>/genome.pbm)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("array", parents=[shared], help="reflectarray pattern and sweep")
    p.add_argument("--steer", type=_parse_steer, default=arraysim.SteerTarget(0.0, 0.0),
                   metavar="THETA:PHI", help="beam direction in degrees (default 0:0)")
    p.add_argument("--freq", type=_parse_freq, help="pattern frequency in Hz (default 5.8e9)")
    p.add_argument("--ref-phase", type=float, default=0.0, help="reference phase in radians")
    p.add_argument("--step", type=float, default=0.25,
                   help="cut resolution in degrees, 0.001 to 90")
    p.add_argument("--design", help="take element states from this design JSON")
    p.add_argument("--sweep", action="store_true",
                   help="also write the frequency sweep CSV (needs --design)")
    p.add_argument("--hemisphere", action="store_true",
                   help="also write a 1-degree hemisphere PGM heatmap")
    p.set_defaults(func=cmd_array)

    p = sub.add_parser("config", parents=[shared], help="print the effective config")
    p.set_defaults(func=cmd_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        return args.func(args, cfg)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
