"""Command line front end for the design pipeline.

Stages are exposed as subcommands sharing one JSON config file (flags beat
config fields, config fields beat built-in defaults).  Every file artifact
gets a JSON manifest sidecar recording the tool version, the exact
parameters, and SHA-256 hashes of all inputs and of the artifact itself, so
a run can be reproduced from the manifest alone.  A command checks all its
outputs before any work and refuses existing ones unless --force is given.
It publishes all its outputs or none: on error nothing is left behind.
Config, target and design files are read under the one type rule in
`jsontypes`, so a wrong value ends in one error line naming file and field.
All frequencies are plain Hz (scientific notation is fine).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, arraysim, dataset, inverse, oracle, pattern, surrogate
from .config import RunConfig, config_to_dict, load_config
from .inverse import NoSolutionError, TargetSpec
from .jsontypes import loads, read_object
from .netcalc import NoContrastError, SingularityError
from .pattern import expand_genome, pack_genome, render_pbm, unpack_genome


class CliError(Exception):
    """User-facing failure: printed as one line, exit status 1."""


# ---------------------------------------------------------------------------
# flag parsing helpers
# ---------------------------------------------------------------------------


def _numbers(text: str, what: str, form: str) -> tuple[float, ...]:
    """The finite numbers of a flag value with one colon-separated field per
    field of `form`, as in "f_lo:f_hi in Hz"."""
    parts = text.split(":")
    if len(parts) != form.count(":") + 1:
        raise argparse.ArgumentTypeError(f"bad {what} {text!r}: expected {form}")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad {what} {text!r}: non-numeric field")
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"bad {what} {text!r}: non-finite field")
    return values


def _parse_freq(text: str) -> float:
    (f,) = _numbers(text, "frequency", "Hz")
    if f <= 0:
        raise argparse.ArgumentTypeError(f"frequency must be positive, got {text}")
    return f


def _parse_band(text: str) -> tuple[float, float]:
    lo, hi = _numbers(text, "band", "f_lo:f_hi in Hz")
    if not 0 < lo <= hi:
        raise argparse.ArgumentTypeError(f"bad band {text!r}: expected 0 < f_lo <= f_hi")
    return lo, hi


def _parse_anchor(text: str) -> tuple[float, float, float]:
    return _numbers(text, "anchor", "f:re:im (Hz and target reflection)")


def _parse_steer(text: str) -> arraysim.SteerTarget:
    try:
        return arraysim.SteerTarget(*_numbers(text, "steer", "theta:phi degrees"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


# ---------------------------------------------------------------------------
# artifact plumbing
# ---------------------------------------------------------------------------


def _sha256(path: Path) -> str:
    # 64 KiB reads stay under glibc's 128 KiB mmap threshold and hash as fast
    # as 1 MiB ones; on the input hash thread, 1 MiB reads grew the heap of
    # the thread's own malloc arena by about 2 MB
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _require(path: Path, what: str) -> Path:
    if not path.exists():
        raise CliError(f"missing {what}: {path}")
    return path


def _tmp(path: Path) -> Path:
    return path.with_name(f"{path.name}.tmp.{os.getpid()}")


@contextlib.contextmanager
def _outputs(command: str, force: bool, paths: list[Path],
             inputs: dict[str, Path] | None = None):
    """Publish a command's declared output files together or not at all.

    Entering refuses an existing artifact or sidecar unless `force`, and any
    output that a rename could not put in place, then starts hashing each
    input once on a worker thread, beside the block's work.  The block writes
    each artifact to the `<name>.tmp.<pid>` path that the yielded `stage`
    returns.  A block that hashes an artifact as it writes it puts the digest
    in `stage.sha256[path]`, and the manifest takes it from there instead of
    reading the file back.  A clean exit takes the input hashes from the
    thread (raising its error, if any) before the first manifest is written,
    then writes the manifests and renames every file into place; an exception
    removes the staged files and the directories made for them.  Either exit
    joins the thread.
    """
    if len({p.resolve() for p in paths}) < len(paths):
        raise CliError(f"two outputs of {command} name the same file")
    for path in paths:
        for p in (path, path.with_name(path.name + ".manifest.json")):
            if p.exists() and not force:
                raise CliError(f"refusing to overwrite existing artifact: {p} (use --force)")
            if p.is_dir():
                raise CliError(f"output is a directory: {p}")
        base = next((d for d in path.parents if d.exists()), path.parent)
        if not base.is_dir():
            raise CliError(f"not a directory: {base}")
    inputs = inputs if paths and inputs else {}
    manifests: dict[Path, tuple[dict, tuple[str, ...]]] = {}
    staged: list[Path] = []  # final paths whose tmp files are on disk
    made: list[Path] = []

    def stage(path: Path, params: dict, names: tuple[str, ...] = ()) -> Path:
        """Tmp path for `path`; its manifest hashes the inputs in `names` (default all)."""
        made.extend(d for d in reversed(path.parents) if not d.exists())
        path.parent.mkdir(parents=True, exist_ok=True)
        staged.append(path)
        manifests[path] = ({"artifact": path.name, "command": command, "params": params,
                            "version": __version__}, names or tuple(inputs))
        return _tmp(path)

    stage.sha256 = {}
    hasher = ThreadPoolExecutor(max_workers=1)
    hashing = hasher.submit(lambda: {n: _sha256(p) for n, p in inputs.items()})
    try:
        yield stage
        hashes = hashing.result()
        for path, (manifest, names) in manifests.items():
            manifest["inputs"] = {n: hashes[n] for n in names}
            manifest["sha256"] = stage.sha256.get(path) or _sha256(_tmp(path))
            side = path.with_name(path.name + ".manifest.json")
            staged.append(side)
            _tmp(side).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        for path in list(staged):
            os.replace(_tmp(path), path)
            staged.remove(path)
        made.clear()
    finally:
        hasher.shutdown()
        for path in staged:  # left only on failure
            _tmp(path).unlink(missing_ok=True)
        for d in reversed(made):
            with contextlib.suppress(OSError):
                d.rmdir()


def _out_path(flag: str | None, args, cfg: RunConfig, name: str) -> Path:
    """The path a flag names, else `name` in --outdir (default from config)."""
    return Path(flag) if flag else Path(args.outdir or cfg.outdir) / name


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_target(args, cfg: RunConfig) -> int:
    lo, hi = args.band or (args.freq, args.freq)
    out = Path(args.out) if args.out else None
    with _outputs("target", args.force, [out] if out else []) as stage:
        try:
            spec = inverse.build_target(lo, hi, switch=cfg.switch, anchors=tuple(args.anchor))
        except (NoSolutionError, SingularityError, NoContrastError, ValueError) as exc:
            raise CliError(str(exc))
        for k, f in enumerate(oracle.freq_grid()):
            if spec.weight[k] == 0.0:
                continue
            kind = "band" if lo <= f <= hi else "anchor"
            print(f"{f:.4e} Hz  re {spec.re[k]:+.6f}  im {spec.im[k]:+.6f}  [{kind}]")
        if out:
            stage(out, {"band": [lo, hi], "anchors": [list(a) for a in args.anchor]}
                  ).write_text(json.dumps(spec.to_json(), indent=2) + "\n")
    if out:
        print(f"wrote {out}")
    return 0


def cmd_gen(args, cfg: RunConfig) -> int:
    if args.jobs < 1:
        raise CliError(f"--jobs must be at least 1, got {args.jobs}")
    n = args.n if args.n is not None else cfg.dataset_n
    if n < 1:
        raise CliError(f"--n must be at least 1, got {n}")
    out = _out_path(args.out, args, cfg, "dataset.bin")
    seed = args.seed if args.seed is not None else cfg.dataset_seed
    with _outputs("gen", args.force, [out]) as stage:
        params = {"n": n, "seed": seed,
                  "fingerprint": oracle.fingerprint(cfg.constants, cfg.geometry),
                  "dataset_version": dataset.DATASET_VERSION}
        stage.sha256[out] = dataset.save(stage(out, params), n, seed, cfg.constants,
                                         cfg.geometry, jobs=args.jobs)
    print(f"wrote {out} ({n} records, seed {seed})")
    return 0


def cmd_stats(args, cfg: RunConfig) -> int:
    path = _require(Path(args.data), "dataset artifact")
    out = Path(args.out) if args.out else None
    with _outputs("stats", args.force, [out] if out else [], {"dataset": path}) as stage:
        with dataset.FileBlocks(path, cfg.constants, cfg.geometry,
                                check_fingerprint=not args.no_fingerprint_check) as blocks:
            text = json.dumps(dataset.summarize(blocks), indent=2, sort_keys=True) + "\n"
        if out:
            stage(out, {"n": blocks.header.n, "seed": blocks.header.seed}).write_text(text)
    if out:
        print(f"wrote {out}")
    else:
        print(text, end="")
    return 0


def cmd_train(args, cfg: RunConfig) -> int:
    ts = cfg.train
    if args.epochs is not None:
        ts = dataclasses.replace(ts, max_epochs=args.epochs)
    data_path = _require(_out_path(args.data, args, cfg, "dataset.bin"),
                         "dataset artifact (run `gen` first)")
    ckpt = _out_path(args.out, args, cfg, "surrogate.ckpt")
    hist_path = _out_path(args.history, args, cfg, "train_history.csv")
    params = dataclasses.asdict(ts)
    with _outputs("train", args.force, [ckpt, hist_path], {"dataset": data_path}) as stage:
        # inputs and targets are filled block by block: no record array is
        # ever whole
        with dataset.FileBlocks(data_path, cfg.constants, cfg.geometry) as blocks:
            x, y = surrogate.records_to_xy(blocks)
        (xt, xv), (yt, yv) = dataset.split(x), dataset.split(y)
        mlp = surrogate.init_mlp(ts.seed, ts.hidden)
        log = (lambda msg: print(msg)) if args.verbose else None
        result = surrogate.train(mlp, xt, yt, xv, yv, ts, log=log)
        surrogate.save_checkpoint(stage(ckpt, params), mlp, meta={
            "best_val_mae": result.best_val_mae, "best_epoch": result.best_epoch,
            "epochs_run": result.epochs_run, "stop_reason": result.stop_reason,
            "seed": ts.seed,
        })
        surrogate.save_history(stage(hist_path, params), result.history)
    print(f"best val MAE {result.best_val_mae:.6f} at epoch {result.best_epoch} "
          f"({result.epochs_run} epochs, {result.stop_reason})")
    print(f"wrote {ckpt}")
    return 0


def _load_target(path: Path) -> TargetSpec:
    _require(path, "target artifact (run `target --out` first)")
    try:
        return TargetSpec.from_json(loads(path.read_text()))
    except ValueError as exc:
        raise CliError(f"bad target file {path}: {exc}")


def cmd_design(args, cfg: RunConfig) -> int:
    target_path = Path(args.target)
    target = _load_target(target_path)
    out = _out_path(args.out, args, cfg, "design.json")
    inputs = {"target": target_path}
    if args.evaluator == "oracle":
        evaluator = inverse.oracle_evaluator(target, cfg.constants, cfg.geometry)
    else:
        ckpt = _require(_out_path(args.ckpt, args, cfg, "surrogate.ckpt"),
                        "surrogate checkpoint (run `train` or pass --evaluator oracle)")
        mlp, _ = surrogate.load_checkpoint(ckpt)
        if (mlp.sizes[0], mlp.sizes[-1]) != (pattern.GENOME_BITS, dataset.RESP_WIDTH):
            raise CliError(f"checkpoint {ckpt} maps {mlp.sizes[0]} to {mlp.sizes[-1]} values; "
                           f"the surrogate needs {pattern.GENOME_BITS} to {dataset.RESP_WIDTH}")
        evaluator = inverse.surrogate_evaluator(mlp, target)
        inputs["checkpoint"] = ckpt

    overrides = {"seed": args.seed, "population": args.population,
                 "generations": args.generations}
    ga = dataclasses.replace(cfg.ga, **{k: v for k, v in overrides.items() if v is not None})
    with _outputs("design", args.force, [out], inputs) as stage:
        try:
            result = inverse.ga_run(ga, evaluator)
            if args.evaluator == "oracle":
                predicted = oracle.response_batch(expand_genome(result.best_bits[None, :]),
                                                  cfg.constants, cfg.geometry)[0]
            else:
                predicted = surrogate.predict_s22(mlp, np.array([result.best_word],
                                                                dtype=np.uint64))[0]
        except ValueError as exc:
            if args.evaluator == "oracle":
                raise
            raise CliError(f"checkpoint {ckpt}: {exc}") from exc
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
        stage(out, doc["ga"] | {"evaluator": args.evaluator}).write_text(
            json.dumps(doc, indent=2) + "\n")
    print(f"best genome {doc['genome']}  fitness {result.best_fitness:.4f}")
    print(f"wrote {out}")
    return 0


def _load_design(path: Path, hints: dict) -> tuple[dict, np.ndarray]:
    """The fields in `hints`, type-checked, and the genome; other keys are ignored."""
    _require(path, "design artifact (run `design` first)")
    try:
        doc = loads(path.read_text())
        doc = {k: v for k, v in doc.items() if k in hints} if type(doc) is dict else doc
        fields = read_object(hints, doc, "")
        return fields, unpack_genome(fields["genome"])
    except ValueError as exc:
        raise CliError(f"bad design file {path}: {exc}")


def cmd_validate(args, cfg: RunConfig) -> int:
    design_path = Path(args.design)
    doc, genome = _load_design(design_path, {"genome": str} | dict.fromkeys(
        ("predicted_re", "predicted_im", "history_best", "history_median"), tuple[float, ...]))
    for name in ("predicted_re", "predicted_im"):
        if len(doc[name]) != oracle.N_FREQ:
            raise CliError(f"bad design file {design_path}: {name} needs {oracle.N_FREQ} values")
    predicted = np.array(doc["predicted_re"]) + 1j * np.array(doc["predicted_im"])
    target_path = Path(args.target)
    target = _load_target(target_path)
    out_csv = _out_path(args.out, args, cfg, "validation.csv")
    pbm = _out_path(args.pbm, args, cfg, "genome.pbm")
    params = {"genome": doc["genome"]}
    with _outputs("validate", args.force, [out_csv, pbm],
                 {"design": design_path, "target": target_path}) as stage:
        report = inverse.validate_design(genome.reshape(-1), cfg.switch, cfg.constants,
                                         cfg.geometry)
        stage(out_csv, params).write_text(inverse.report_csv(report, target, predicted))
        stage(pbm, params, ("design",)).write_text(render_pbm(expand_genome(genome)))
    print(inverse.report_summary(report, doc["history_best"], target, predicted))
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
    f = args.freq if args.freq is not None else acfg.f0
    names = ["pattern_phi0.csv", "pattern_phi90.csv", "codes.pbm"]
    if args.sweep:
        names.append("sweep.csv")
    if args.hemisphere:
        names.append("hemisphere.pgm")
    outdir = Path(args.outdir or cfg.outdir)
    inputs = {"design": Path(args.design)} if args.design else {}
    if args.design:
        _, genome = _load_design(inputs["design"], {"genome": str})
        try:
            k = oracle.grid_row(f)
        except ValueError as exc:
            raise CliError(f"--freq with --design: {exc}")
        if abs(f - oracle.freq_grid()[k]) > oracle.GRID_TOLERANCE_HZ:
            raise CliError(f"--freq with --design: {f} Hz is not a grid frequency "
                           f"(nearest {oracle.freq_grid()[k]} Hz)")

    with _outputs("array", args.force, [outdir / name for name in names], inputs) as stage:
        if args.design:
            report = inverse.validate_design(genome, cfg.switch, cfg.constants, cfg.geometry)
            gamma0, gamma1 = complex(report.gamma1_state0[k]), complex(report.gamma1_state1[k])
        else:
            gamma0, gamma1 = 1.0 + 0.0j, -1.0 + 0.0j
        codes = arraysim.quantize_1bit(arraysim.ideal_phase(acfg, steer, f, args.ref_phase))
        params = {"steer": [steer.theta_deg, steer.phi_deg], "freq": f,
                  "ref_phase": args.ref_phase, "step": args.step,
                  "gamma0": [gamma0.real, gamma0.imag], "gamma1": [gamma1.real, gamma1.imag]}

        for phi in (0.0, 90.0):
            p = arraysim.far_field(acfg, codes, gamma0, gamma1, f, cut, phi)
            lines = ["theta_deg,power_db"]
            lines += [f"{cut[i]:.2f},{p[i]:.6f}" for i in range(len(cut))]
            path = outdir / f"pattern_phi{int(phi)}.csv"
            stage(path, params | {"cut_phi": phi}).write_text("\n".join(lines) + "\n")
            peak = cut[int(np.argmax(p))]
            print(f"phi={int(phi)} cut: peak at {peak:.2f} deg -> {path}")

        stage(outdir / "codes.pbm", params).write_text(render_pbm(codes))

        if args.sweep:
            sweep = arraysim.spectral_power_sweep(acfg, oracle.freq_grid(), report.gamma1_state0,
                                                  report.gamma1_state1, codes, steer, f)
            lines = ["freq_hz,power_db"]
            lines += [f"{sweep.freqs[i]:.6e},{sweep.power_db[i]:.6f}" for i in range(len(sweep.freqs))]
            path = outdir / "sweep.csv"
            stage(path, params).write_text("\n".join(lines) + "\n")
            if sweep.band is None:
                print(f"no 3-dB band around {f:.3e} Hz -> {path}")
            else:
                print(f"3-dB band {sweep.band[0]:.3e}..{sweep.band[1]:.3e} Hz "
                      f"({sweep.bandwidth_pct:.1f}%) -> {path}")

        if args.hemisphere:
            thetas = np.arange(0.0, 90.0 + 1e-9, 1.0)
            phis = np.arange(0.0, 360.0, 1.0)
            db = arraysim.far_field(acfg, codes, gamma0, gamma1, f, np.tile(thetas, len(phis)),
                                    np.repeat(phis, len(thetas))).reshape(len(phis), len(thetas))
            path = outdir / "hemisphere.pgm"
            stage(path, params).write_text(arraysim.render_pgm(db))
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
    p.add_argument("--jobs", type=int, default=1, help="worker threads")
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
    p.add_argument("--freq", type=_parse_freq,
                   help="pattern frequency in Hz (default from config array.f0)")
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
    except (CliError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
