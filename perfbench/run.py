"""Benchmark of the metapix command-line pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  NAME is one of design-oracle, surrogate-build,
dataset-bulk, or `all` for each in turn.  Each workload runs in a fresh
interpreter (worker.py) that imports metapix.cli once and drives the stage
chain through metapix.cli.main(argv) in a scratch directory under
.perfbench/, repeating it for S seconds and checking every output.

--trace 0 measures the end-to-end metrics with tracing off; set-up time comes
from separate fresh interpreters that only import metapix.cli and load the
config.  --trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones plus the tracing overhead.

The report lists every metric by name and unit; the last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"} holding the metrics
BENCHMARK.json declares.  The full record (machine, argv, samples, per-layer
table) goes to .perfbench/results/.  Exit status is non-zero, with no JSON
line, when the benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import END_TO_END, PER_LAYER
from workloads import (BULK_RECORDS, EPOCHS, GENERATIONS, POPULATION, SURROGATE_RECORDS,
                       WORKLOADS, train_rows)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_PROBES = 15
DEADLINE_S = 175.0


class BenchError(RuntimeError):
    pass


def _spawn(argv: list[str], deadline: float) -> str:
    """Run a child in its own process group; kill the whole group on overrun."""
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        _reap_group(proc.pid)
        raise
    if proc.returncode != 0:
        raise BenchError(f"{Path(argv[1]).name} {' '.join(argv[2:4])} exited {proc.returncode}")
    return out


def _reap_group(pgid: int, wait_s: float = 5.0) -> None:
    """Wait (bounded) until no process of the killed group is left."""
    end = time.monotonic() + wait_s
    while time.monotonic() < end:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def setup_samples(n: int, deadline: float) -> list[float]:
    """Seconds from spawning a fresh interpreter to metapix.cli imported and
    the config loaded; one untimed probe first fills the bytecode cache."""
    probe = [sys.executable, str(HERE / "worker.py"), "--probe", str(ROOT)]
    _spawn(probe, deadline)
    out = []
    for _ in range(n):
        t0 = time.monotonic()
        ready = float(_spawn(probe, deadline).strip().splitlines()[-1])
        out.append(ready - t0)
    return out


def run_worker(workload: str, seed: int, seconds: float, trace: bool,
               deadline: float) -> tuple[dict, Path | None]:
    run_dir = WORK / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        out = _spawn([sys.executable, str(HERE / "worker.py"), str(ROOT), workload, str(seed),
                      str(seconds), "1" if trace else "0", str(run_dir)], deadline)
        res = json.loads(out.strip().splitlines()[-1])
        spans_path = None
        if (run_dir / "spans.json").is_file():
            spans_path = WORK / "results" / f"{workload}-seed{seed}-spans.json"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            shutil.move(run_dir / "spans.json", spans_path)
        return res, spans_path
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest of p50..p99.9 with at least ten samples beyond it, if any."""
    n = len(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            return p, cuts[int(round(p * 10)) - 1]
    return None


def _timed(rep: dict) -> bool:
    return not rep["warmup"] and rep["failure"] is None


def end_to_end(res: dict, setups: list[float]) -> dict[str, list[float]]:
    """Samples of every end-to-end metric the workload's stages produce."""
    # when a stage failed there may be no timed repetition; the failed ones
    # still give the gated metrics a value next to correct = false
    reps = [r for r in res["reps"] if _timed(r) and not r["traced"]] or res["reps"]
    stage = lambda name: [r["stage_s"][name] for r in reps if name in r["stage_s"]]  # noqa: E731
    rate = lambda work, name: [work / t for t in stage(name)]  # noqa: E731
    gen_n = {"gen.jobs1": 0, "gen.jobs2": 0}
    for s in res["stages"]:
        if s["name"] in gen_n:
            gen_n[s["name"]] = int(s["argv"][s["argv"].index("--n") + 1])
    attempted = max(res["attempted"], 1)
    rss = res["maxrss_kb"]
    out = {
        "setup_s": setups,
        "pipeline_s": [r["pipeline_s"] for r in reps],
        "target_s": stage("target"),
        "gen_records_per_s.jobs1": rate(gen_n["gen.jobs1"], "gen.jobs1"),
        "gen_records_per_s.jobs2": rate(gen_n["gen.jobs2"], "gen.jobs2"),
        "stats_records_per_s": rate(BULK_RECORDS, "stats"),
        "train_samples_per_s": rate(EPOCHS * train_rows(SURROGATE_RECORDS), "train"),
        "design_evals_per_s": rate(POPULATION * (GENERATIONS + 1), "design"),
        "array_s": stage("array"),
        "peak_rss_mb": [max(rss["self"], rss["children"]) / 1024.0],
        "failed_frac": [len(res["failures"]) / attempted],
    }
    quality = [r["quality"] for r in res["reps"] if r.get("quality")]
    for name in ("design_error", "surrogate_val_mae"):
        out[name] = [q[name] for q in quality if name in q]
    return {k: v for k, v in out.items() if v}


def per_layer(res: dict) -> dict[str, float]:
    """Median of each per-layer metric over the traced repetitions."""
    traced = [r for r in res["reps"] if _timed(r) and r["traced"]]
    plain = [r["pipeline_s"] for r in res["reps"] if _timed(r) and not r["traced"]]
    out = {}
    for m in PER_LAYER:
        values = [r["layers"].get(m.name, 0.0) for r in traced]
        out[m.name] = statistics.median(values) if values else 0.0
    if traced and plain:
        out["trace.overhead_s"] = (statistics.median(r["pipeline_s"] for r in traced)
                                   - statistics.median(plain))
    return out


COUNTS = [m.name for m in PER_LAYER if m.unit == "count"]


def count_mismatches(res: dict) -> list[str]:
    """Work counts must repeat exactly across traced repetitions of one seed."""
    traced = [r["layers"] for r in res["reps"] if r["traced"] and r["failure"] is None]
    return [f"{name} differs between traced repetitions" for name in COUNTS
            if len({t.get(name, 0.0) for t in traced}) > 1]


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def declared() -> tuple[list[dict], list[dict]]:
    """The end-to-end and per-layer metrics BENCHMARK.json gates."""
    path = ROOT / "BENCHMARK.json"
    doc = json.loads(path.read_text())
    known = {m.name for m in END_TO_END} | {m.name for m in PER_LAYER}
    unknown = [m["name"] for m in doc["end_to_end"] + doc["per_layer"] if m["name"] not in known]
    if unknown:
        raise BenchError(f"{path.name} names metrics this benchmark does not measure: {unknown}")
    return doc["end_to_end"], doc["per_layer"]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def report_end_to_end(workload: str, samples: dict[str, list[float]]) -> None:
    print(f"{'metric':<26}{'median':>12}  {'unit':<6}{'better':<7}{'n':>3}  {'tail':<16}  meaning")
    for m in END_TO_END:
        s = samples.get(m.name)
        if not s:
            print(f"{m.name:<26}{'-':>12}  {m.unit:<6}{m.better:<7}{0:>3}  {'':<16}  "
                  f"{m.about} (no such stage in {workload})")
            continue
        t = tail(s)
        tail_txt = f"p{t[0]:g} {_fmt(t[1])}" if t else "none (n < 20)"
        print(f"{m.name:<26}{_fmt(statistics.median(s)):>12}  {m.unit:<6}{m.better:<7}{len(s):>3}  "
              f"{tail_txt:<16}  {m.about}")


def report_per_layer(values: dict[str, float]) -> None:
    print(f"{'metric':<34}{'value':>14}  {'unit':<6} should move")
    for m in PER_LAYER:
        print(f"{m.name:<34}{_fmt(values.get(m.name, 0.0)):>14}  {m.unit:<6} {m.moves}")


def run_one(workload: str, seed: int, seconds: float, trace: bool, deadline: float,
            gated: list[dict]) -> dict:
    setups = [] if trace else setup_samples(SETUP_PROBES, deadline)
    res, spans_path = run_worker(workload, seed, seconds, trace, deadline)
    failures = list(res["failures"])
    attempted = res["attempted"] + (len(COUNTS) if trace else 0)
    print(f"== {workload}  seed {seed}  trace {int(trace)}  repetitions {len(res['reps'])}")
    print("machine " + json.dumps(res["machine"], sort_keys=True))
    for s in res["stages"]:
        print(f"argv {s['name']:<10} {' '.join(s['argv'])}")
    for name, doc in res["files"].items():
        print(f"file {name:<10} {json.dumps(doc)}")
    if trace:
        failures += count_mismatches(res)
        values = per_layer(res)
        report_per_layer(values)
        if spans_path:
            print(f"spans written to {spans_path.relative_to(ROOT)}")
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in gated}
        record = {"per_layer": values}
    else:
        samples = end_to_end(res, setups)
        report_end_to_end(workload, samples)
        missing = [m["name"] for m in gated if m["name"] not in samples]
        if missing:
            raise BenchError(f"{workload} measured none of {missing}")
        metrics = {m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}
                   for m in gated}
        record = {"end_to_end": samples}
    for f in failures:
        print(f"FAILED {f}")
    summary = {"correct": not failures, "attempted": attempted, "failed": len(failures),
               "metrics": metrics}
    out = WORK / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"workload": workload, "seed": seed, "seconds": seconds,
                               "machine": res["machine"], "stages": res["stages"],
                               "files": res["files"], "failures": failures,
                               "reps": res["reps"], **record, "summary": summary}, indent=1))
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills its worker's process group (see _spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    try:
        if not (ROOT / "src" / "metapix" / "cli.py").is_file():
            raise BenchError(f"no metapix sources under {ROOT / 'src'}")
        gated_e2e, gated_layer = declared()
        gated = gated_layer if args.trace else gated_e2e
        results = {w: run_one(w, args.seed, args.seconds, bool(args.trace), deadline, gated)
                   for w in names}
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (summary,) = results.values()
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
