"""Fresh-interpreter side of the benchmark: runs one workload's stage chain.

    python3 worker.py --probe ROOT
        import metapix.cli, load the default config, print the monotonic clock
        reading at that moment (set-up probe), exit.
    python3 worker.py ROOT WORKLOAD SEED SECONDS TRACE RUN_DIR
        import metapix.cli, then repeat the workload's chain through
        metapix.cli.main(argv), each repetition in a fresh directory under
        RUN_DIR, until SECONDS have passed after an untimed warm-up
        repetition; check every repetition's outputs and print one JSON
        result line.  With TRACE 1 traced and untraced repetitions alternate,
        and RUN_DIR/spans.json gets the first traced repetition's spans.

Started by run.py, which owns the clock reading taken before the spawn.
"""

import os
import sys
import time


def _setup(root: str):
    sys.path.insert(0, os.path.join(root, "src"))
    import metapix.cli
    from metapix.config import load_config

    load_config(None)
    return metapix.cli


if __name__ == "__main__" and sys.argv[1:2] == ["--probe"]:
    _setup(sys.argv[2])
    print(repr(time.monotonic()))
    sys.exit(0)

import contextlib  # noqa: E402  (after the probe, so set-up excludes these)
import glob
import hashlib
import io
import json
import platform
import resource
import shutil
import traceback
from pathlib import Path

import checks
import spans
from layers import required_spans
from workloads import build


def _call(cli, argv, tracer, stage_id) -> int:
    try:
        if tracer is None:
            return cli.main(list(argv))
        with tracer.stage(stage_id):
            return cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        return -1


def start_on(cpu: int, allowed: list[int]) -> None:
    """Move this thread to `cpu`, then allow every CPU again: the next
    repetition starts there but runs unconstrained."""
    os.sched_setaffinity(0, {cpu})
    os.sched_setaffinity(0, allowed)


def run_rep(cli, chain, d: Path, tracer) -> dict:
    """One pass through the chain in directory d; stops at the first failed stage."""
    d.mkdir()
    for name, doc in chain.files.items():
        (d / name).write_text(json.dumps(doc))
    here = os.getcwd()
    os.chdir(d)
    stage_s: dict[str, float] = {}
    failure = None
    try:
        t0 = time.perf_counter()
        for i, stage in enumerate(chain.stages):
            out, err = io.StringIO(), io.StringIO()
            s0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = _call(cli, stage.argv, tracer, i)
            stage_s[stage.name] = time.perf_counter() - s0
            if rc != 0:
                failure = f"stage {stage.name} exited {rc}: {err.getvalue().strip()[-2000:]}"
                break
        pipeline_s = time.perf_counter() - t0
    finally:
        os.chdir(here)
    return {"traced": tracer is not None, "pipeline_s": pipeline_s, "stage_s": stage_s,
            "failure": failure}


def traced_rep(cli, chain, d: Path, spans_path: Path | None) -> dict:
    tracer = spans.Tracer()
    tracer.install()
    try:
        rep = run_rep(cli, chain, d, tracer)
    finally:
        tracer.uninstall()
    no_split = {i for i, s in enumerate(chain.stages) if not s.layer_split}
    layers = tracer.summary(exclude_stages=no_split)
    gen = tracer.stage_durations("dataset.generate")
    ids = {s.name: i for i, s in enumerate(chain.stages)}
    if "gen.jobs1" in ids and "gen.jobs2" in ids:
        t1, t2 = gen.get(ids["gen.jobs1"]), gen.get(ids["gen.jobs2"])
        if t1 and t2:
            layers["dataset.generate.scaling_eff"] = t1 / (2.0 * t2)
    if rep["failure"] is None:
        silent = sorted(s for s in required_spans(chain.workload)
                        if not layers.get(f"{s}.calls"))
        if silent:
            raise spans.TraceError(f"{chain.workload}: no call recorded for spans {silent}")
    if spans_path is not None:
        tracer.dump(spans_path, [list(s.argv) for s in chain.stages])
    rep["layers"] = layers
    return rep


def machine_record(root: str) -> dict:
    import numpy as np

    rec = {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": " ".join(platform.uname()[i] for i in (0, 2, 4)),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(np),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                 "MKL_NUM_THREADS") if k in os.environ},
        "git_commit": _git_commit(Path(root)),
        "source_sha256": _source_digest(Path(root) / "src" / "metapix"),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        rec["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        rec["blas"] = None
    return rec


def _blas_threads(np):
    """OpenBLAS thread count from the library numpy loaded, or None."""
    import ctypes

    base = os.path.dirname(np.__file__)
    libs = glob.glob(os.path.join(base, "..", "numpy.libs", "*openblas*"))
    libs += glob.glob(os.path.join(base, ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit(root: Path):
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv) -> int:
    root, workload, seed, seconds, trace, run_dir = argv
    cli = _setup(root)
    chain = build(workload, int(seed))
    seconds, trace, run_dir = float(seconds), trace == "1", Path(run_dir)
    result = {"machine": machine_record(root),
              "stages": [{"name": s.name, "argv": ["metapix", *s.argv]} for s in chain.stages],
              "files": chain.files, "reps": []}
    chk = checks.Checks()
    cpus = sorted(os.sched_getaffinity(0))
    first_hashes = None
    t_start = None
    k = 0
    try:
        while True:
            d = run_dir / f"rep{k}"
            # a process tends to stay on the CPU it started on, and the CPUs of
            # a shared host differ in speed for minutes at a time; timed
            # repetitions 1-2, 3-4, ... (with TRACE 1 one traced, one untraced)
            # start on the same CPU, each pair on the next, so that a run's
            # median spans the CPUs and the overhead compares like with like
            cpu = cpus[((k - 1) // 2) % len(cpus)]
            start_on(cpu, cpus)
            if trace and k % 2 == 1:
                spans_path = run_dir / "spans.json" if k == 1 else None
                rep = traced_rep(cli, chain, d, spans_path)
            else:
                rep = run_rep(cli, chain, d, None)
            # repetition 0 grows the heap and runs first-call code paths; it is
            # checked but not timed, and the SECONDS budget starts after it
            rep["warmup"] = k == 0
            rep["start_cpu"] = cpu
            chk.attempted += len(rep["stage_s"])
            if rep["failure"] is not None:
                chk.failures.append(rep["failure"])
            else:
                try:
                    hashes, rep["quality"] = checks.check_rep(workload, d, chk)
                except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                    # an artifact the checks cannot even parse is a failed output
                    chk.expect(False, f"repetition {k}: unreadable artifact: {exc!r}")
                    rep["failure"] = "unreadable artifact"
                    hashes = None
                if first_hashes is None:
                    first_hashes = hashes
                else:
                    chk.expect(hashes == first_hashes,
                               f"repetition {k} wrote other bytes than repetition 0")
            shutil.rmtree(d)
            result["reps"].append(rep)
            k += 1
            if rep["failure"] is not None:
                break
            if t_start is None:
                t_start = time.perf_counter()
            elif time.perf_counter() - t_start >= seconds and (not trace or (k >= 3 and k % 2)):
                break  # with TRACE 1 only after a whole traced/untraced pair
    except spans.TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    result["attempted"] = chk.attempted
    result["failures"] = chk.failures
    result["maxrss_kb"] = {
        "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
