"""Outside-in span tracing of the metapix modules.

The tracer replaces public functions and methods of the metapix modules with
wrappers that record a span (name, start, end, parent span, stage id) around
each call, plus work counts.  Several modules bind functions of other modules
directly (`from .oracle import response_batch`), so installing scans every
loaded metapix module and replaces each binding of a wrapped function.
Nothing inside the program changes; uninstalling restores every binding.

Spans live in memory until `dump` writes them out.  Self time of a span is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np


class TraceError(RuntimeError):
    """The tracer could not intercept what the benchmark expects."""


def _arg(a, k, i, name):
    return a[i] if len(a) > i else k[name]


def _rows(a, k, r):
    return len(r)


def _path_bytes(a, k, r):
    return os.path.getsize(_arg(a, k, 0, "path"))


# span name, per-call counters, and the functions it covers as (module,
# qualified name).  A span survives a refactor that removes some of its
# functions as long as one remains; pattern.mirror collects the three
# mirroring helpers so its name outlives their merge.
SPANS = (
    ("rng.stream_u64", {"words": _rows}, (("rng", "stream_u64"),)),
    ("rng.bits", {"words": _rows},
     (("rng", "u64_to_bits"), ("rng", "bits_to_u64"))),
    ("pattern.mirror", {"genomes": lambda a, k, r: 1 if r.ndim == 2 else r.shape[0]},
     (("pattern", "expand_genome"), ("inverse", "bits_to_grids"), ("dataset", "expand_words"))),
    ("oracle.features", {"rows": _rows}, (("oracle", "features_batch"),)),
    ("oracle.response", {"rows": _rows},
     (("oracle", "response_batch"), ("oracle", "features_response_batch"))),
    ("netcalc.solve", {}, (("netcalc", "solve_target_s22"),)),
    ("netcalc.loaded", {},
     (("netcalc", "switch_impedance"), ("netcalc", "reflection_of_load"),
      ("netcalc", "gamma1_reduced"), ("netcalc", "coding_metrics"))),
    ("inverse.build_target", {}, (("inverse", "build_target"),)),
    ("inverse.ga", {}, (("inverse", "ga_run"),)),
    ("inverse.fitness", {"rows": _rows}, (("inverse", "fitness_of"),)),
    ("inverse.validate", {}, (("inverse", "validate_design"),)),
    ("surrogate.forward", {"rows": lambda a, k, r: len(r[0])}, (("surrogate", "Mlp.forward"),)),
    ("surrogate.backprop", {}, (("surrogate", "Mlp.loss_and_grads"),)),
    ("surrogate.adam", {"steps": lambda a, k, r: 1}, (("surrogate", "_Adam.step"),)),
    ("surrogate.train", {},
     (("surrogate", "train"), ("surrogate", "init_mlp"), ("surrogate", "records_to_xy"))),
    ("surrogate.val", {}, (("surrogate", "mae"),)),
    ("surrogate.predict", {"rows": _rows}, (("surrogate", "predict_s22"),)),
    ("surrogate.checkpoint", {},
     (("surrogate", "save_checkpoint"), ("surrogate", "load_checkpoint"))),
    ("dataset.generate", {"records": _rows}, (("dataset", "generate"),)),
    ("dataset.save", {"bytes": _path_bytes}, (("dataset", "save"),)),
    ("dataset.load", {"bytes": _path_bytes}, (("dataset", "load"),)),
    ("dataset.summarize", {}, (("dataset", "summarize"),)),
    ("arraysim.far_field", {},
     (("arraysim", "far_field"), ("arraysim", "pattern_db"), ("arraysim", "ideal_phase"),
      ("arraysim", "quantize_1bit"), ("arraysim", "gammas_from_codes"))),
    # points = directions x elements, counted where the summation happens
    ("arraysim.far_field", {"points": lambda a, k, r: len(r) * _arg(a, k, 1, "gammas").size},
     (("arraysim", "far_field_gammas"),)),
    ("arraysim.sweep", {}, (("arraysim", "spectral_power_sweep"),)),
)

# evaluator factories: the closure each returns is wrapped as inverse.evaluator
EVALUATOR_FACTORIES = (("inverse", "oracle_evaluator"), ("inverse", "surrogate_evaluator"))


class Tracer:
    """Span recorder; `install` patches the modules, `uninstall` restores them."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.span_stage: list[int] = []
        self.stack: list[int] = []
        self.stage_id = -1
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.evaluated: dict[int, list[np.ndarray]] = defaultdict(list)
        self._patches: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.span_stage.append(self.stage_id)
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name: str, counters: dict, on_call=None):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def traced(*a, **k):
            i = tracer._open(name)
            try:
                result = fn(*a, **k)
            finally:
                tracer._close(i)
            c = counts[tracer.stage_id]
            c[f"{name}.calls"] += 1
            for field, count in counters.items():
                c[f"{name}.{field}"] += count(a, k, result)
            if on_call is not None:
                on_call(a)
            return result

        return traced

    @contextlib.contextmanager
    def stage(self, stage_id: int):
        """One `cli` span around a whole stage; spans inside carry its id."""
        self.stage_id = stage_id
        i = self._open("cli")
        try:
            yield
        finally:
            self._close(i)
            self.counts[stage_id]["cli.calls"] += 1
            self.stage_id = -1

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        mods = {name.split(".", 1)[1]: m for name, m in sys.modules.items()
                if name.startswith("metapix.") and m is not None}
        wrappers: dict[int, object] = {}  # id(original) -> wrapper
        originals: dict[int, object] = {}
        found: set[str] = set()
        for span, counters, targets in SPANS:
            for mod_name, qual in targets:
                owner, attr = _resolve(mods, mod_name, qual)
                if owner is None:
                    continue
                fn = owner.__dict__[attr]
                wrapper = self._wrap(fn, span, counters)
                wrappers[id(fn)] = wrapper
                originals[id(fn)] = fn
                found.add(span)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
        for mod_name, qual in EVALUATOR_FACTORIES:
            owner, attr = _resolve(mods, mod_name, qual)
            if owner is None:
                continue
            fn = owner.__dict__[attr]
            wrappers[id(fn)] = self._evaluator_factory(fn)
            originals[id(fn)] = fn
            found.add("inverse.evaluator")
        missing = ({s for s, _, _ in SPANS} | {"inverse.evaluator"}) - found
        if missing:
            raise TraceError(f"no metapix function left to trace for spans {sorted(missing)}")

        # every module binding of an original, not only the defining module
        for m in mods.values():
            for attr, value in list(vars(m).items()):
                if id(value) in wrappers and value is originals[id(value)]:
                    self._patch(m, attr, wrappers[id(value)])

    def _evaluator_factory(self, factory):
        tracer = self

        def keep(a):
            tracer.evaluated[tracer.stage_id].append(np.array(a[0], dtype=np.uint8))

        counters = {"genomes": lambda a, k, r: len(r)}

        @functools.wraps(factory)
        def traced_factory(*a, **k):
            return tracer._wrap(factory(*a, **k), "inverse.evaluator", counters, on_call=keep)

        return traced_factory

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def summary(self, exclude_stages=()) -> dict[str, float]:
        """Per-span self time, call and work counts, summed over stages."""
        n = len(self.names)
        dur = np.array(self.ends) - np.array(self.starts)
        child = np.zeros(n)
        parents = np.array(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_s = dur - child
        out: dict[str, float] = defaultdict(float)
        for i in range(n):
            if self.span_stage[i] not in exclude_stages:
                out[f"{self.names[i]}.self_s"] += float(self_s[i])
        for stage, counts in self.counts.items():
            if stage in exclude_stages:
                continue
            for key, value in counts.items():
                out[key] += value
        kept = [b for stage, lst in self.evaluated.items() if stage not in exclude_stages
                for b in lst]
        if kept:
            words = np.packbits(np.concatenate(kept), axis=1).view(">u8").reshape(-1)
            out["inverse.evaluator.unique_frac"] = len(np.unique(words)) / len(words)
        return dict(out)

    def stage_durations(self, name: str) -> dict[int, float]:
        """Total duration of top-level `name` spans per stage."""
        out: dict[int, float] = defaultdict(float)
        for i, span in enumerate(self.names):
            if span == name and (self.parents[i] < 0 or self.names[self.parents[i]] == "cli"):
                out[self.span_stage[i]] += self.ends[i] - self.starts[i]
        return dict(out)

    def dump(self, path, stages) -> None:
        """Write every span and the stage argv lists as JSON."""
        doc = {
            "time_unit": "s since tracer creation",
            "stages": stages,
            "fields": ["name", "start", "end", "parent", "stage"],
            "spans": [[self.names[i], self.starts[i] - self.t0, self.ends[i] - self.t0,
                       self.parents[i], self.span_stage[i]] for i in range(len(self.names))],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _resolve(mods: dict, mod_name: str, qual: str):
    """(owner, attribute) for module.qual; (None, None) when it does not exist."""
    owner = mods.get(mod_name)
    parts = qual.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not callable(vars(owner).get(parts[-1])):
        return None, None
    return owner, parts[-1]
