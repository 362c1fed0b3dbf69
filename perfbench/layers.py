"""Metric tables of the benchmark: what is measured, in which unit, and why.

END_TO_END lists every end-to-end metric a workload can report; BENCHMARK.json
gates the ones every workload reports (the others exist only on the workloads
that run their stage).  PER_LAYER lists the traced per-module metrics with the
end-to-end metric each should move (`moves`, workloads in brackets) and the
workloads on which its layer must do work (`workloads`, wider where a stage
calls the layer without the layer setting its time): a traced run that records
no call of such a span fails.
"""

from __future__ import annotations

from dataclasses import dataclass

DO, SB, DB = "design-oracle", "surrogate-build", "dataset-bulk"
ALL = (DO, SB, DB)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    about: str


END_TO_END = (
    Metric("setup_s", "s", "lower", "fresh interpreter to `import metapix.cli` plus `load_config` done"),
    Metric("pipeline_s", "s", "lower", "wall time of the whole stage chain, set-up excluded"),
    Metric("target_s", "s", "lower", "wall time of the `target` stage"),
    Metric("gen_records_per_s.jobs1", "1/s", "higher", "records per second in `gen --jobs 1`"),
    Metric("gen_records_per_s.jobs2", "1/s", "higher", "records per second in `gen --jobs 2`"),
    Metric("stats_records_per_s", "1/s", "higher", "records per second in `stats`"),
    Metric("train_samples_per_s", "1/s", "higher", "epochs x training rows / `train` wall time"),
    Metric("design_evals_per_s", "1/s", "higher", "population x (generations + 1) / `design` wall time"),
    Metric("array_s", "s", "lower", "wall time of the `array` stage"),
    Metric("peak_rss_mb", "MB", "lower", "largest peak RSS of the workload process or any child"),
    Metric("failed_frac", "ratio", "lower", "failed stages and output checks / attempted"),
    Metric("design_error", "1", "lower", "inverse.target_error of the winner under the oracle"),
    Metric("surrogate_val_mae", "1", "lower", "best validation MAE reported by `train`"),
)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str
    workloads: tuple[str, ...]

    @property
    def span(self) -> str:
        return self.name.rsplit(".", 1)[0]


def _group(span: str, fields: tuple[tuple[str, str, str], ...], moves: str,
           workloads: tuple[str, ...]) -> tuple[LayerMetric, ...]:
    return tuple(LayerMetric(f"{span}.{f}", unit, better, moves, workloads)
                 for f, unit, better in fields)


SELF = ("self_s", "s", "lower")


def _count(field: str) -> tuple[str, str, str]:
    return (field, "count", "lower")


GA_MOVES = "design_evals_per_s [design-oracle]; gen_records_per_s [dataset-bulk]"

PER_LAYER = (
    *_group("rng.stream_u64", (SELF, _count("words")), GA_MOVES, ALL),
    *_group("rng.bits", (SELF, _count("words")),
            "design_evals_per_s [design-oracle, surrogate-build]; gen_records_per_s [dataset-bulk]",
            ALL),
    *_group("pattern.mirror", (SELF, _count("genomes")), GA_MOVES, ALL),
    *_group("oracle.features", (SELF, _count("rows")),
            "design_evals_per_s [design-oracle]; gen_records_per_s, stats_records_per_s [dataset-bulk]",
            ALL),
    *_group("oracle.response", (SELF, _count("calls"), _count("rows")),
            "design_evals_per_s [design-oracle]; gen_records_per_s [dataset-bulk, surrogate-build]",
            ALL),
    *_group("netcalc.solve", (SELF, _count("calls")), "target_s [design-oracle, surrogate-build]",
            (DO, SB)),
    *_group("netcalc.loaded", (SELF, _count("calls")), "array_s, pipeline_s [design-oracle]", (DO, SB)),
    *_group("inverse.build_target", (SELF,), "target_s [design-oracle, surrogate-build]", (DO, SB)),
    *_group("inverse.ga", (SELF,), "design_evals_per_s [design-oracle, surrogate-build]", (DO, SB)),
    *_group("inverse.fitness", (SELF, _count("rows")),
            "design_evals_per_s [design-oracle, surrogate-build]", (DO, SB)),
    *_group("inverse.evaluator", (_count("calls"), _count("genomes"), ("unique_frac", "ratio", "higher")),
            "design_evals_per_s [design-oracle, surrogate-build]", (DO, SB)),
    *_group("inverse.validate", (SELF,), "pipeline_s [design-oracle, surrogate-build]", (DO, SB)),
    *_group("surrogate.forward", (SELF, _count("rows")),
            "train_samples_per_s, design_evals_per_s [surrogate-build]", (SB,)),
    *_group("surrogate.backprop", (SELF,), "train_samples_per_s [surrogate-build]", (SB,)),
    *_group("surrogate.adam", (SELF, _count("steps")), "train_samples_per_s [surrogate-build]", (SB,)),
    *_group("surrogate.train", (SELF,), "train_samples_per_s [surrogate-build]", (SB,)),
    *_group("surrogate.val", (SELF,), "train_samples_per_s [surrogate-build]", (SB,)),
    *_group("surrogate.predict", (SELF, _count("rows")), "design_evals_per_s [surrogate-build]", (SB,)),
    *_group("surrogate.checkpoint", (SELF,), "pipeline_s [surrogate-build]", (SB,)),
    *_group("dataset.generate", (SELF, ("records", "count", "higher"), ("scaling_eff", "ratio", "higher")),
            "gen_records_per_s [dataset-bulk, surrogate-build]", (DB, SB)),
    *_group("dataset.save", (SELF, _count("bytes")),
            "gen_records_per_s [dataset-bulk]; train_samples_per_s [surrogate-build]", (DB, SB)),
    *_group("dataset.load", (SELF, _count("bytes")),
            "stats_records_per_s [dataset-bulk]; train_samples_per_s [surrogate-build]", (DB, SB)),
    *_group("dataset.summarize", (SELF,), "stats_records_per_s [dataset-bulk]", (DB,)),
    *_group("arraysim.far_field", (SELF, _count("points")), "array_s [design-oracle]", (DO,)),
    *_group("arraysim.sweep", (SELF,), "array_s [design-oracle]", (DO,)),
    *_group("cli", (SELF,), "pipeline_s [all]", ALL),
    LayerMetric("trace.overhead_s", "s", "lower",
                "none: traced minus untraced pipeline_s, the cost of the spans themselves", ALL),
)


def required_spans(workload: str) -> set[str]:
    """Spans that must record at least one call on `workload`."""
    return {m.span for m in PER_LAYER if workload in m.workloads and m.span != "trace"}
