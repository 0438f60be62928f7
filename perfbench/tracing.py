"""Per-layer spans for the benchmark's traced run.

Spans are recorded from the benchmark's own files: a binding replaces a
package function with a timing wrapper in every module that looks the
function up by name at call time, and the original is put back when the
traced pass ends. Nothing in the package changes.

Spans nest on one stack (the benchmark is single-threaded and calls the
CLI in-process), so a span's self time is its duration minus the time of
the spans it directly contains. Per name the tracer keeps call count,
total and self time, plus the counters the layer metrics need; the
eliminate_overlaps calls of each summarize_video call are also kept in
order, for the decile ratio.
"""

from __future__ import annotations

import statistics
from collections import Counter
from time import perf_counter

import numpy as np

# Span names that every traced round must reach: the traced run fails if
# any of them records zero calls.
SPANS = (
    "records.read_frame_records",
    "records.dumps_record",
    "records.read_entries",
    "extraction.extract_frame_context",
    "aggregation.push",
    "aggregation.segments_at",
    "aggregation.eliminate_overlaps",
    "aggregation.context_for_frame",
    "assembly.assemble",
    "pipeline.summarize_video",
    "metrics.match_top5",
    "metrics.average_precision",
    "metrics.top5_map",
    "metrics.context_quality",
    "core.load_embeddings",
    "fusion.gelu",
    "fusion.attention",
    "fusion.multi_head",
    "fusion.encoder_layer",
    "fusion.load_params",
    "checks.run_invariant_checks",
)
SETUP_SPANS = ("synth.gen_scenario", "synth.gen_eval_instance")
# Counted without timing: a wrapper would cost more than one iou call.
COUNTED = ("metrics.iou",)


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []
        self._video_elims: list[tuple[float, int]] = []
        self.elim_by_video: list[list[tuple[float, int]]] = []

    def _close(self, name: str, child_time: list[float], t0: float) -> float:
        dt = perf_counter() - t0
        self._stack.pop()
        self.calls[name] += 1
        self.total[name] += dt
        self.self_time[name] += dt - child_time[0]
        if self._stack:
            self._stack[-1][0] += dt
        return dt

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call is a span; ``after(args, result, dt)`` records counters."""

        def traced(*args, **kwargs):
            child_time = [0.0]
            self._stack.append(child_time)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = self._close(name, child_time, t0)
            if after is not None:
                after(args, result, dt)
            return result

        return traced

    def span_iter(self, name: str, fn, unit: str):
        """Wrap a generator function so each ``next`` is a span and each item counts one ``unit``."""

        def traced(*args, **kwargs):
            items = iter(fn(*args, **kwargs))
            while True:
                child_time = [0.0]
                self._stack.append(child_time)
                t0 = perf_counter()
                try:
                    item = next(items)
                except StopIteration:
                    self._close(name, child_time, t0)
                    return
                except BaseException:
                    self._close(name, child_time, t0)
                    raise
                self._close(name, child_time, t0)
                self.counts[f"{name}.{unit}"] += 1
                yield item

        return traced

    def counted(self, name: str, fn):
        def counted_call(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted_call

    # counters recorded after a call returns

    def _add(self, key: str, amount) -> None:
        self.counts[key] += amount

    def _eliminated(self, args, kept, dt) -> None:
        self.counts["aggregation.eliminate_overlaps.segments_in"] += len(args[0])
        self.counts["aggregation.eliminate_overlaps.segments_kept"] += len(kept)
        self._video_elims.append((dt, len(args[0])))

    def _video_done(self, args, result, dt) -> None:
        self.elim_by_video.append(self._video_elims)
        self._video_elims = []

    def _attention_flops(self, args, result, dt) -> None:
        (n_q, d_k), (n_k, _), (_, d_v) = (np.shape(a) for a in args[:3])
        self.counts["fusion.attention.flops"] += 2 * n_q * n_k * (d_k + d_v)


def _bindings(tracer: Tracer, cf) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every place the program looks a traced function up."""
    t = tracer
    agg = cf.aggregation.StreamAggregator
    out = []

    def bind(name, sites, make):
        for owner, attr in sites:
            out.append((owner, attr, make(name, getattr(owner, attr))))

    bind("records.read_frame_records", [(cf.cli, "read_frame_records")],
         lambda n, f: t.span_iter(n, f, "frames"))
    bind("records.dumps_record", [(cf.cli, "dumps_record")], t.span)
    bind("records.read_entries", [(cf.cli, "read_predictions"), (cf.cli, "read_ground_truth")],
         lambda n, f: t.span(n, f, lambda a, r, dt: t._add(f"{n}.frames", len(r))))
    bind("extraction.extract_frame_context", [(cf.pipeline, "extract_frame_context")], t.span)
    bind("aggregation.push", [(agg, "push")], t.span)
    bind("aggregation.segments_at", [(agg, "segments_at")],
         lambda n, f: t.span(n, f, lambda a, r, dt: t._add(f"{n}.segments_out", len(r))))
    bind("aggregation.eliminate_overlaps", [(cf.pipeline, "eliminate_overlaps")],
         lambda n, f: t.span(n, f, t._eliminated))
    bind("aggregation.context_for_frame", [(cf.pipeline, "context_for_frame")], t.span)
    bind("assembly.assemble", [(cf.pipeline, "assemble")], t.span)
    bind("pipeline.summarize_video", [(cf.cli, "summarize_video")],
         lambda n, f: t.span(n, f, t._video_done))
    bind("metrics.iou", [(cf.metrics, "iou"), (cf.extraction, "iou")], t.counted)
    bind("metrics.match_top5", [(cf.metrics, "match_top5")], t.span)
    bind("metrics.average_precision", [(cf.metrics, "_average_precision")], t.span)
    bind("metrics.top5_map", [(cf.cli, "top5_map")], t.span)
    bind("metrics.context_quality", [(cf.cli, "context_quality")],
         lambda n, f: t.span(n, f, lambda a, r, dt: t._add(f"{n}.frames", r.n_frames)))
    bind("core.load_embeddings", [(cf.cli, "load_embeddings")], t.span)
    bind("fusion.gelu", [(cf.fusion, "gelu")],
         lambda n, f: t.span(n, f, lambda a, r, dt: t._add(f"{n}.elements", int(np.size(r)))))
    bind("fusion.attention", [(cf.fusion, "attention"), (cf.checks, "attention")],
         lambda n, f: t.span(n, f, t._attention_flops))
    bind("fusion.multi_head", [(cf.fusion, "multi_head")], t.span)
    bind("fusion.encoder_layer", [(cf.fusion, "encoder_layer")], t.span)
    # cmd_fuse_check imports these two inside the function, from the module.
    bind("fusion.load_params", [(cf.fusion, "load_params")], t.span)
    bind("checks.run_invariant_checks", [(cf.checks, "run_invariant_checks")], t.span)
    return out


def _setup_bindings(tracer: Tracer, cf) -> list[tuple[object, str, object]]:
    return [
        (cf.synth, "gen_scenario", tracer.span("synth.gen_scenario", cf.synth.gen_scenario)),
        (cf.synth, "gen_eval_instance",
         tracer.span("synth.gen_eval_instance", cf.synth.gen_eval_instance)),
    ]


class installed:
    """Context manager that applies bindings and restores the originals on exit."""

    def __init__(self, bindings) -> None:
        self._bindings = bindings
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for owner, attr, replacement in self._bindings:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def traced(tracer: Tracer, cf) -> installed:
    return installed(_bindings(tracer, cf))


def traced_setup(tracer: Tracer, cf) -> installed:
    return installed(_setup_bindings(tracer, cf))


def missing_spans(tracer: Tracer) -> list[str]:
    return [name for name in SPANS + SETUP_SPANS + COUNTED if tracer.calls[name] == 0]


def _decile_ratio(elim_by_video) -> tuple[float, float, float]:
    """Median per-call time of the last tenth of each video's eliminate_overlaps
    calls over that of the first tenth, with the mean segments_in of each tenth.

    Medians, because a garbage-collector pause inside one call of a tenth
    would otherwise outweigh the other calls of a short video."""
    first: list[tuple[float, int]] = []
    last: list[tuple[float, int]] = []
    for calls in elim_by_video:
        k = max(1, len(calls) // 10)
        first.extend(calls[:k])
        last.extend(calls[-k:])
    ratio = statistics.median(dt for dt, _ in last) / statistics.median(dt for dt, _ in first)
    return ratio, statistics.fmean(n for _, n in first), statistics.fmean(n for _, n in last)


def layer_metrics(tracer: Tracer, rounds: int, setups: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit); totals are per traced round."""
    calls, total, self_time, counts = tracer.calls, tracer.total, tracer.self_time, tracer.counts

    def per_call_us(name):
        return 1e6 * total[name] / calls[name]

    def per_round(value):
        return value / rounds

    decile, first_n, last_n = _decile_ratio(tracer.elim_by_video)
    elim = "aggregation.eliminate_overlaps"
    return {
        "records.read_frame_records.us_per_frame": (
            1e6 * total["records.read_frame_records"] / counts["records.read_frame_records.frames"], "us"),
        "records.dumps_record.us_per_record": (per_call_us("records.dumps_record"), "us"),
        "records.read_entries.us_per_frame": (
            1e6 * total["records.read_entries"] / counts["records.read_entries.frames"], "us"),
        "extraction.extract_frame_context.calls": (
            per_round(calls["extraction.extract_frame_context"]), "count"),
        "extraction.extract_frame_context.us_per_call": (
            per_call_us("extraction.extract_frame_context"), "us"),
        "aggregation.push.us_per_call": (per_call_us("aggregation.push"), "us"),
        "aggregation.context_for_frame.us_per_call": (
            per_call_us("aggregation.context_for_frame"), "us"),
        "aggregation.segments_at.segments_out": (
            per_round(counts["aggregation.segments_at.segments_out"]), "count"),
        f"{elim}.segments_in": (per_round(counts[f"{elim}.segments_in"]), "count"),
        f"{elim}.kept_ratio": (counts[f"{elim}.segments_kept"] / counts[f"{elim}.segments_in"], "ratio"),
        f"{elim}.us_per_call": (per_call_us(elim), "us"),
        f"{elim}.share_of_pipeline": (total[elim] / total["pipeline.summarize_video"], "ratio"),
        f"{elim}.decile_ratio": (decile, "ratio"),
        f"{elim}.segments_in_first_decile": (first_n, "count"),
        f"{elim}.segments_in_last_decile": (last_n, "count"),
        "assembly.assemble.us_per_call": (per_call_us("assembly.assemble"), "us"),
        "pipeline.summarize_video.self_s": (per_round(self_time["pipeline.summarize_video"]), "s"),
        "cli.self_s": (per_round(self_time["cli.summarize"]), "s"),
        "metrics.iou.calls": (per_round(calls["metrics.iou"]), "count"),
        "metrics.match_top5.us_per_call": (per_call_us("metrics.match_top5"), "us"),
        "metrics.average_precision.s": (per_round(total["metrics.average_precision"]), "s"),
        "metrics.top5_map.self_s": (per_round(self_time["metrics.top5_map"]), "s"),
        "metrics.context_quality.us_per_frame": (
            1e6 * total["metrics.context_quality"] / counts["metrics.context_quality.frames"], "us"),
        "core.load_embeddings.s": (per_round(total["core.load_embeddings"]), "s"),
        "fusion.gelu.elements": (per_round(counts["fusion.gelu.elements"]), "count"),
        "fusion.gelu.ns_per_element": (1e9 * total["fusion.gelu"] / counts["fusion.gelu.elements"], "ns"),
        "fusion.attention.flops": (per_round(counts["fusion.attention.flops"]), "count"),
        "fusion.attention.us_per_call": (per_call_us("fusion.attention"), "us"),
        "fusion.multi_head.us_per_call": (per_call_us("fusion.multi_head"), "us"),
        "fusion.encoder_layer.us_per_call": (per_call_us("fusion.encoder_layer"), "us"),
        "fusion.load_params.s": (per_round(total["fusion.load_params"]), "s"),
        "checks.run_invariant_checks.self_s": (per_round(self_time["checks.run_invariant_checks"]), "s"),
        "synth.gen_scenario.s": (total["synth.gen_scenario"] / setups, "s"),
        "synth.gen_eval_instance.s": (total["synth.gen_eval_instance"] / setups, "s"),
    }
