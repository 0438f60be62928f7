"""Per-video summarization pipeline: frame records -> action contexts.

Every input frame is a prediction frame. Frames whose index is a
multiple of the stride are processed by the extractors exactly once and
their contexts cached; aggregation advances causally, so the context
for frame t sees only processed frames strictly before t but may reach
arbitrarily far back through segments carried in aggregator state.
"""

from __future__ import annotations

from dataclasses import dataclass

from .aggregation import SelectionMode, StreamAggregator, context_for_frame, eliminate_overlaps
from .assembly import assemble
from .core import ActionContext, ActionPair, Category, FrameRecord, SummarizerConfig, ValidationError
from .extraction import extract_frame_context

_MODES = {
    Category.ACTION: SelectionMode.CURRENT_AND_PAST,
    Category.HELD: SelectionMode.CURRENT_AND_PAST,
    Category.SALIENT: SelectionMode.CURRENT_ONLY,
}


@dataclass
class VideoStats:
    video_id: str
    n_frames: int
    n_processed: int
    n_segments: dict[str, int]


def summarize_video(
    video_id: str,
    frames: list[FrameRecord],
    cfg: SummarizerConfig,
) -> tuple[list[tuple[str, int, ActionContext]], VideoStats]:
    """Produce one ActionContext per input frame, in frame order."""
    if not frames:
        return [], VideoStats(video_id, 0, 0, {c.value: 0 for c in Category})
    ordered = sorted(frames, key=lambda r: r.frame_id)
    for a, b in zip(ordered, ordered[1:]):
        if a.frame_id == b.frame_id:
            raise ValidationError(f"video {video_id!r}: duplicate frame id {a.frame_id}")
        if a.video_id != b.video_id:
            raise ValidationError("summarize_video: mixed video ids")

    processed = [r for r in ordered if r.frame_id % cfg.stride == 0]
    aggregators = {
        category: StreamAggregator(category, cfg.p_o.get(category), cfg.p_l.get(category))
        for category in Category
    }

    def push(record: FrameRecord) -> None:
        ctx = extract_frame_context(record, cfg)
        aggregators[Category.ACTION].push(
            ctx.frame_id, [ctx.action] if ctx.action is not None else []
        )
        aggregators[Category.HELD].push(ctx.frame_id, ctx.held)
        aggregators[Category.SALIENT].push(ctx.frame_id, ctx.salient)

    results: list[tuple[str, int, ActionContext]] = []
    pending = iter(processed)
    queued = next(pending, None)
    for record in ordered:
        t = record.frame_id
        while queued is not None and queued.frame_id < t:
            push(queued)
            queued = next(pending, None)

        selected = {}
        for category in Category:
            segments = eliminate_overlaps(aggregators[category].segments_at(t))
            selected[category] = context_for_frame(
                segments, t, cfg.context_lengths.get(category), _MODES[category]
            )
        action_terms = [term for term in selected[Category.ACTION] if isinstance(term, ActionPair)]
        held = [str(term) for term in selected[Category.HELD]]
        salient = [str(term) for term in selected[Category.SALIENT]]
        results.append((video_id, t, assemble(action_terms, held, salient)))

    while queued is not None:
        push(queued)
        queued = next(pending, None)

    horizon = ordered[-1].frame_id
    counts = {
        category.value: len(aggregators[category].segments_at(horizon))
        for category in Category
    }
    stats = VideoStats(
        video_id=video_id,
        n_frames=len(ordered),
        n_processed=len(processed),
        n_segments=counts,
    )
    return results, stats
