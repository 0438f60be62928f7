"""Per-video summarization pipeline: frame records -> action contexts.

Every input frame is a prediction frame. Frames whose index is a
multiple of the stride are processed by the extractors exactly once and
their contexts cached; aggregation advances causally, so the context
for frame t sees only processed frames strictly before t but may reach
arbitrarily far back through segments carried in aggregator state.

Overlaps are resolved incrementally, so cost grows linearly with video
length. Each overlap component is resolved once, when it settles (see
``aggregation``). A settled segment is never active, and it ends before
every unsettled one, so selection needs only the last ``length - 1``
settled kept segments, which a bounded buffer holds. The unsettled tail
is re-resolved at every frame.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .aggregation import (
    SelectionMode,
    StreamAggregator,
    context_for_frame,
    eliminate_overlaps,
    recency_order,
)
from .assembly import assemble
from .core import (
    ActionContext,
    ActionPair,
    Category,
    FrameRecord,
    Segment,
    SummarizerConfig,
    Term,
    ValidationError,
)
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


class _Lane:
    """One category's aggregator, plus the last kept settled segments
    that selection can still reach."""

    def __init__(self, category: Category, cfg: SummarizerConfig):
        self.aggregator = StreamAggregator(category, cfg.p_o.get(category), cfg.p_l.get(category))
        self.length = cfg.context_lengths.get(category)
        self.mode = _MODES[category]
        self.settled_kept: deque[Segment] = deque(maxlen=max(0, self.length - 1))

    def select(self, t: int) -> list[Term]:
        settled = self.aggregator.take_settled()
        if settled:
            self.settled_kept.extend(sorted(eliminate_overlaps(settled), key=recency_order))
        segments = [*self.settled_kept, *eliminate_overlaps(self.aggregator.tail_at(t))]
        return context_for_frame(segments, t, self.length, self.mode)


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
    action, held, salient = lanes = [_Lane(category, cfg) for category in Category]

    def push(record: FrameRecord) -> None:
        ctx = extract_frame_context(record, cfg)
        action.aggregator.push(ctx.frame_id, [ctx.action] if ctx.action is not None else [])
        held.aggregator.push(ctx.frame_id, ctx.held)
        salient.aggregator.push(ctx.frame_id, ctx.salient)

    results: list[tuple[str, int, ActionContext]] = []
    pending = iter(processed)
    queued = next(pending, None)
    for record in ordered:
        t = record.frame_id
        while queued is not None and queued.frame_id < t:
            push(queued)
            queued = next(pending, None)
        context = assemble(
            [term for term in action.select(t) if isinstance(term, ActionPair)],
            [str(term) for term in held.select(t)],
            [str(term) for term in salient.select(t)],
        )
        results.append((video_id, t, context))

    while queued is not None:
        push(queued)
        queued = next(pending, None)

    horizon = ordered[-1].frame_id
    counts = {
        lane.aggregator.category.value: len(lane.aggregator.segments_at(horizon))
        for lane in lanes
    }
    stats = VideoStats(
        video_id=video_id,
        n_frames=len(ordered),
        n_processed=len(processed),
        n_segments=counts,
    )
    return results, stats
