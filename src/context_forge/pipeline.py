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
is re-resolved whenever a selection is recomputed.

Selection is event-driven. A category's terms at frame t depend only on
its accepted segments as of t and on t itself, and they change at
action boundaries, not at every frame. So each lane keeps its last
selection and recomputes it only when a push made it *dirty* or t has
reached its *flip frame*, where an active segment it selected from
lapses (see ``_Lane``). When all three lanes select the same terms as
at the previous frame, that frame's ``ActionContext`` is reused and
``assemble`` is skipped. Outputs are the same as selecting afresh at
every frame, as ``synth.oracle_summarize_video`` does.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable

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
    """One category's aggregator, the last kept settled segments that
    selection can still reach, and the last selection.

    The selection is recomputed only when the lane is *dirty*, meaning a
    push since the last selection created, extended or accepted an
    accepted run, or when ``t`` reaches the *flip frame*. Selection at
    ``t`` runs once every processed frame before ``t``, and none at or
    after it, has been pushed, so every segment it sees has started and
    ended before ``t``. Until the next push, such a segment changes
    activity only by lapsing, at ``end_frame + p_l + 1`` if it is
    active, so the flip frame is the earliest lapse among the active
    segments. Nothing else can change the selection. Overlap
    elimination does not depend on ``t``. A push that touches only
    pending runs leaves the accepted segments as they were, because
    pending runs are not segments. A run is retired only once its lapse
    has passed, so it was already inactive, and its closed segment
    equals its open one. Components that settle in between wait in the
    aggregator, and ``take_settled`` hands them out exactly at the next
    recomputation.
    """

    def __init__(self, category: Category, cfg: SummarizerConfig):
        self.aggregator = StreamAggregator(category, cfg.p_o.get(category), cfg.p_l.get(category))
        self.length = cfg.context_lengths.get(category)
        self.mode = _MODES[category]
        self.settled_kept: deque[Segment] = deque(maxlen=max(0, self.length - 1))
        self.terms: list[Term] = []
        self.dirty = True
        self.flip = -math.inf

    def push(self, frame_id: int, terms: Iterable[Term]) -> None:
        if self.aggregator.push(frame_id, terms):
            self.dirty = True

    def select(self, t: int) -> list[Term]:
        if not self.dirty and t < self.flip:
            return self.terms
        settled = self.aggregator.take_settled()
        if settled:
            self.settled_kept.extend(sorted(eliminate_overlaps(settled), key=recency_order))
        segments = [*self.settled_kept, *eliminate_overlaps(self.aggregator.tail_at(t))]
        self.terms = context_for_frame(segments, t, self.length, self.mode)
        active_ends = [seg.end_frame for seg in segments if seg.active]
        self.flip = min(active_ends, default=math.inf) + self.aggregator.p_l + 1
        self.dirty = False
        return self.terms


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
    lanes = [_Lane(category, cfg) for category in Category]

    def push(record: FrameRecord) -> None:
        ctx = extract_frame_context(record, cfg)
        for lane in lanes:
            lane.push(ctx.frame_id, ctx.terms(lane.aggregator.category))

    results: list[tuple[str, int, ActionContext]] = []
    pending = iter(processed)
    queued = next(pending, None)
    last_selected = None
    for record in ordered:
        t = record.frame_id
        while queued is not None and queued.frame_id < t:
            push(queued)
            queued = next(pending, None)
        selected = [lane.select(t) for lane in lanes]
        if selected != last_selected:
            last_selected = selected
            context = assemble(*selected)
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
