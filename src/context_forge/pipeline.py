"""Per-video summarization pipeline: frame records -> action contexts.

Every input frame is a prediction frame. Frames whose index is a
multiple of the stride are *processed*: extracted once and pushed into
the aggregators. One pass over the frames in order selects frame t's
context and only then, if t is processed, pushes t. So the context for
t sees every processed frame strictly before t and none at or after it,
and it may reach arbitrarily far back through segments carried in
aggregator state.

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
from operator import attrgetter

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
from .extraction import FrameContext, extract_frame_context

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
    accepted run, or when ``t`` reaches the *flip frame*. Because frame
    ``t`` is pushed only after it is selected, every segment selection
    sees has started and ended before ``t``. Until the next push, such a
    segment changes activity only by lapsing, at ``end_frame + p_l + 1``
    if it is active, so the flip frame is the earliest lapse among the
    active segments. Nothing else can change the selection. Overlap
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

    def push(self, ctx: FrameContext) -> None:
        if self.aggregator.push(ctx.frame_id, ctx.terms(self.aggregator.category)):
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
    lanes = [_Lane(category, cfg) for category in Category]
    results: list[tuple[str, int, ActionContext]] = []
    n_processed = 0
    previous = last_selected = None
    for record in sorted(frames, key=attrgetter("frame_id")):
        t = record.frame_id
        if previous is not None and previous.frame_id == t:
            raise ValidationError(f"video {video_id!r}: duplicate frame id {t}")
        if previous is not None and previous.video_id != record.video_id:
            raise ValidationError("summarize_video: mixed video ids")
        previous = record
        selected = [lane.select(t) for lane in lanes]
        if selected != last_selected:
            last_selected = selected
            context = assemble(*selected)
        results.append((video_id, t, context))
        if t % cfg.stride == 0:
            frame_ctx = extract_frame_context(record, cfg)
            for lane in lanes:
                lane.push(frame_ctx)
            n_processed += 1

    counts = {lane.aggregator.category.value: len(lane.aggregator.segments_at(t)) for lane in lanes}
    return results, VideoStats(video_id, len(results), n_processed, counts)
