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
selection and recomputes it only when t has reached its *flip frame*:
the frame where an active segment it selected from lapses, or at once
after a push that changed its accepted runs. A push that only extends
the run of the lane's lead (its current or first-ranked segment) keeps
the selection and moves only the flip frame (see ``_Lane``). When all
three lanes select the same terms as at the previous frame, that frame's
``ActionContext`` is reused and ``assemble`` is skipped. Outputs are the
same as selecting afresh at every frame, as
``synth.oracle_summarize_video`` does.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
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
    clipped,
    shown,
)
from .extraction import FrameContext, extract_frame_context

_MODES = {
    Category.ACTION: SelectionMode.CURRENT_AND_PAST,
    Category.HELD: SelectionMode.CURRENT_AND_PAST,
    Category.SALIENT: SelectionMode.CURRENT_ONLY,
}


@dataclass(slots=True)
class VideoStats:
    video_id: str
    n_frames: int
    n_processed: int
    n_segments: dict[str, int]


class _Lane:
    """One category's aggregator, the last kept settled segments that
    selection can still reach, and the last selection.

    The selection is recomputed exactly when ``t`` reaches the *flip
    frame*. Because frame ``t`` is pushed only after it is selected, every
    segment selection sees has started and ended before ``t``. Until the
    next push, such a segment changes activity only by lapsing, at
    ``end_frame + p_l + 1`` if it is active, so the flip frame is the
    earliest lapse among the active segments. Nothing else can change the
    selection. Overlap elimination does not depend on ``t``. A push that
    touches only pending runs leaves the accepted segments as they were,
    because pending runs are not segments. A run is retired only once its
    lapse has passed, so it was already inactive, and its closed segment
    equals its open one. Components that settle in between wait in the
    aggregator, and ``take_settled`` hands them out exactly at the next
    recomputation.

    A push that changes an accepted run sets the flip frame to ``-inf``,
    except the one push that cannot change the selection: it extends
    exactly one accepted run R, creates or newly accepts none, R's segment
    was the *lead* at the last recomputation (the current segment of
    CURRENT_AND_PAST, the first-ranked one of CURRENT_ONLY), and no
    segment selected from then starts after R's previous last occurrence.
    The proof:

    - R stays active, and its end, the push frame, becomes the latest of
      all segments, because every other ends before the push.
    - Overlap elimination keeps the same set. R was kept. Its higher count
      only moves it earlier in the order, and its longer extent reaches
      only frames after its previous end, where no kept segment of another
      term starts (settled ones end before the tail starts). So R meets no
      new kept segment, and every other segment meets the same kept
      segments before it as it did.
    - R stays current (latest end) or first-ranked (more occurrences, the
      others unchanged), and every other segment keeps its activity until
      its own lapse.

    So the lane keeps its terms, and its flip frame becomes the earlier of
    the other active segments' lapse (stored at the recomputation) and R's
    new lapse. A later lone extension of R satisfies the rule again.
    """

    def __init__(self, category: Category, cfg: SummarizerConfig):
        self.aggregator = StreamAggregator(category, cfg.p_o.get(category), cfg.p_l.get(category))
        self.length = cfg.context_lengths.get(category)
        self.mode = _MODES[category]
        self.settled_kept: deque[Segment] = deque(maxlen=max(0, self.length - 1))
        self.terms: list[Term] = []
        self.flip = -math.inf
        self.lead: Term | None = None  # the lead's term while a lone extension of its run keeps the terms
        self.others_lapse = math.inf  # the earliest lapse among the other active segments

    def push(self, ctx: FrameContext) -> None:
        change = self.aggregator.push(ctx.frame_id, ctx.terms(self.aggregator.category))
        if change is False:
            return
        if change == self.lead:
            self.flip = min(self.others_lapse, ctx.frame_id + self.aggregator.p_l + 1)
        else:
            self.flip = -math.inf

    def select(self, t: int) -> list[Term]:
        if t < self.flip:
            return self.terms
        settled = self.aggregator.take_settled()
        if settled:
            self.settled_kept.extend(sorted(eliminate_overlaps(settled), key=recency_order))
        tail = eliminate_overlaps(self.aggregator.tail_at(t))
        self.terms = terms = context_for_frame([*self.settled_kept, *tail], t, self.length, self.mode)
        active = [seg for seg in tail if seg.active]  # a settled segment is never active
        lead = None
        if active and terms:
            lead_term = terms[0] if self.mode is SelectionMode.CURRENT_ONLY else terms[-1]
            lead = next(seg for seg in active if seg.term == lead_term)  # one open run per term
        lapse = self.aggregator.p_l + 1
        self.others_lapse = min((seg.end_frame for seg in active if seg is not lead), default=math.inf) + lapse
        self.flip, self.lead = self.others_lapse, None
        if lead is not None:
            self.flip = min(self.flip, lead.end_frame + lapse)
            if all(seg.start_frame <= lead.end_frame for seg in tail):
                self.lead = lead.term
        return terms


def summarize_video(
    video_id: str,
    frames: Iterable[FrameRecord],
    cfg: SummarizerConfig,
) -> tuple[list[tuple[str, int, ActionContext]], VideoStats]:
    """Produce one ActionContext per input frame, in frame order.

    ``frames`` is read once, in any order. Extraction needs only a record
    and whether its frame id is on the stride, so each record is extracted
    as it is read and then dropped: the video is held as one
    ``(frame_id, FrameContext or None)`` per frame, sorted before selection.
    Every record must be of video ``video_id``.
    """
    extracted: list[tuple[int, FrameContext | None]] = []
    for record in frames:
        if record.video_id != video_id:
            raise ValidationError("summarize_video: mixed video ids")
        t = record.frame_id
        extracted.append((t, extract_frame_context(record, cfg) if t % cfg.stride == 0 else None))
    if not extracted:
        return [], VideoStats(video_id, 0, 0, {c.value: 0 for c in Category})
    extracted.sort(key=itemgetter(0))
    lanes = [_Lane(category, cfg) for category in Category]
    results: list[tuple[str, int, ActionContext]] = []
    n_processed = 0
    previous = last_selected = None
    for t, frame_ctx in extracted:
        if previous == t:
            raise ValidationError(f"video {clipped(repr(video_id))}: duplicate frame id {shown(t)}")
        previous = t
        selected = [lane.select(t) for lane in lanes]
        if selected != last_selected:
            last_selected = selected
            context = assemble(*selected)
        results.append((video_id, t, context))
        if frame_ctx is not None:
            for lane in lanes:
                lane.push(frame_ctx)
            n_processed += 1

    counts = {lane.aggregator.category.value: len(lane.aggregator.segments_at(t)) for lane in lanes}
    return results, VideoStats(video_id, len(results), n_processed, counts)
