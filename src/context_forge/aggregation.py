"""Cross-frame aggregation: per-frame term streams to accepted segments.

A term accumulates a run of occurrences, each at most ``p_l`` frames
after the previous; the run is accepted as a segment once it reaches
``p_o`` occurrences, starting at the first occurrence that contributed.
An accepted segment terminates once its term has been absent for more
than ``p_l`` frames. Gaps are measured in raw frame indices, so a frame
stride upstream directly tightens the tolerated number of missed
samples. Runs that never reach ``p_o`` are discarded; segments still
open when observation ends are reported with ``active=True``.

``StreamAggregator`` is the single-pass engine; ``aggregate`` is the
batch wrapper over a whole stream. Selection for a prediction frame
happens on the aggregated segment list via ``eliminate_overlaps`` and
``context_for_frame``.

Overlap elimination never crosses an overlap component (a maximal union
of overlapping segments), so a component's kept set is final once no
present or future segment can join it. Every segment still to come
starts at or after the *frontier*: the earliest start of a live run,
accepted or not (a pending run can still be accepted with its start in
the past). A run is retired as soon as no later push can extend it, so
a term that never reappears does not pin the frontier. Components that
end before the frontier are *settled*. Closed segments are kept in one
list sorted by start, and settled components form a growing prefix of
it: ``StreamAggregator.take_settled`` hands each segment of that prefix
out once, and ``tail_at`` reports the rest of the list plus the open
runs.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .core import COUNT, POSITIVE, Category, Segment, Term, ValidationError, term_text


@dataclass(slots=True)
class _RunState:
    start: int
    last_seen: int
    occurrences: int


def _segment_order(seg: Segment) -> tuple:
    return (seg.start_frame, seg.end_frame, term_text(seg.term))


def recency_order(seg: Segment) -> tuple:
    """Sort key putting the most recently ended segment last."""
    return (seg.end_frame, seg.start_frame, term_text(seg.term))


class StreamAggregator:
    """Incremental aggregator for one (video, category) stream.

    Push frames in strictly increasing order; ``segments_at(t)`` then
    reports every accepted segment as of observation time ``t`` with its
    activity decided against ``t``. State is never recomputed from raw
    frames, so selection for later prediction frames keeps seeing
    segments that started arbitrarily far in the past.

    For incremental overlap resolution the same segments are split in
    two: ``take_settled()`` returns the closed segments whose overlap
    component has settled since its last call, and ``tail_at(t)`` the
    rest. At any ``t``, everything taken so far plus ``tail_at(t)`` is
    ``segments_at(t)``. Settled segments are closed (never active), and
    each ends before every tail segment starts.
    """

    def __init__(self, category: Category, p_o: int, p_l: int):
        self.category = category
        self.p_o = POSITIVE(p_o, f"p_o_{category.value}")
        self.p_l = COUNT(p_l, f"p_l_{category.value}")
        self._closed: list[Segment] = []  # in _segment_order
        self._taken = 0  # _closed[:_taken] is what take_settled has handed out
        self._runs: dict[Term, _RunState] = {}  # live runs, ordered by last_seen
        self._last_frame: int | None = None

    def push(self, frame_id: int, terms: Iterable[Term]) -> bool:
        """Observe one frame's terms; return whether an accepted run was
        created, extended or newly accepted by it.

        Only such a push changes ``segments_at`` for later frames: pending
        runs are invisible there, and a run retired here was already
        inactive at every frame after ``frame_id``.
        """
        if self._last_frame is not None and frame_id <= self._last_frame:
            raise ValidationError(
                f"frame ids must be strictly increasing: {frame_id} after {self._last_frame}"
            )
        self._last_frame = frame_id
        runs = self._runs
        stale = []
        for term, run in runs.items():
            if frame_id - run.last_seen <= self.p_l:
                break
            stale.append(term)
        for term in stale:
            self._retire(term)
        changed = False
        for term in set(terms):
            run = runs.pop(term, None)
            if run is None:
                run = _RunState(start=frame_id, last_seen=frame_id, occurrences=1)
            else:
                run.occurrences += 1
                run.last_seen = frame_id
            # re-inserted, so runs stay ordered by last_seen and the
            # stale-run scan above stops at the first run inside its lapse
            runs[term] = run
            changed = changed or run.occurrences >= self.p_o
        return changed

    def _retire(self, term: Term) -> None:
        run = self._runs.pop(term)
        if run.occurrences >= self.p_o:
            # a retiring run was live at every earlier take_settled (or began later), so
            # it starts at or after that call's frontier, after every segment handed out
            # then: insort never lands inside _closed[:_taken]
            bisect.insort(self._closed, self._segment(term, run, active=False), key=_segment_order)

    def _segment(self, term: Term, run: _RunState, active: bool) -> Segment:
        return Segment(self.category, term, run.start, run.last_seen, run.occurrences, active)

    def _check_observation(self, t: int) -> None:
        if self._last_frame is not None and t < self._last_frame:
            raise ValidationError(
                f"observation frame {t} precedes already-pushed frame {self._last_frame}"
            )

    def _open_segments(self, t: int) -> list[Segment]:
        return [
            self._segment(term, run, active=t - run.last_seen <= self.p_l)
            for term, run in self._runs.items()
            if run.occurrences >= self.p_o
        ]

    def segments_at(self, t: int) -> list[Segment]:
        """All accepted segments as of frame ``t`` (must not precede pushed frames)."""
        self._check_observation(t)
        out = self._closed + self._open_segments(t)
        out.sort(key=_segment_order)
        return out

    def take_settled(self) -> list[Segment]:
        """Closed segments whose overlap component has newly settled.

        A component settles once it ends before the frontier, the
        earliest start of a live run; with no live run, every closed
        component has settled. Each segment is returned by exactly one
        call.
        """
        closed, taken = self._closed, self._taken
        if taken == len(closed):
            return []
        frontier = min((run.start for run in self._runs.values()), default=math.inf)
        settled = taken
        reach = -math.inf
        for i in range(taken, len(closed)):
            reach = max(reach, closed[i].end_frame)
            if reach >= frontier:
                break
            if i + 1 == len(closed) or reach < closed[i + 1].start_frame:
                settled = i + 1
        self._taken = settled
        return closed[taken:settled]

    def tail_at(self, t: int) -> list[Segment]:
        """Accepted segments of unsettled components as of frame ``t``:
        closed segments not yet taken plus open runs, activity decided at ``t``."""
        self._check_observation(t)
        return self._closed[self._taken:] + self._open_segments(t)


def aggregate(
    stream: Sequence[tuple[int, Iterable[Term]]],
    p_o: int,
    p_l: int,
    category: Category = Category.ACTION,
) -> list[Segment]:
    """Aggregate a complete per-frame term stream into accepted segments.

    The last stream frame (with or without terms) is the observation
    horizon deciding which segments are still active.
    """
    agg = StreamAggregator(category, p_o, p_l)
    for frame_id, terms in stream:
        agg.push(frame_id, terms)
    return agg.segments_at(stream[-1][0]) if stream else []


def eliminate_overlaps(segments: Sequence[Segment]) -> list[Segment]:
    """Resolve overlaps between segments of different terms.

    Processing in descending occurrence order (earlier start wins ties),
    a segment is dropped when it overlaps an already-kept segment of a
    different term. Same-term segments never eliminate each other.
    """
    categories = {seg.category for seg in segments}
    if len(categories) > 1:
        raise ValidationError(f"eliminate_overlaps: mixed categories {categories}")
    order = sorted(
        segments,
        key=lambda s: (-s.occurrences, s.start_frame, s.end_frame, term_text(s.term)),
    )
    kept: list[Segment] = []
    for seg in order:
        if any(other.term != seg.term and other.overlaps(seg) for other in kept):
            continue
        kept.append(seg)
    kept.sort(key=_segment_order)
    return kept


class SelectionMode(Enum):
    CURRENT_AND_PAST = "current_and_past"
    CURRENT_ONLY = "current_only"


def _is_active_at(seg: Segment, t: int) -> bool:
    if seg.start_frame > t:
        return False
    return t <= seg.end_frame or seg.active


def context_for_frame(
    segments: Sequence[Segment],
    t: int,
    length: int,
    mode: SelectionMode,
) -> list[Term]:
    """Select the terms forming one category's context at frame ``t``.

    CURRENT_AND_PAST returns at most one segment active at ``t`` plus
    the ``length - 1`` most recently terminated ones, oldest first.
    CURRENT_ONLY returns the segments active at ``t`` capped at
    ``length``, most occurrences first. Segments starting after ``t``
    never contribute.
    """
    if length <= 0:
        return []
    active = [seg for seg in segments if _is_active_at(seg, t)]
    if mode is SelectionMode.CURRENT_ONLY:
        active.sort(key=lambda s: (-s.occurrences, s.start_frame, term_text(s.term)))
        return [seg.term for seg in active[:length]]

    current = max(active, key=recency_order) if active else None
    past = [
        seg for seg in segments if seg.end_frame < t and not _is_active_at(seg, t)
    ]
    past.sort(key=recency_order)
    chosen = past[len(past) - (length - 1):]
    terms = [seg.term for seg in chosen]
    if current is not None:
        terms.append(current.term)
    return terms
