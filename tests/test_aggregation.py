import pytest
from hypothesis import given, settings, strategies as st

from context_forge.aggregation import (
    SelectionMode,
    StreamAggregator,
    aggregate,
    context_for_frame,
    eliminate_overlaps,
)
from context_forge.core import Category, Segment, ValidationError
from context_forge.synth import SplitMix64, oracle_aggregate


def seg(term, start, end, occ, active=False, category=Category.ACTION):
    return Segment(category, term, start, end, occ, active)


class TestAggregate:
    def test_immediate_acceptance(self):
        out = aggregate([(0, ["v"]), (3, ["v"]), (6, ["v"])], p_o=1, p_l=7)
        assert out == [seg("v", 0, 6, 3, active=True)]

    def test_active_depends_on_stream_end(self):
        stream = [(0, ["v"]), (3, ["v"]), (6, ["v"]), (20, [])]
        out = aggregate(stream, p_o=1, p_l=7)
        assert out == [seg("v", 0, 6, 3, active=False)]

    def test_long_gap_resets_count(self):
        assert aggregate([(0, ["v"]), (30, ["v"])], p_o=2, p_l=7) == []

    def test_acceptance_after_seven_occurrences(self):
        stream = [(f, ["v"]) for f in range(0, 19, 3)]
        out = aggregate(stream, p_o=7, p_l=7)
        assert out == [seg("v", 0, 18, 7, active=True)]

    def test_start_is_first_contributing_occurrence(self):
        # the early occurrence at 0 is lost to the gap; the accepted run starts at 20
        stream = [(0, ["v"])] + [(f, ["v"]) for f in range(20, 29, 3)]
        out = aggregate(stream, p_o=3, p_l=7)
        assert out == [seg("v", 20, 26, 3, active=True)]

    def test_termination_then_new_segment(self):
        stream = [(f, ["v"]) for f in (0, 3, 6, 30, 33, 36)]
        out = aggregate(stream, p_o=2, p_l=7)
        assert out == [seg("v", 0, 6, 3, active=False), seg("v", 30, 36, 3, active=True)]

    def test_below_acceptance_discarded(self):
        assert aggregate([(0, ["v"])], p_o=2, p_l=7) == []

    def test_non_monotone_frames_rejected(self):
        with pytest.raises(ValidationError, match="increasing"):
            aggregate([(3, ["v"]), (3, ["v"])], p_o=1, p_l=7)
        with pytest.raises(ValidationError, match="increasing"):
            aggregate([(3, ["v"]), (1, ["v"])], p_o=1, p_l=7)

    def test_multiple_terms_independent(self):
        stream = [(0, ["a", "b"]), (3, ["a"]), (6, ["a", "b"])]
        out = aggregate(stream, p_o=1, p_l=7, category=Category.HELD)
        assert [s.term for s in out] == ["a", "b"]
        assert out[0].occurrences == 3
        assert out[1].occurrences == 2

    def test_empty_stream(self):
        assert aggregate([], p_o=1, p_l=7) == []

    def test_duplicate_terms_in_frame_count_once(self):
        out = aggregate([(0, ["v", "v"])], p_o=1, p_l=7)
        assert out[0].occurrences == 1


class TestSegmentInvariants:
    def _recovered_gaps_ok(self, stream, segments, p_l):
        by_frame = {f: set(terms) for f, terms in stream}
        for s in segments:
            occs = [
                f
                for f in sorted(by_frame)
                if s.start_frame <= f <= s.end_frame and s.term in by_frame[f]
            ]
            assert occs[0] == s.start_frame and occs[-1] == s.end_frame
            assert len(occs) == s.occurrences
            assert all(b - a <= p_l for a, b in zip(occs, occs[1:]))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_occurrences_and_gaps(self, seed):
        rng = SplitMix64(seed)
        stream = []
        for f in range(rng.randint(1, 120)):
            stream.append((f, [t for t in ("a", "b", "c") if rng.uniform() < 0.4]))
        p_o, p_l = rng.randint(1, 10), rng.randint(0, 9)
        segments = aggregate(stream, p_o, p_l, Category.SALIENT)
        assert all(s.occurrences >= p_o for s in segments)
        self._recovered_gaps_ok(stream, segments, p_l)


class TestDifferentialAgainstOracle:
    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle(self, seed):
        rng = SplitMix64(seed)
        n_frames = rng.randint(1, 200)
        n_terms = rng.randint(1, 5)
        terms = [f"t{i}" for i in range(n_terms)]
        stream = []
        frame = 0
        for _ in range(n_frames):
            frame += rng.randint(1, 4)
            stream.append((frame, [t for t in terms if rng.uniform() < 0.35]))
        p_o = rng.choice([1, 2, 3, 7, 10])
        p_l = rng.choice([0, 3, 7, 12])
        assert aggregate(stream, p_o, p_l, Category.HELD) == oracle_aggregate(
            stream, p_o, p_l, Category.HELD
        )

    def test_determinism(self):
        stream = [(f, ["a"] if f % 2 else ["a", "b"]) for f in range(0, 60, 3)]
        first = aggregate(stream, 2, 7)
        assert first == aggregate(stream, 2, 7)


class TestStreamAggregator:
    def test_snapshot_activity_tracks_observation_frame(self):
        agg = StreamAggregator(Category.ACTION, p_o=1, p_l=7)
        agg.push(0, ["v"])
        agg.push(3, ["v"])
        assert [s.active for s in agg.segments_at(6)] == [True]
        assert [s.active for s in agg.segments_at(30)] == [False]

    def test_category_must_be_a_category(self):
        # aggregate's arguments in the wrong order: the category check comes before the
        # p_o/p_l rules, whose messages name the category
        with pytest.raises(ValidationError, match=r"^category must be a Category, got 7$"):
            aggregate([(0, ["v"])], Category.HELD, 2, 7)

    def test_snapshot_before_pushed_frame_rejected(self):
        agg = StreamAggregator(Category.ACTION, p_o=1, p_l=7)
        agg.push(10, ["v"])
        with pytest.raises(ValidationError):
            agg.segments_at(5)
        with pytest.raises(ValidationError):
            agg.tail_at(5)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_settled_and_tail_partition_segments_at(self, seed):
        rng = SplitMix64(seed)
        terms = [f"t{i}" for i in range(rng.randint(1, 5))]
        p_o = rng.choice([1, 2, 3, 7])
        p_l = rng.choice([0, 3, 7, 12])
        agg = StreamAggregator(Category.HELD, p_o, p_l)
        stream = []
        taken: list[Segment] = []
        frame = 0
        for _ in range(rng.randint(1, 150)):
            frame += rng.randint(1, 4)
            stream.append((frame, [t for t in terms if rng.uniform() < 0.35]))
            agg.push(*stream[-1])
            settled = agg.take_settled()
            assert not any(s.active for s in settled)
            taken += settled
            t = frame + rng.randint(0, 10)
            tail = agg.tail_at(t)
            snapshot = agg.segments_at(t)
            by_start = sorted(taken + tail, key=lambda s: (s.start_frame, s.end_frame, s.term))
            assert by_start == snapshot
            if taken and tail:
                assert max(s.end_frame for s in taken) < min(s.start_frame for s in tail)
            if rng.uniform() < 0.1:
                # an empty frame at t makes t the oracle's observation horizon
                observed = stream + [(t, [])] if t > frame else stream
                assert snapshot == oracle_aggregate(observed, p_o, p_l, Category.HELD)

    def test_run_past_lapse_retires_without_reappearing(self):
        # "x" is accepted and "z" stays pending; neither reappears, so
        # neither may pin the frontier and hold x's segment back.
        agg = StreamAggregator(Category.SALIENT, p_o=2, p_l=3)
        agg.push(0, ["x"])
        agg.push(1, ["x", "z"])
        agg.push(2, ["x"])
        for f in range(4, 8):
            agg.push(f, ["y"])
        assert agg.take_settled() == [seg("x", 0, 2, 3, category=Category.SALIENT)]
        assert agg.take_settled() == []
        assert [s.term for s in agg.tail_at(7)] == ["y"]

    def test_refreshed_run_does_not_shield_a_stale_one(self):
        # "a" opens before "b" but is seen again after it, so b's lapse
        # passes first: b must be retired at frame 4, not extended.
        agg = StreamAggregator(Category.HELD, p_o=1, p_l=2)
        agg.push(0, ["a"])
        agg.push(1, ["b"])
        agg.push(2, ["a"])
        agg.push(4, ["b"])
        assert [(s.term, s.start_frame, s.end_frame) for s in agg.segments_at(4)] == [
            ("a", 0, 2),
            ("b", 1, 1),
            ("b", 4, 4),
        ]

    def test_push_reports_whether_an_accepted_run_changed(self):
        # False: no accepted run changed; a term: only that accepted run was
        # extended; True: any other accepted change
        agg = StreamAggregator(Category.HELD, p_o=2, p_l=1)
        assert agg.push(0, ["x"]) is False  # pending run opened
        assert agg.push(1, ["x", "y"]) is True  # x accepted
        assert agg.push(2, ["x"]) == "x"  # accepted run extended
        assert agg.push(3, ["x", "z"]) == "x"  # and a pending run opened, pending y retired
        assert agg.push(4, ["x", "z"]) is True  # x extended and z accepted
        assert agg.push(5, ["x", "z"]) is True  # two accepted runs extended
        assert agg.push(6, ["y"]) is False  # pending run opened
        assert agg.push(8, []) is False  # only retirements
        assert agg.segments_at(8) == [
            seg("x", 0, 5, 6, category=Category.HELD),
            seg("z", 3, 5, 3, category=Category.HELD),
        ]
        assert StreamAggregator(Category.ACTION, p_o=1, p_l=0).push(0, ["v"]) is True  # accepted at once

    def test_chained_overlaps_never_settle(self):
        agg = StreamAggregator(Category.HELD, p_o=1, p_l=2)
        for f in range(0, 300):
            # runs of 40 frames, a new one starting every 30: each overlaps the next
            agg.push(f, [f"h{k % 2}" for k in range(f // 30 + 1) if f - 30 * k < 40])
            assert agg.take_settled() == []
        agg.push(400, [])
        assert len(agg.take_settled()) == 10


class TestEliminateOverlaps:
    def test_fewer_occurrences_removed(self):
        a, b = seg("a", 0, 10, 5), seg("b", 5, 15, 3)
        assert eliminate_overlaps([a, b]) == [a]

    def test_disjoint_kept(self):
        a, b = seg("a", 0, 10, 5), seg("b", 20, 30, 3)
        assert eliminate_overlaps([a, b]) == [a, b]

    def test_tie_removes_later_start(self):
        a, b = seg("a", 0, 10, 4), seg("b", 5, 15, 4)
        assert eliminate_overlaps([a, b]) == [a]
        assert eliminate_overlaps([b, a]) == [a]

    def test_tie_on_start_removes_later_end(self):
        a, b = seg("a", 0, 3, 4), seg("b", 0, 5, 4)
        assert eliminate_overlaps([b, a]) == [a]
        # the same tie reached through a stream: held a at 0-3, b at 0, 1, 2 and 5
        stream = [(f, [t for t, seen in (("a", (0, 1, 2, 3)), ("b", (0, 1, 2, 5))) if f in seen]) for f in range(6)]
        kept = eliminate_overlaps(aggregate(stream, p_o=2, p_l=7, category=Category.HELD))
        assert context_for_frame(kept, 6, 2, SelectionMode.CURRENT_AND_PAST) == ["a"]

    def test_same_term_overlap_survives(self):
        a, b = seg("a", 0, 10, 4), seg("a", 5, 15, 4)
        assert eliminate_overlaps([a, b]) == [a, b]

    def test_mixed_categories_rejected(self):
        a = seg("a", 0, 10, 4)
        b = seg("b", 5, 15, 4, category=Category.HELD)
        with pytest.raises(ValidationError):
            eliminate_overlaps([a, b])

    def test_chain_elimination_is_greedy_by_occurrences(self):
        big = seg("big", 0, 20, 9)
        mid = seg("mid", 18, 40, 5)
        low = seg("low", 30, 50, 3)
        # mid dies to big, low survives because mid is gone
        assert eliminate_overlaps([low, mid, big]) == [big, low]

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_output_pairwise_non_overlapping(self, seed):
        rng = SplitMix64(seed)
        segments = []
        for i in range(rng.randint(1, 12)):
            start = rng.randint(0, 80)
            segments.append(
                seg(f"t{rng.randint(0, 3)}", start, start + rng.randint(0, 25), rng.randint(1, 9))
            )
        kept = eliminate_overlaps(segments)
        for i, a in enumerate(kept):
            for b in kept[i + 1:]:
                assert a.term == b.term or not a.overlaps(b)


class TestContextForFrame:
    def test_past_then_current_ordering(self):
        segments = [
            seg("p1", 0, 10, 3),
            seg("p2", 12, 20, 3),
            seg("cur", 25, 28, 3, active=True),
        ]
        out = context_for_frame(segments, 30, 3, SelectionMode.CURRENT_AND_PAST)
        assert out == ["p1", "p2", "cur"]

    def test_without_current_takes_length_minus_one_past(self):
        segments = [seg("p1", 0, 10, 3), seg("p2", 12, 20, 3)]
        assert context_for_frame(segments, 30, 3, SelectionMode.CURRENT_AND_PAST) == ["p1", "p2"]
        assert context_for_frame(segments, 30, 2, SelectionMode.CURRENT_AND_PAST) == ["p2"]

    def test_salient_mode_ranks_by_occurrences(self):
        segments = [seg(f"s{i}", 0, 30, 5 + i, active=True) for i in range(4)]
        out = context_for_frame(segments, 30, 3, SelectionMode.CURRENT_ONLY)
        # oracle: exhaustive sort by occurrence count, descending
        expected = [
            s.term
            for s in sorted(segments, key=lambda x: -x.occurrences)[:3]
        ]
        assert out == expected

    def test_salient_occurrence_tie_ranks_earlier_start_first(self):
        # equal counts: start decides, and the term text, which would rank "a" first, does not
        segments = [seg("a", 9, 30, 5, active=True), seg("b", 0, 30, 5, active=True), seg("c", 4, 30, 5, active=True)]
        assert context_for_frame(segments, 30, 2, SelectionMode.CURRENT_ONLY) == ["b", "c"]

    def test_future_segments_ignored(self):
        segments = [seg("future", 40, 50, 9), seg("cur", 0, 30, 2, active=True)]
        assert context_for_frame(segments, 30, 3, SelectionMode.CURRENT_AND_PAST) == ["cur"]
        assert context_for_frame(segments, 30, 3, SelectionMode.CURRENT_ONLY) == ["cur"]

    def test_zero_length(self):
        assert context_for_frame([seg("a", 0, 5, 2, True)], 6, 0, SelectionMode.CURRENT_ONLY) == []

    def test_segment_ending_at_t_is_current(self):
        segments = [seg("a", 0, 10, 3)]
        assert context_for_frame(segments, 10, 3, SelectionMode.CURRENT_AND_PAST) == ["a"]
        assert context_for_frame(segments, 11, 3, SelectionMode.CURRENT_AND_PAST) == ["a"]
