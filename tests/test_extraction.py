from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from context_forge.core import (
    ActionPair,
    BoundingBox,
    Category,
    FrameRecord,
    PosTag,
    SummarizerConfig,
    TaggedToken,
    ValidationError,
)
from context_forge.extraction import (
    FrameContext,
    extract_candidate_pairs,
    extract_frame_context,
    match_held_objects,
    select_frame_action,
    select_salient,
)


def tok(surface, lemma, pos):
    return TaggedToken(surface, lemma, PosTag[pos])


EATING_APPLE = [
    tok("a", "a", "OTHER"),
    tok("person", "person", "NOUN"),
    tok("eating", "eat", "VERB"),
    tok("a", "a", "OTHER"),
    tok("red", "red", "OTHER"),
    tok("apple", "apple", "NOUN"),
]

EATING_GATHERING = [
    tok("a", "a", "OTHER"),
    tok("person", "person", "NOUN"),
    tok("eating", "eat", "VERB"),
    tok("while", "while", "OTHER"),
    tok("at", "at", "OTHER"),
    tok("a", "a", "OTHER"),
    tok("gathering", "gathering", "NOUN"),
]


class TestExtractCandidatePairs:
    def test_eat_apple_at_default_cutoff(self):
        assert extract_candidate_pairs(EATING_APPLE, 4) == [ActionPair("eat", "apple")]

    def test_spurious_eat_gathering_when_in_vocabulary(self):
        vocab = frozenset({"gathering", "apple"})
        assert extract_candidate_pairs(EATING_GATHERING, 4, vocab) == [
            ActionPair("eat", "gathering")
        ]

    def test_cutoff_one_excludes_two_intervening_tokens(self):
        assert extract_candidate_pairs(EATING_APPLE, 1) == []

    def test_cutoff_boundaries(self):
        # two tokens between eat and apple; three between eat and gathering
        assert extract_candidate_pairs(EATING_APPLE, 2) == [ActionPair("eat", "apple")]
        assert extract_candidate_pairs(EATING_GATHERING, 2) == []
        assert extract_candidate_pairs(EATING_GATHERING, 3) == [ActionPair("eat", "gathering")]

    def test_noun_before_verb_ignored(self):
        tokens = [tok("apple", "apple", "NOUN"), tok("eat", "eat", "VERB")]
        assert extract_candidate_pairs(tokens, 4) == []

    def test_vocabulary_filters_nouns(self):
        vocab = frozenset({"apple"})
        assert extract_candidate_pairs(EATING_GATHERING, 4, vocab) == []

    def test_vocabulary_filters_verbs(self):
        tokens = [tok("Cutting", "Cut", "VERB"), tok("washing", "wash", "VERB"), tok("cup", "cup", "NOUN")]
        assert extract_candidate_pairs(tokens, 4, verb_vocab=frozenset({"cut"})) == [ActionPair("cut", "cup")]
        assert extract_candidate_pairs(tokens, 4, verb_vocab=frozenset({"zzz"})) == []
        assert len(extract_candidate_pairs(tokens, 4, verb_vocab=frozenset())) == 2

    def test_one_verb_pairs_with_multiple_nouns(self):
        tokens = [
            tok("wash", "wash", "VERB"),
            tok("cup", "cup", "NOUN"),
            tok("plate", "plate", "NOUN"),
        ]
        assert extract_candidate_pairs(tokens, 4) == [
            ActionPair("wash", "cup"),
            ActionPair("wash", "plate"),
        ]

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValidationError):
            extract_candidate_pairs(EATING_APPLE, -1)

    def test_empty_caption(self):
        assert extract_candidate_pairs([], 4) == []


_token = st.builds(
    tok,
    st.sampled_from(["a", "b", "c"]),
    st.sampled_from(["cut", "wood", "take", "cup", "hold", "apple"]),
    st.sampled_from(["VERB", "NOUN", "OTHER"]),
)


class TestCutoffMonotonicity:
    @given(tokens=st.lists(_token, max_size=12), d1=st.integers(0, 8), d2=st.integers(0, 8))
    @settings(max_examples=300)
    def test_candidates_grow_with_cutoff(self, tokens, d1, d2):
        lo, hi = sorted((d1, d2))
        small = Counter(extract_candidate_pairs(tokens, lo))
        large = Counter(extract_candidate_pairs(tokens, hi))
        assert all(large[pair] >= count for pair, count in small.items())

FEW_PAIRS = [ActionPair("cut", "wood"), ActionPair("hold", "wood"), ActionPair("cut", "apple")]


class TestSelectFrameAction:
    def test_majority(self):
        cw, hw = ActionPair("cut", "wood"), ActionPair("hold", "wood")
        assert select_frame_action([[cw], [cw], [hw]]) == cw

    def test_tie_goes_to_first_detected(self):
        cw, hw = ActionPair("cut", "wood"), ActionPair("hold", "wood")
        assert select_frame_action([[cw], [hw]]) == cw
        assert select_frame_action([[hw], [cw]]) == hw

    def test_empty(self):
        assert select_frame_action([[], [], []]) is None

    @given(st.lists(st.lists(st.sampled_from(FEW_PAIRS), max_size=4), max_size=5))
    def test_matches_brute_force(self, captions):
        # highest count, then the earliest first position over the flattened captions
        flat = [pair for caption in captions for pair in caption]
        expected = max(flat, key=lambda p: (flat.count(p), -flat.index(p)), default=None)
        assert select_frame_action(captions) == expected


class TestSelectSalient:
    def test_ordering(self):
        assert select_salient({"knife": 0.9, "cup": 0.8, "wall": 0.1}, 2) == ["knife", "cup"]

    def test_lexicographic_tie_break(self):
        assert select_salient({"knife": 0.5, "cup": 0.5}, 1) == ["cup"]

    def test_empty(self):
        assert select_salient({}, 5) == []

    def test_vocab_filter(self):
        scores = {"knife": 0.9, "wall": 0.8}
        assert select_salient(scores, 5, frozenset({"knife"})) == ["knife"]

    def test_negative_k_rejected(self):
        with pytest.raises(ValidationError):
            select_salient({"a": 0.5}, -1)

    @given(
        scores=st.dictionaries(
            st.sampled_from(["a", "b", "c", "d", "e"]),
            st.floats(-1.0, 1.0, allow_nan=False),
            max_size=5,
        ),
        k=st.integers(0, 6),
    )
    def test_size_and_monotone_scores(self, scores, k):
        out = select_salient(scores, k)
        assert len(out) <= k
        values = [scores[label] for label in out]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestMatchHeldObjects:
    def test_identical_box(self):
        box = BoundingBox(0, 0, 2, 2)
        assert match_held_objects([box], [("knife", box, 0.9)], 0.25) == {"knife"}

    def test_disjoint(self):
        active = BoundingBox(0, 0, 1, 1)
        det = ("knife", BoundingBox(5, 5, 6, 6), 0.9)
        assert match_held_objects([active], [det], 0.25) == frozenset()

    def test_highest_overlap_wins(self):
        active = BoundingBox(0, 0, 2, 2)
        dets = [("knife", BoundingBox(0, 0, 2, 2), 0.1), ("cup", BoundingBox(1, 1, 3, 3), 0.99)]
        # knife overlap 1.0 beats cup overlap 1/7 despite the lower score
        assert match_held_objects([active], dets, 0.25) == {"knife"}

    def test_threshold_is_strict(self):
        active = BoundingBox(0, 0, 2, 2)
        dets = [("knife", BoundingBox(0, 0, 2, 2), 0.9)]
        assert match_held_objects([active], dets, 1.0) == frozenset()

    def test_merge_table_applied(self):
        box = BoundingBox(0, 0, 2, 2)
        merged = match_held_objects(
            [box], [("pressure cooker", box, 0.9)], 0.25, {"pressure cooker": "machine"}
        )
        assert merged == {"machine"}

    def test_one_label_per_active_box(self):
        active = BoundingBox(0, 0, 2, 2)
        dets = [("knife", BoundingBox(0, 0, 2, 2), 0.5), ("cup", BoundingBox(0, 0, 2, 2), 0.9)]
        # equal overlap: higher detection score breaks the tie
        assert match_held_objects([active], dets, 0.25) == {"cup"}

    @given(order=st.permutations(range(4)))
    def test_detection_order_invariance(self, order):
        active = [BoundingBox(0, 0, 2, 2), BoundingBox(10, 10, 12, 12)]
        dets = [
            ("knife", BoundingBox(0, 0, 2, 2), 0.5),
            ("cup", BoundingBox(1, 1, 3, 3), 0.9),
            ("plate", BoundingBox(10, 10, 12, 12), 0.4),
            ("wall", BoundingBox(50, 50, 51, 51), 0.9),
        ]
        shuffled = [dets[i] for i in order]
        assert match_held_objects(active, shuffled, 0.25) == {"knife", "plate"}


class TestExtractFrameContext:
    def test_combines_all_signals(self):
        record = FrameRecord(
            video_id="v",
            frame_id=6,
            captions=(tuple(EATING_APPLE),),
            label_scores={"knife": 0.8, "cup": 0.4},
            active_boxes=(BoundingBox(0, 0, 2, 2),),
            detections=(("knife", BoundingBox(0, 0, 2, 2), 0.9),),
        )
        ctx = extract_frame_context(record, SummarizerConfig())
        assert ctx.frame_id == 6
        assert ctx.action == ActionPair("eat", "apple")
        assert ctx.held == {"knife"}
        assert ctx.salient == {"knife", "cup"}

    def test_sparse_record(self):
        ctx = extract_frame_context(FrameRecord(video_id="v", frame_id=0), SummarizerConfig())
        assert ctx.action is None
        assert ctx.held == frozenset()
        assert ctx.salient == frozenset()


class TestFrameContextTerms:
    def test_projection_per_category(self):
        ctx = FrameContext(
            frame_id=3,
            action=ActionPair("cut", "wood"),
            held=frozenset({"knife", "board"}),
            salient=frozenset({"wood", "apple", "bowl"}),
        )
        assert ctx.terms(Category.ACTION) == [ActionPair("cut", "wood")]
        assert ctx.terms(Category.HELD) == ["board", "knife"]
        assert ctx.terms(Category.SALIENT) == ["apple", "bowl", "wood"]

    def test_no_action(self):
        ctx = FrameContext(frame_id=0, action=None, held=frozenset({"cup"}), salient=frozenset())
        assert [ctx.terms(c) for c in Category] == [[], ["cup"], []]
