import itertools
import random
from collections import Counter

import pytest

from context_forge import pipeline
from context_forge.aggregation import StreamAggregator, eliminate_overlaps
from context_forge.core import (
    ActionPair,
    BoundingBox,
    FrameRecord,
    PosTag,
    SummarizerConfig,
    TaggedToken,
    ValidationError,
)
from context_forge.extraction import FrameContext
from context_forge.pipeline import summarize_video
from context_forge.synth import (
    SplitMix64,
    gen_scenario,
    gen_tie_stream,
    oracle_summarize_video,
    scenario_to_frame_records,
)


def action_record(video_id, frame_id, verb, noun):
    caption = (
        TaggedToken(verb, verb, PosTag.VERB),
        TaggedToken(noun, noun, PosTag.NOUN),
    )
    return FrameRecord(video_id=video_id, frame_id=frame_id, captions=(caption,))


def empty_record(video_id, frame_id):
    return FrameRecord(video_id=video_id, frame_id=frame_id)


class TestSummarizeVideo:
    def test_empty_video(self):
        results, stats = summarize_video("v", [], SummarizerConfig())
        assert results == []
        assert stats.n_frames == 0

    def test_frames_read_once_in_any_order(self):
        records = noisy_records()
        want = summarize_video("v", records, SummarizerConfig())
        shuffled = random.Random(0).sample(records, len(records))
        assert summarize_video("v", (r for r in shuffled), SummarizerConfig()) == want
        assert summarize_video("v", iter(()), SummarizerConfig()) == summarize_video("v", [], SummarizerConfig())

    def test_one_context_per_input_frame(self):
        frames = [empty_record("v", f) for f in range(10)]
        results, stats = summarize_video("v", frames, SummarizerConfig())
        assert [frame_id for _, frame_id, _ in results] == list(range(10))
        assert stats.n_processed == 4  # frames 0, 3, 6, 9

    def test_context_appears_after_action_persists(self):
        frames = [action_record("v", f, "cut", "wood") for f in range(0, 40)]
        results, _ = summarize_video("v", frames, SummarizerConfig())
        by_frame = {frame_id: ctx for _, frame_id, ctx in results}
        # frame 0 sees nothing (no processed frames strictly before it)
        assert by_frame[0].text == ""
        # with acceptance count 1, the first processed frame creates a segment
        assert by_frame[1].action_segments == (ActionPair("cut", "wood"),)
        assert by_frame[30].action_segments == (ActionPair("cut", "wood"),)

    def test_off_stride_frames_never_influence(self):
        base = [empty_record("v", f) for f in range(0, 30)]
        spiked = [
            action_record("v", f, "cut", "wood") if f % 3 else empty_record("v", f)
            for f in range(0, 30)
        ]
        cfg = SummarizerConfig()
        plain = summarize_video("v", base, cfg)[0]
        with_spikes = summarize_video("v", spiked, cfg)[0]
        assert [(f, c.text) for _, f, c in plain] == [(f, c.text) for _, f, c in with_spikes]

    def test_contexts_are_causal(self):
        early = [action_record("v", f, "cut", "wood") for f in range(0, 21)]
        late_a = [action_record("v", f, "wash", "cup") for f in range(21, 42)]
        late_b = [action_record("v", f, "open", "drawer") for f in range(21, 42)]
        cfg = SummarizerConfig()
        run_a = summarize_video("v", early + late_a, cfg)[0]
        run_b = summarize_video("v", early + late_b, cfg)[0]
        for (v1, f1, c1), (v2, f2, c2) in zip(run_a[:21], run_b[:21]):
            assert (f1, c1) == (f2, c2)

    def test_duplicate_frame_rejected(self):
        frames = [empty_record("v", 0), empty_record("v", 0)]
        with pytest.raises(ValidationError, match="duplicate"):
            summarize_video("v", frames, SummarizerConfig())

    @pytest.mark.parametrize("odd_frame", [0, 4, 9])
    def test_mixed_video_ids_rejected(self, odd_frame):
        # the odd record sorts first, in the middle and last
        frames = [empty_record("w" if f == odd_frame else "v", f) for f in reversed(range(10))]
        with pytest.raises(ValidationError, match="mixed video ids"):
            summarize_video("v", frames, SummarizerConfig())

    def test_records_of_another_video_rejected(self):
        frames = [empty_record("w", 0), empty_record("w", 1)]
        with pytest.raises(ValidationError, match="mixed video ids"):
            summarize_video("v", frames, SummarizerConfig())

    def test_salient_context_uses_current_only(self):
        planted, stream = gen_scenario(33, n_frames=240)
        records = scenario_to_frame_records(stream, "v")
        results, _ = summarize_video("v", records, SummarizerConfig())
        salient_planted: dict = {}
        for s in planted:
            if s.category.value == "salient":
                salient_planted.setdefault(s.term, []).append(s)
        slack = 3 * SummarizerConfig().p_l_salient
        for _, frame_id, ctx in results:
            for label in ctx.salient_objects:
                # stale salient objects (ended long before) must not reappear
                assert any(
                    seg.start_frame <= frame_id <= seg.end_frame + slack
                    for seg in salient_planted[label]
                )

    def test_held_context_carries_past_segments(self):
        frames = []
        for f in range(0, 60):
            if f < 30:
                box_frames = True
            else:
                box_frames = False
            if box_frames:
                from context_forge.core import BoundingBox

                box = BoundingBox(0, 0, 2, 2)
                frames.append(
                    FrameRecord(
                        video_id="v",
                        frame_id=f,
                        active_boxes=(box,),
                        detections=(("knife", box, 0.9),),
                    )
                )
            else:
                frames.append(empty_record("v", f))
        results, _ = summarize_video("v", frames, SummarizerConfig())
        by_frame = {frame_id: ctx for _, frame_id, ctx in results}
        assert by_frame[59].held_objects == ("knife",)

    def test_stats_report_segment_counts(self):
        _, stream = gen_scenario(44, n_frames=300)
        records = scenario_to_frame_records(stream, "v")
        _, stats = summarize_video("v", records, SummarizerConfig())
        assert stats.n_frames == 300
        assert stats.n_processed == 100
        assert stats.n_segments["action"] >= 1
        assert stats.n_segments["salient"] >= 1


def planted_records(n_frames, actions=(), held=(), salient=()):
    """Frame records holding each planted (term, start, end) on frames
    start..end; among overlapping action runs the one listed last wins."""
    stream = []
    for f in range(n_frames):
        covering = [term for term, start, end in actions if start <= f <= end]
        stream.append(
            FrameContext(
                frame_id=f,
                action=covering[-1] if covering else None,
                held=frozenset(term for term, start, end in held if start <= f <= end),
                salient=frozenset(term for term, start, end in salient if start <= f <= end),
            )
        )
    return scenario_to_frame_records(stream, "v")


def per_category(name: str, action: int, held: int, salient: int) -> dict[str, int]:
    """The config keys ``{name}_action``, ``{name}_held`` and ``{name}_salient`` with their values."""
    return {f"{name}_action": action, f"{name}_held": held, f"{name}_salient": salient}


EDGE_CONFIGS = {
    "default": SummarizerConfig(),
    "stride-1": SummarizerConfig(stride=1),
    "lapse-0": SummarizerConfig(stride=1, **per_category("p_l", 0, 0, 0)),
    "length-1": SummarizerConfig(**per_category("l", 1, 1, 1)),
    "all-edges": SummarizerConfig(
        stride=1,
        **per_category("p_o", 1, 1, 1),
        **per_category("p_l", 0, 0, 0),
        **per_category("l", 1, 1, 1),
    ),
}

# Held and salient runs of 40 frames, a new one every 30: each overlaps
# the next, so no component settles before the video ends.
CHAINED = [(f"h{k % 3}", 30 * k, 30 * k + 39) for k in range(8)]

# 30-frame runs starting at 0, 45, 60, 105, 120, 165: two overlapping pairs.
TIED_STARTS = [30 * k + 15 * (k % 2) for k in range(6)]

ADVERSARIAL = {
    "chained-overlaps": lambda: planted_records(
        240,
        actions=[(ActionPair(f"v{k % 3}", "n"), 25 * k, 25 * k + 39) for k in range(9)],
        held=CHAINED,
        salient=[(f"o{k % 3}", s, e) for k, (_, s, e) in enumerate(CHAINED)],
    ),
    # Equal-length overlapping pairs in separate components: every run
    # has the same occurrence count, so the earlier start must win each.
    "occurrence-ties": lambda: planted_records(
        200,
        actions=[(ActionPair(f"v{k}", "n"), 60 * k, 60 * k + 29) for k in range(4)],
        held=[(f"h{k % 4}", start, start + 29) for k, start in enumerate(TIED_STARTS)],
        salient=[(f"o{k % 4}", start, start + 29) for k, start in enumerate(TIED_STARTS)],
    ),
    # Terms accepted once early on and never seen again.
    "stale-terms": lambda: planted_records(
        200,
        actions=[(ActionPair("cut", "wood"), 0, 20), (ActionPair("wash", "cup"), 60, 199)],
        held=[("knife", 0, 30), ("cup", 50, 199)],
        salient=[("wood", 0, 40), ("sink", 45, 199)],
    ),
}


def random_records(rng: SplitMix64) -> list[FrameRecord]:
    n_terms = rng.randint(1, 5)
    actions = [ActionPair(f"v{i}", f"n{i}") for i in range(n_terms)]
    stream = [
        FrameContext(
            frame_id=f,
            action=rng.choice(actions) if rng.uniform() < 0.6 else None,
            held=frozenset(f"h{i}" for i in range(n_terms) if rng.uniform() < 0.35),
            salient=frozenset(f"o{i}" for i in range(n_terms) if rng.uniform() < 0.35),
        )
        for f in range(rng.randint(1, 120))
    ]
    return scenario_to_frame_records(stream, "v")


def random_config(rng: SplitMix64) -> SummarizerConfig:
    def drawn(name, values):  # action, held, salient, in that order
        return per_category(name, *(rng.choice(values) for _ in range(3)))

    return SummarizerConfig(
        **drawn("p_o", [1, 2, 3, 7]),
        **drawn("p_l", [0, 1, 3, 7, 12]),
        stride=rng.choice([1, 2, 3]),
        **drawn("l", [0, 1, 2, 3, 5]),
    )


# Configs under which gen_tie_stream's cut-ins are accepted inside the cut
# run's lapse (p_o <= p_l), at stride 1 and 2, and one that caps every lane at one term.
TIE_CONFIGS = {
    "default": SummarizerConfig(),
    "stride-1": SummarizerConfig(stride=1, **per_category("p_o", 1, 2, 2), **per_category("p_l", 5, 5, 5)),
    "stride-2": SummarizerConfig(stride=2, **per_category("p_o", 1, 1, 2), **per_category("p_l", 6, 4, 8)),
    "length-1": SummarizerConfig(
        stride=1, **per_category("p_o", 1, 1, 1), **per_category("p_l", 3, 3, 3), **per_category("l", 1, 1, 1)
    ),
}


class TestIncrementalMatchesPerFrameOracle:
    """summarize_video freezes settled overlap components; the oracle
    re-resolves every segment at every frame."""

    def test_500_random_streams(self):
        rng = SplitMix64(4242)
        for _ in range(500):
            records, cfg = random_records(rng), random_config(rng)
            expected = oracle_summarize_video("v", records, cfg)
            assert summarize_video("v", records, cfg)[0] == expected

    @pytest.mark.parametrize("case", ADVERSARIAL.keys())
    @pytest.mark.parametrize("config", EDGE_CONFIGS.keys())
    def test_adversarial(self, case, config):
        records, cfg = ADVERSARIAL[case](), EDGE_CONFIGS[config]
        assert summarize_video("v", records, cfg)[0] == oracle_summarize_video("v", records, cfg)

    @pytest.mark.parametrize("config", TIE_CONFIGS)
    def test_tie_streams(self, config):
        # Equal counts with different starts, runs extended on one frame, and
        # a run accepted right after the lead's last occurrence, in its lapse.
        cfg = TIE_CONFIGS[config]
        for seed in range(25):
            records = scenario_to_frame_records(gen_tie_stream(seed), "v")
            assert summarize_video("v", records, cfg)[0] == oracle_summarize_video("v", records, cfg), seed

    @pytest.mark.parametrize("seed", [5, 6])
    def test_long_noisy_segments(self, seed):
        _, stream = gen_scenario(
            seed, n_frames=900, drop_rate=0.1, spurious_rate=0.5, segment_frames=(200, 400)
        )
        records, cfg = scenario_to_frame_records(stream, "v"), SummarizerConfig()
        assert summarize_video("v", records, cfg)[0] == oracle_summarize_video("v", records, cfg)

    @pytest.mark.parametrize("stride", [4, 5, 6])
    def test_activity_changes_between_processed_frames(self, stride):
        # With p_l below the stride, a run seen on one processed frame is
        # accepted (p_o 1) and lapses before the next push, so a cached
        # selection must be recomputed on an off-stride frame. Four
        # salient runs share their frames and tie on occurrences.
        s = stride
        planted = planted_records(
            20 * s,
            actions=[(ActionPair(f"v{k % 3}", "n"), k * s, k * s) for k in range(0, 20, 2)],
            held=[(f"h{k % 2}", k * s, k * s + s) for k in range(0, 20, 3)],
            salient=[(f"o{k}", 2 * s, 9 * s) for k in range(4)] + [("o9", 5 * s, 14 * s + 1)],
        )
        rng = SplitMix64(stride)
        streams = [planted, *(random_records(rng) for _ in range(4))]
        for p_l in itertools.product(range(3), repeat=3):
            cfg = SummarizerConfig(
                stride=stride,
                **per_category("p_o", 1, 1, 2),
                **per_category("p_l", *p_l),
                **per_category("l", 3, 2, 2),
            )
            for records in streams:
                expected = oracle_summarize_video("v", records, cfg)
                assert summarize_video("v", records, cfg)[0] == expected, p_l


def test_overlap_resolution_work_does_not_grow_with_video_length(monkeypatch):
    sizes = []

    def counting(segments):
        sizes.append(len(segments))
        return eliminate_overlaps(segments)

    monkeypatch.setattr(pipeline, "eliminate_overlaps", counting)
    _, stream = gen_scenario(1, n_frames=6000, drop_rate=0.1, spurious_rate=0.05)
    summarize_video("v", scenario_to_frame_records(stream, "v"), SummarizerConfig())
    tenth = len(sizes) // 10
    first = sum(sizes[:tenth]) / tenth
    last = sum(sizes[-tenth:]) / tenth
    # Re-resolving every past segment per frame takes about 5 per call in the
    # first tenth of this video and about 80 in the last.
    assert last <= first + 1.0, (first, last)


def count_calls(monkeypatch, owner, name, calls, key=None):
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[key(*args) if key else name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def test_summarize_reaches_traced_functions_through_module_globals(monkeypatch):
    # The benchmark's traced run times these layers by rebinding these
    # names, so each must be reached. Selection is recomputed only when a
    # lane's inputs change, and a context is assembled only when the
    # selected terms change.
    calls = Counter()
    in_pipeline = ("extract_frame_context", "eliminate_overlaps", "context_for_frame", "assemble")
    in_aggregator = ("push", "segments_at")
    for name in in_pipeline:
        count_calls(monkeypatch, pipeline, name, calls)
    for name in in_aggregator:
        count_calls(monkeypatch, StreamAggregator, name, calls)
    _, stream = gen_scenario(2, n_frames=300)
    results, _ = summarize_video("v", scenario_to_frame_records(stream, "v"), SummarizerConfig())
    texts = [ctx.text for _, _, ctx in results]
    changes = sum(1 for i, text in enumerate(texts) if i == 0 or text != texts[i - 1])
    assert len(results) == 300
    assert all(calls[name] >= 1 for name in in_pipeline + in_aggregator)
    assert calls["extract_frame_context"] == calls["push"] / 3 == 100
    assert calls["context_for_frame"] <= 0.6 * len(results)
    assert calls["assemble"] <= changes


def test_pending_only_push_leaves_selection_cached(monkeypatch):
    # Stride 1: a held object seen once at frame 3 opens a pending run
    # (p_o 7); an action seen at frame 5 is accepted at once (p_o 1).
    box = BoundingBox(0, 0, 2, 2)
    frames = [empty_record("v", f) for f in range(16)]
    frames[3] = FrameRecord("v", 3, active_boxes=(box,), detections=(("knife", box, 0.9),))
    frames[5] = action_record("v", 5, "cut", "wood")
    calls = Counter()
    count_calls(monkeypatch, pipeline, "context_for_frame", calls, key=lambda segs, t, *_: t)
    results, _ = summarize_video("v", frames, SummarizerConfig(stride=1))
    # Every lane selects at frame 0. Only the action lane selects again:
    # at frame 6, after the push that accepted its run, and at frame 13,
    # when the run's lapse (p_l 7) has passed.
    assert calls == {0: 3, 6: 1, 13: 1}
    assert [ctx.text for _, _, ctx in results] == [""] * 6 + ["cut wood; ; "] * 10


def noisy_records():
    _, stream = gen_scenario(11, n_frames=240, drop_rate=0.15, spurious_rate=0.05)
    return scenario_to_frame_records(stream, "v")


@pytest.mark.parametrize("case", ["noisy", *ADVERSARIAL])
@pytest.mark.parametrize("config", EDGE_CONFIGS.keys())
def test_selection_sees_only_segments_ended_before_t(monkeypatch, case, config):
    # A lane's flip frame is the earliest lapse of an active segment. That
    # holds because selection at t sees no segment reaching t or beyond.
    seen = []
    original = pipeline.context_for_frame

    def checking(segments, t, *args):
        seen.append(t)
        assert all(seg.end_frame < t for seg in segments), t
        return original(segments, t, *args)

    monkeypatch.setattr(pipeline, "context_for_frame", checking)
    records = noisy_records() if case == "noisy" else ADVERSARIAL[case]()
    summarize_video("v", records, EDGE_CONFIGS[config])
    assert seen


# context_for_frame calls per frame of noisy_records(), one digit a frame:
# the frames at which the three lanes recompute their selections.
RECOMPUTES = {
    1: (
        "30001001000000000001000000000000000000000000000000000000000000000000000001010001"
        "00011010000101000000000010100011010100000102000000000000000000000000000000000001"
        "10000000000000000000001001000010000000000000000000000010000001000000000000010000"
    ),
    3: (
        "30001000000000000000000001000000000001000000101000000101000000000000000100100001"
        "00010010000000000000000000100000000000100100100000000000000000000100000000000000"
        "01000000000000000000000001001000000000000000000000000010000001000000000000010000"
    ),
}

# The same calls when every push that changes an accepted run recomputes
# (353 and 106 in all, against 31 and 26 above). Skipping a recompute
# never adds one, so no frame may exceed these.
FLIP_ONLY_RECOMPUTES = {
    1: (
        "30001012121222222222333333323322333323332322333332232332333233233322201102121001"
        "00011010000101000000000011211122211222212213122332333313233332213323321332333233"
        "23232333313333231221012101000010000000000000000000000010000001000000000000010000"
    ),
    3: (
        "30001001001001001001001002002001002003002002103002002102003003003002001101101001"
        "00010010000000000000000000100000100100200200100200200200100200100300300300300200"
        "21020020010020020020010001001000000000000000000000000010000001000000000000010000"
    ),
}


@pytest.mark.parametrize("stride", RECOMPUTES)
def test_lanes_recompute_at_pinned_frames(monkeypatch, stride):
    calls = Counter()
    count_calls(monkeypatch, pipeline, "context_for_frame", calls, key=lambda segs, t, *_: t)
    records = noisy_records()
    summarize_video("v", records, SummarizerConfig(stride=stride))
    per_frame = "".join(str(calls[r.frame_id]) for r in records)
    assert all(now <= bound for now, bound in zip(per_frame, FLIP_ONLY_RECOMPUTES[stride]))
    assert per_frame == RECOMPUTES[stride]


def summarize_work_per_frame(monkeypatch, seed, n_frames):
    """Segments into eliminate_overlaps and context_for_frame, and context_for_frame calls, per frame."""
    work = Counter()
    overlaps, select = pipeline.eliminate_overlaps, pipeline.context_for_frame

    def counting_overlaps(segments):
        work["eliminate_overlaps segments"] += len(segments)
        return overlaps(segments)

    def counting_select(segments, *args):
        work["context_for_frame segments"] += len(segments)
        work["context_for_frame calls"] += 1
        return select(segments, *args)

    monkeypatch.setattr(pipeline, "eliminate_overlaps", counting_overlaps)
    monkeypatch.setattr(pipeline, "context_for_frame", counting_select)
    _, stream = gen_scenario(seed, n_frames=n_frames, n_terms=4, drop_rate=0.1, spurious_rate=0.05)
    summarize_video("v", scenario_to_frame_records(stream, "v"), SummarizerConfig())
    return {name: count / n_frames for name, count in work.items()}


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_summarize_work_per_frame_does_not_grow_with_video_length(monkeypatch, seed):
    # Counted, never timed. Linear cost keeps each count per frame about
    # level from 1,125 to 9,000 frames; handing every closed segment to
    # each selection, or never settling one, makes them grow about 8x.
    short = summarize_work_per_frame(monkeypatch, seed, 1_125)
    long = summarize_work_per_frame(monkeypatch, seed, 9_000)
    assert short.keys() == long.keys() and len(short) == 3
    for name in short:
        assert long[name] <= 1.25 * short[name], (name, short[name], long[name])
