import hashlib
import json

import pytest

from context_forge.core import Category, SummarizerConfig, ValidationError, term_text
from context_forge.extraction import extract_frame_context
from context_forge.metrics import Variant
from context_forge.synth import (
    SplitMix64,
    category_stream,
    gen_eval_instance,
    gen_scenario,
    oracle_aggregate,
    oracle_ap,
    scenario_to_frame_records,
    segment_recovered,
)


class TestSplitMix64:
    def test_known_sequence_is_stable(self):
        rng = SplitMix64(42)
        first = [rng.next_u64() for _ in range(3)]
        rng2 = SplitMix64(42)
        assert first == [rng2.next_u64() for _ in range(3)]

    def test_uniform_range(self):
        rng = SplitMix64(7)
        values = [rng.uniform() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)

    def test_randint_bounds(self):
        rng = SplitMix64(9)
        values = [rng.randint(2, 5) for _ in range(200)]
        assert set(values) == {2, 3, 4, 5}


class TestGenScenario:
    def test_same_seed_identical(self):
        a = gen_scenario(11, n_frames=150)
        b = gen_scenario(11, n_frames=150)
        assert a == b

    def test_different_seeds_differ(self):
        assert gen_scenario(1, n_frames=150) != gen_scenario(2, n_frames=150)

    def test_noise_free_stream_reproduces_planted(self):
        planted, stream = gen_scenario(3, n_frames=300, drop_rate=0.0, spurious_rate=0.0)
        for category in Category:
            expected = {}
            for seg in planted:
                if seg.category is category:
                    for f in range(seg.start_frame, seg.end_frame + 1):
                        expected[f] = seg.term
            for frame_id, terms in category_stream(stream, category):
                assert set(terms) == ({expected[frame_id]} if frame_id in expected else set())

    def test_planted_segments_disjoint_per_category(self):
        planted, _ = gen_scenario(5, n_frames=1000)
        for category in Category:
            segs = sorted(
                (s for s in planted if s.category is category), key=lambda s: s.start_frame
            )
            for a, b in zip(segs, segs[1:]):
                assert a.end_frame < b.start_frame

    def test_bad_rates_rejected(self):
        with pytest.raises(ValidationError):
            gen_scenario(0, drop_rate=1.0)
        with pytest.raises(ValidationError):
            gen_scenario(0, spurious_rate=-0.1)

    @pytest.mark.parametrize("seed,drop,spurious,digest", [
        (1, 0.0, 0.0, "db7b7e22169b2b88ee654a80d88cbfb1bc4e87d267f90187563d639840b44b71"),
        (1, 0.5, 0.5, "3614948d000293cc8d68d4c9101748b96f69cda87c982c229dae3078795a8370"),
        (1, 0.3, 0.9, "399de4a330c25d0c86a663358f23637ca6a6506da4ba0b3fb3dc1496e938a604"),
        (2, 0.0, 0.0, "18d595997b6ae79225c2362d975ce45371a11c783f4b3aa1337819ee9136ade7"),
        (2, 0.5, 0.5, "88ca9d3805b7eaa6a5d5f68804bdccf931f10da03460d36f9db40ffe79af1c01"),
        (2, 0.3, 0.9, "e27a4c831ced5a631894d2739884093a470307635eb2214c297dedf345102d69"),
        (3, 0.0, 0.0, "0a2db0146de4bbb66ed2d321b42bab2c9e43a2fba4fdfb5ee0fd71fd4a7b1ab2"),
        (3, 0.5, 0.5, "25899cec8dddb2bc12a3bad6e394806c2714b2bda2d53eff26e551c72e26bad9"),
        (3, 0.3, 0.9, "0b278219ad764676146aa139701872de72f9b3f49b081ef945061c8b7d0f3696"),
    ])
    def test_draw_order_pinned(self, seed, drop, spurious, digest):
        """Scenarios stay draw-for-draw the same under each mix of drops and spurious terms."""
        planted, stream = gen_scenario(seed, drop_rate=drop, spurious_rate=spurious)
        doc = [
            [(s.category.value, term_text(s.term), s.start_frame, s.end_frame, s.occurrences) for s in planted],
            [(c.frame_id, c.action and term_text(c.action), sorted(c.held), sorted(c.salient)) for c in stream],
        ]
        assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == digest

    def test_noise_free_recovery_is_exact(self):
        planted, stream = gen_scenario(13, n_frames=400)
        for category in Category:
            segs = oracle_aggregate(category_stream(stream, category), 1, 7, category)
            for seg in planted:
                if seg.category is category:
                    assert segment_recovered(seg, segs, tolerance=0)


class TestScenarioRecords:
    def test_records_extract_back_to_stream(self):
        _, stream = gen_scenario(21, n_frames=120, drop_rate=0.1, spurious_rate=0.1)
        records = scenario_to_frame_records(stream, "vid")
        cfg = SummarizerConfig()
        for ctx, record in zip(stream, records):
            assert record.video_id == "vid"
            extracted = extract_frame_context(record, cfg)
            assert extracted.frame_id == ctx.frame_id
            assert extracted.action == ctx.action
            assert extracted.held == ctx.held
            assert extracted.salient == ctx.salient


class TestOracleAggregate:
    def test_spec_examples(self):
        out = oracle_aggregate([(0, ["v"]), (3, ["v"]), (6, ["v"])], 1, 7)
        assert [(s.start_frame, s.end_frame, s.occurrences, s.active) for s in out] == [
            (0, 6, 3, True)
        ]
        assert oracle_aggregate([(0, ["v"]), (30, ["v"])], 2, 7) == []
        out = oracle_aggregate([(f, ["v"]) for f in range(0, 19, 3)], 7, 7)
        assert [(s.start_frame, s.end_frame, s.occurrences) for s in out] == [(0, 18, 7)]

    def test_rejects_non_monotone(self):
        with pytest.raises(ValidationError):
            oracle_aggregate([(3, ["v"]), (2, ["v"])], 1, 7)


class TestOracleAp:
    def test_perfect_instance(self):
        preds, gts = {}, {}
        from context_forge.core import BoundingBox, ObjectInteraction, Prediction

        for f in range(3):
            gt = ObjectInteraction(BoundingBox(0, 0, 2, 2), "cup", "take", 1.0)
            gts[("v", f)] = [gt]
            preds[("v", f)] = [Prediction(gt, 1.0)]
        for variant in Variant:
            assert oracle_ap(preds, gts, variant) == pytest.approx(100.0)

    def test_empty_predictions(self):
        from context_forge.core import BoundingBox, ObjectInteraction

        gts = {("v", 0): [ObjectInteraction(BoundingBox(0, 0, 2, 2), "cup", "take", 1.0)]}
        assert oracle_ap({}, gts, Variant.NOUN) == 0.0

    def test_refuses_oversized_instances(self):
        gts = {("v", f): [] for f in range(11)}
        with pytest.raises(ValidationError, match="10 frames"):
            oracle_ap({}, gts, Variant.NOUN)


class TestGenEvalInstance:
    def test_deterministic(self):
        assert gen_eval_instance(5) == gen_eval_instance(5)

    def test_within_oracle_limits(self):
        preds, gts = gen_eval_instance(17)
        assert len(set(preds) | set(gts)) <= 10
        assert all(len(v) <= 5 for v in preds.values())
        assert all(len(v) >= 1 for v in gts.values())
