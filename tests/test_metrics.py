import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from context_forge import metrics
from context_forge.core import (
    ActionContext,
    ActionPair,
    BoundingBox,
    EmbeddingTable,
    ObjectInteraction,
    load_embeddings,
    Prediction,
    ValidationError,
)
from context_forge.metrics import (
    Variant,
    class_key,
    context_quality,
    iou,
    quality_words,
    match_top5,
    top5_map,
)
from context_forge.synth import SplitMix64, gen_eval_instance, oracle_ap


def box(x1, y1, x2, y2):
    return BoundingBox(x1, y1, x2, y2)


def gt(noun="cup", verb="take", ttc=1.0, b=None):
    return ObjectInteraction(b or box(0, 0, 2, 2), noun, verb, ttc)


def pred(noun="cup", verb="take", ttc=1.0, b=None, score=0.9):
    return Prediction(ObjectInteraction(b or box(0, 0, 2, 2), noun, verb, ttc), score)


class TestIou:
    def test_identical(self):
        assert iou(box(0, 0, 2, 2), box(0, 0, 2, 2)) == 1.0

    def test_disjoint(self):
        assert iou(box(0, 0, 1, 1), box(5, 5, 6, 6)) == 0.0

    def test_partial_overlap(self):
        assert iou(box(0, 0, 2, 2), box(1, 1, 3, 3)) == pytest.approx(1 / 7, abs=1e-12)

    def test_touching_edges(self):
        assert iou(box(0, 0, 1, 1), box(1, 0, 2, 1)) == 0.0

    _boxes = st.builds(
        lambda x, y, w, h: box(x, y, x + w, y + h),
        st.floats(0, 50, allow_nan=False),
        st.floats(0, 50, allow_nan=False),
        st.floats(0.1, 20, allow_nan=False),
        st.floats(0.1, 20, allow_nan=False),
    )

    @given(a=_boxes, b=_boxes)
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0

    @given(a=_boxes)
    def test_self_is_one(self, a):
        assert iou(a, a) == pytest.approx(1.0, abs=1e-12)


class TestMatchTop5:
    def test_full_match_hits_all_variants(self):
        g = [gt(ttc=1.0)]
        p = [pred(ttc=1.1, b=box(0, 0, 2, 1.8), score=0.9)]
        for variant in Variant:
            assert match_top5(p, g, variant)[0] is g[0], variant

    def test_ttc_boundary_is_strict(self):
        g = [gt(ttc=1.0)]
        p = [pred(ttc=1.25)]
        assert abs(p[0].interaction.ttc - g[0].ttc) == 0.25
        for variant in (Variant.NOUN, Variant.NOUN_VERB):
            assert match_top5(p, g, variant)[0] is not None
        for variant in (Variant.NOUN_TTC, Variant.OVERALL):
            assert match_top5(p, g, variant)[0] is None

    def test_iou_boundary_is_inclusive(self):
        g = [gt(b=box(0, 0, 1, 1))]
        p = [pred(b=box(0, 0, 1, 0.5))]
        assert iou(p[0].interaction.box, g[0].box) == 0.5
        assert match_top5(p, g, Variant.NOUN)[0] is not None

    def test_only_top_five_considered(self):
        g = [gt()]
        misses = [pred(noun="wall", score=0.9 - 0.1 * i) for i in range(5)]
        would_hit = [pred(score=0.1)]
        results = match_top5(misses + would_hit, g, Variant.NOUN)
        assert len(results) == 5
        assert results == [None] * 5

    def test_each_gt_matched_once(self):
        g = [gt()]
        p = [pred(score=0.9), pred(score=0.8)]
        results = match_top5(p, g, Variant.NOUN)
        assert results == [g[0], None]

    def test_unsorted_predictions_rejected(self):
        with pytest.raises(ValidationError):
            match_top5([pred(score=0.1), pred(score=0.9)], [gt()], Variant.NOUN)

    def test_wrong_noun_never_hits(self):
        assert match_top5([pred(noun="plate")], [gt(noun="cup")], Variant.NOUN)[0] is None

    def test_verb_only_ignores_noun_and_box(self):
        g = [gt(noun="cup", verb="take", b=box(0, 0, 1, 1))]
        p = [pred(noun="wall", verb="take", b=box(40, 40, 41, 41))]
        assert match_top5(p, g, Variant.VERB_ONLY)[0] is not None
        assert match_top5(p, g, Variant.NOUN_ONLY)[0] is None


class TestTop5Map:
    def test_perfect_predictions_score_100(self):
        gts, preds = {}, {}
        rng = SplitMix64(5)
        for f in range(4):
            items = [
                gt(noun=f"n{rng.randint(0, 2)}", verb=f"v{rng.randint(0, 1)}",
                   ttc=0.5 + 0.1 * rng.randint(0, 5),
                   b=box(5.0 * i, 0, 5.0 * i + 3, 3))
                for i in range(rng.randint(1, 3))
            ]
            gts[("v", f)] = items
            preds[("v", f)] = [
                Prediction(g, 1.0) for g in items
            ]
        for variant in Variant:
            assert top5_map(preds, gts, [variant])[0].map_value == pytest.approx(100.0)

    def test_no_predictions_scores_zero(self):
        gts = {("v", 0): [gt()]}
        for variant in Variant:
            report = top5_map({}, gts, [variant])[0]
            assert report.map_value == 0.0

    def test_empty_ground_truth(self):
        report = top5_map({("v", 0): [pred()]}, {}, [Variant.NOUN])[0]
        assert report.map_value == 0.0
        assert report.per_class == {}

    def test_pred_frame_missing_from_gt_counts_as_miss(self):
        gts = {("v", 0): [gt()]}
        preds = {("v", 0): [pred(score=0.9)], ("v", 1): [pred(score=1.0)]}
        report = top5_map(preds, gts, [Variant.NOUN])[0]
        # ranked: miss at 1.0 then hit at 0.9 -> AP = 0.5
        assert report.map_value == pytest.approx(50.0)

    def test_map_is_mean_of_per_class_aps(self):
        preds, gts = gen_eval_instance(404)
        report = top5_map(preds, gts, [Variant.NOUN_VERB])[0]
        if report.per_class:
            mean = sum(c.ap for c in report.per_class.values()) / len(report.per_class)
            assert report.map_value == pytest.approx(mean, abs=1e-12)

    def test_class_counts_reported(self):
        gts = {("v", 0): [gt(noun="cup"), gt(noun="cup", b=box(5, 5, 7, 7)), gt(noun="plate", b=box(10, 10, 12, 12))]}
        report = top5_map({}, gts, [Variant.NOUN])[0]
        assert report.per_class["cup"].n_gt == 2
        assert report.per_class["plate"].n_gt == 1

    @given(seed=st.integers(0, 50_000))
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle(self, seed):
        preds, gts = gen_eval_instance(seed)
        for variant in Variant:
            assert top5_map(preds, gts, [variant])[0].map_value == pytest.approx(
                oracle_ap(preds, gts, variant), abs=1e-9
            )

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_frame_relabeling_invariance(self, seed):
        preds, gts = gen_eval_instance(seed)
        relabel = lambda d: {("z", 1000 - k[1]): v for k, v in d.items()}
        for variant in (Variant.NOUN, Variant.OVERALL):
            assert top5_map(preds, gts, [variant])[0].map_value == pytest.approx(
                top5_map(relabel(preds), relabel(gts), [variant])[0].map_value, abs=1e-12
            )

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_monotone_score_rescaling_invariance(self, seed):
        preds, gts = gen_eval_instance(seed)
        rescaled = {
            k: [Prediction(p.interaction, 0.5 + p.score / 2) for p in v]
            for k, v in preds.items()
        }
        for variant in (Variant.NOUN_VERB, Variant.NOUN_ONLY):
            assert top5_map(preds, gts, [variant])[0].map_value == pytest.approx(
                top5_map(rescaled, gts, [variant])[0].map_value, abs=1e-12
            )

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_adding_prediction_for_missed_gt_never_hurts(self, seed):
        preds, gts = gen_eval_instance(seed)
        before = top5_map(preds, gts, [Variant.NOUN])[0].map_value
        target_key = target = None
        for key in sorted(gts):
            if len(preds.get(key, [])) >= 5:
                continue
            frame_preds = sorted(
                enumerate(preds.get(key, [])), key=lambda it: (-it[1].score, it[0])
            )
            results = match_top5([p for _, p in frame_preds], gts[key], Variant.NOUN)
            matched = {id(matched_gt) for matched_gt in results if matched_gt is not None}
            missed = [g for g in gts[key] if id(g) not in matched]
            if missed:
                target_key, target = key, missed[0]
                break
        if target is None:
            return  # every gt already matched; nothing to assert
        boosted = {k: list(v) for k, v in preds.items()}
        boosted.setdefault(target_key, [])
        boosted[target_key] = boosted[target_key] + [Prediction(target, 1.0)]
        after = top5_map(boosted, gts, [Variant.NOUN])[0].map_value
        assert after >= before - 1e-12

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_unconditioned_variants_hit_at_least_as_often(self, seed):
        preds, gts = gen_eval_instance(seed)
        for strict, loose in ((Variant.NOUN, Variant.NOUN_ONLY), (Variant.NOUN_VERB, Variant.VERB_ONLY)):
            for key in sorted(set(preds) | set(gts)):
                frame_preds = sorted(
                    preds.get(key, []), key=lambda p: -p.score
                )
                strict_hits = sum(
                    matched_gt is not None for matched_gt in match_top5(frame_preds, gts.get(key, []), strict)
                )
                loose_hits = sum(
                    matched_gt is not None for matched_gt in match_top5(frame_preds, gts.get(key, []), loose)
                )
                assert loose_hits >= strict_hits


def _unit_table(words):
    vectors = {}
    for i, word in enumerate(words):
        vec = np.zeros(300)
        vec[i] = 1.0
        vectors[word] = vec
    return EmbeddingTable(vectors)


def ctx(pairs=(), held=(), salient=()):
    return ActionContext(
        action_segments=tuple(pairs),
        held_objects=tuple(held),
        salient_objects=tuple(salient),
        text="",
    )


class TestContextQuality:
    def test_exact_context_gives_unit_similarity(self):
        table = _unit_table(["knife", "take"])
        contexts = {0: ctx(pairs=[ActionPair("take", "knife")], salient=["knife"])}
        gts = {0: [gt(noun="knife", verb="take")]}
        report = context_quality(contexts, gts, table)
        assert report.exact_noun_hits == 1.0
        assert report.exact_verb_hits == 1.0
        assert report.avg_embed_sim_noun == pytest.approx(1.0, abs=1e-12)
        assert report.avg_embed_sim_verb == pytest.approx(1.0, abs=1e-12)
        assert report.frame_coverage == 1.0

    def test_all_empty_contexts(self):
        table = _unit_table(["knife", "take"])
        gts = {i: [gt(noun="knife")] for i in range(3)}
        report = context_quality({}, gts, table)
        assert report.frame_coverage == 0.0
        assert report.exact_noun_hits == 0.0
        assert report.salient_recall == 0.0

    def test_two_frame_precision_recall_hand_count(self):
        table = _unit_table(["knife", "cup", "plate", "wall", "spoon", "take"])
        contexts = {
            0: ctx(salient=["knife", "cup"]),
            1: ctx(salient=["plate", "wall"]),
        }
        gts = {0: [gt(noun="knife")], 1: [gt(noun="spoon")]}
        report = context_quality(contexts, gts, table)
        # 1 matching slot among 4; the noun appears in 1 of 2 frames
        assert report.salient_precision == pytest.approx(0.25)
        assert report.salient_recall == pytest.approx(0.5)

    def test_missing_words_counted_and_skipped(self):
        table = _unit_table(["knife", "take"])
        contexts = {0: ctx(salient=["knife", "unseen"])}
        gts = {0: [gt(noun="knife", verb="take")]}
        report = context_quality(contexts, gts, table)
        assert report.missing_embeddings >= 1
        assert -1.0 <= report.avg_embed_sim_noun <= 1.0

    def test_missing_embeddings_counts_every_lookup_of_an_absent_word(self):
        table = _unit_table(["knife", "cup", "take"])
        contexts = {0: ctx(pairs=[ActionPair("take", "knife")], salient=["unseen"]), 1: ctx(salient=["cup"])}
        gts = {0: [gt(noun="cup"), gt(noun="gadget")], 1: [gt(noun="gadget")]}
        report = context_quality(contexts, gts, table)
        # "unseen" once for each entry of its frame, "gadget" once for each entry it labels
        assert report.missing_embeddings == 4

    def test_zero_vector_word_is_not_missing(self):
        vectors = {"take": np.eye(300)[0], "knife": np.zeros(300)}
        contexts = {0: ctx(pairs=[ActionPair("take", "knife")])}
        report = context_quality(contexts, {0: [gt(noun="knife", verb="take")]}, EmbeddingTable(vectors))
        # only words absent from the table count, in the context or the ground truth
        assert report.missing_embeddings == 0
        assert report.avg_embed_sim_noun == 0.0
        assert report.avg_embed_sim_verb == 1.0

    def test_vectors_at_the_norm_bound_keep_finite_similarities(self):
        # each squared norm just under the table's bound; their mean's norm must not overflow
        big = np.full(300, 5.7e148)
        table = EmbeddingTable({"take": big, "cup": big, "knife": big})
        contexts = {0: ctx(pairs=[ActionPair("take", "cup")], held=["knife"])}
        report = context_quality(contexts, {0: [gt(noun="cup", verb="take")]}, table)
        assert report.avg_embed_sim_noun == pytest.approx(1.0, abs=1e-12)
        assert report.avg_embed_sim_verb == pytest.approx(1.0, abs=1e-12)

    def test_multiword_labels_average_word_vectors(self):
        table = _unit_table(["pressure", "cooker", "take"])
        contexts = {0: ctx(salient=["pressure cooker"])}
        gts = {0: [gt(noun="cooker", verb="take")]}
        report = context_quality(contexts, gts, table)
        # mean of two orthogonal unit vectors, renormalized: cos = 1/sqrt(2)
        assert report.avg_embed_sim_noun == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_empty_gts(self):
        table = _unit_table(["knife"])
        report = context_quality({}, {}, table)
        assert report.n_frames == 0

    def test_table_of_the_quality_words_gives_the_same_report(self, tmp_path):
        # multiword labels, context words absent from the table and rows no lookup reads
        _, gts = gen_eval_instance(13, n_frames=10, max_preds=5)
        gts[("v", 99)] = [gt(noun="pressure cooker", verb="open")]
        contexts = {
            key: ctx(pairs=[ActionPair(g.verb, g.noun) for g in entries[1:]],
                     held=[entries[0].noun], salient=["pressure cooker", "unseen"])
            for key, entries in gts.items() if key[1] % 4
        }
        words = quality_words(contexts, gts)
        labels = {label for entries in gts.values() for g in entries for label in (g.noun, g.verb)}
        assert {"pressure", "cooker", "unseen"} <= words and labels <= words
        table_words = sorted(labels - {"open"}) + ["pressure", "filler1", "filler2"]
        path = tmp_path / "emb.tsv"
        rng = np.random.default_rng(5)
        path.write_text("".join(
            word + "\t" + "\t".join(map(repr, rng.normal(size=300).tolist())) + "\n" for word in table_words
        ))
        full = context_quality(contexts, gts, load_embeddings(path))
        assert full.missing_embeddings > 0
        assert context_quality(contexts, gts, load_embeddings(path, words)) == full

    def test_salient_recall_monotone_in_k(self):
        rng = SplitMix64(77)
        labels = [f"obj{i}" for i in range(8)]
        table = _unit_table(labels + ["take"])
        scores = [
            {label: rng.randint(0, 999) / 999.0 for label in labels} for _ in range(100)
        ]
        gts = {i: [gt(noun=labels[rng.randint(0, 7)])] for i in range(100)}
        from context_forge.extraction import select_salient

        previous = -1.0
        for k in range(1, 6):
            contexts = {
                i: ctx(salient=select_salient(scores[i], k)) for i in range(100)
            }
            recall = context_quality(contexts, gts, table).salient_recall
            assert recall >= previous
            previous = recall


class TestScoringCounts:
    """Each overlap and each direction is computed once; counted, never timed."""

    @pytest.mark.parametrize("variants", [[Variant.NOUN], list(Variant)], ids=["one-variant", "six-variants"])
    def test_iou_once_per_top5_prediction_and_ground_truth(self, monkeypatch, variants):
        # two draws per frame key, so that frames hold more than five predictions
        preds, gts = gen_eval_instance(11, n_frames=10, max_preds=5)
        more_preds, more_gts = gen_eval_instance(12, n_frames=10, max_preds=5)
        for key in more_preds:
            preds[key] = preds[key] + more_preds[key]
            gts[key] = gts[key] + more_gts[key]
        assert max(len(frame_preds) for frame_preds in preds.values()) > 5
        calls = []
        monkeypatch.setattr(metrics, "iou", lambda a, b: calls.append(1) or iou(a, b))
        top5_map(preds, gts, variants)
        assert len(calls) == sum(min(len(preds[key]), 5) * len(gts[key]) for key in preds)

    def test_direction_once_per_context_run_and_ground_truth_label(self, monkeypatch):
        # the entries of a frame are one run sharing the frame's context
        _, gts = gen_eval_instance(13, n_frames=10, max_preds=5)
        contexts = {
            key: ctx(pairs=[ActionPair(g.verb, g.noun) for g in entries[1:]], held=[entries[0].noun])
            for key, entries in gts.items() if key[1] % 4
        }
        labels = {label for entries in gts.values() for g in entries for label in (g.noun, g.verb)}
        bound = 2 * len(gts) + len(labels)
        # taking either the context's or the labels' directions once per entry would exceed the bound
        n_entries = sum(len(entries) for entries in gts.values())
        assert 2 * n_entries + len(labels) > bound and 2 * len(gts) + 2 * n_entries > bound
        table = _unit_table(sorted(labels)[1:])
        calls = []
        direction = metrics._mean_direction
        monkeypatch.setattr(metrics, "_mean_direction", lambda words, t: calls.append(1) or direction(words, t))
        context_quality(contexts, gts, table)
        assert 0 < len(calls) <= bound

    @pytest.mark.parametrize(
        "variants, groupings",
        [([Variant.NOUN, Variant.NOUN_VERB, Variant.NOUN_TTC, Variant.OVERALL], 2), (list(Variant), 3)],
        ids=["default-variants", "six-variants"],
    )
    def test_class_keys_grouped_once_per_kind(self, monkeypatch, variants, groupings):
        # one grouping takes the class key of every ground truth and every scored prediction once:
        # noun keys (n, nt, no), noun,verb keys (nv, all) and verb keys (vo)
        preds, gts = gen_eval_instance(14, n_frames=10, max_preds=5)
        n_keyed = sum(len(entries) for entries in gts.values()) + sum(min(len(p), 5) for p in preds.values())
        calls = []
        monkeypatch.setattr(metrics, "class_key", lambda *args: calls.append(1) or class_key(*args))
        reports = top5_map(preds, gts, variants)
        assert len(calls) == groupings * n_keyed
        monkeypatch.undo()
        assert reports == top5_map(preds, gts, variants)


def _reference_direction(vectors):
    """The mean direction as numpy's wrappers take it: np.mean(axis=0), then np.linalg.norm."""
    mean = np.mean(vectors, axis=0)
    norm = float(np.linalg.norm(mean))
    if norm == 0.0:
        largest = float(np.abs(mean).max())
        if largest == 0.0:
            return None
        mean = mean / largest
        norm = float(np.linalg.norm(mean))
    return mean / norm


_GAUSS = np.random.default_rng(25).standard_normal((3, 300))
# vectors from 1e-200 (whose squared norm underflows) to 1e148 (squared norm within the table's bound)
_VECTORS = st.one_of(
    st.builds(
        lambda seed, exponent: np.random.default_rng(seed).standard_normal(300) * 10.0 ** exponent,
        st.integers(0, 2**32 - 1),
        st.integers(-200, 148),
    ),
    st.sampled_from([1e-170, 0.0, 1.0]).map(lambda value: np.full(300, value)),
)


@given(vectors=st.lists(_VECTORS, min_size=1, max_size=6))
@example(vectors=[np.full(300, 1e-170)] * 3)  # the underflow branch
@example(vectors=[np.full(300, 1e-170), _GAUSS[0] * 1e148, _GAUSS[1] * 1e-5, _GAUSS[2]])  # mixed magnitudes
@example(vectors=[np.zeros(300)])
@settings(deadline=None)
def test_mean_direction_bit_identical_to_numpy(vectors):
    words = [f"w{i}" for i in range(len(vectors))]
    direction, missing = metrics._mean_direction(words + ["absent"], EmbeddingTable(dict(zip(words, vectors))))
    expected = _reference_direction(vectors)
    assert missing == 1
    assert (direction is None) == (expected is None)
    if expected is not None:
        assert direction.dtype == expected.dtype and direction.tobytes() == expected.tobytes()
