"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they execute. Every tolerance and runtime bound is pinned here; nothing
is deferred to later calibration.
"""

import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from context_forge.aggregation import aggregate
from context_forge.assembly import assemble
from context_forge.cli import main as cli_main
from context_forge.core import (
    ActionPair,
    BoundingBox,
    Category,
    EmbeddingTable,
    ObjectInteraction,
    PerCategory,
    PosTag,
    Prediction,
    SummarizerConfig,
    TaggedToken,
)
from context_forge.extraction import extract_candidate_pairs, select_salient
from context_forge.fusion import (
    attention,
    fuse,
    loss_total,
    patchify,
    random_fusion_params,
    regroup,
    row_softmax,
    with_zero_embeddings,
)
from context_forge.metrics import Variant, context_quality, iou, match_top5, top5_map
from context_forge.synth import (
    SplitMix64,
    category_stream,
    gen_eval_instance,
    gen_scenario,
    oracle_aggregate,
    oracle_ap,
    reference_attention,
    reference_loss_terms,
    segment_recovered,
)

# Bar fixed by the Monte-Carlo oracle run (scripts/noise_recovery_mc.py):
# observed overall recovery 0.494 on seeds 0..59 at drop 0.2, stride 3,
# lapse 7 raw frames. Two adjacent dropped samples open a 9-frame gap
# that splits a segment, so the rate sits near 0.5 by construction.
NOISE_RECOVERY_BAR = 0.45
NOISE_RECOVERY_SEEDS = range(60)


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL {description}", file=sys.stderr)
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < budget_seconds else "FAIL"
    print(
        f"ACCEPTANCE {number} {status} {description} ({elapsed:.2f}s / budget {budget_seconds:g}s)",
        file=sys.stderr,
    )
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"


def test_criterion_1_default_config_fidelity():
    with criterion(1, "default config operating point", 1.0):
        cfg = SummarizerConfig()
        assert cfg.d == 4
        assert cfg.k == 5
        assert cfg.theta_iou == 0.25
        assert cfg.p_o == PerCategory(action=1, held=7, salient=10)
        assert cfg.p_l == PerCategory(action=7, held=7, salient=7)
        assert cfg.stride == 3
        assert cfg.context_lengths == PerCategory(action=3, held=3, salient=3)
        assert cfg.iou_thresh == 0.5
        assert cfg.t_delta == 0.25


def _tok(lemma: str, pos: PosTag) -> TaggedToken:
    return TaggedToken(lemma, lemma, pos)


def test_criterion_2_pair_extraction_vignettes():
    with criterion(2, "caption pair-extraction vignettes + monotonicity", 5.0):
        apple = [
            _tok("a", PosTag.OTHER), _tok("person", PosTag.NOUN), _tok("eat", PosTag.VERB),
            _tok("a", PosTag.OTHER), _tok("red", PosTag.OTHER), _tok("apple", PosTag.NOUN),
        ]
        gathering = [
            _tok("a", PosTag.OTHER), _tok("person", PosTag.NOUN), _tok("eat", PosTag.VERB),
            _tok("while", PosTag.OTHER), _tok("at", PosTag.OTHER), _tok("a", PosTag.OTHER),
            _tok("gathering", PosTag.NOUN),
        ]
        for d in range(9):
            got_apple = extract_candidate_pairs(apple, d)
            got_gathering = extract_candidate_pairs(gathering, d)
            assert got_apple == ([ActionPair("eat", "apple")] if d >= 2 else [])
            assert got_gathering == ([ActionPair("eat", "gathering")] if d >= 3 else [])

        rng = SplitMix64(2024)
        lemmas = ["cut", "wood", "take", "cup", "wash", "plate", "open", "drawer"]
        tags = [PosTag.VERB, PosTag.NOUN, PosTag.OTHER]
        for _ in range(1000):
            tokens = [
                _tok(rng.choice(lemmas), rng.choice(tags))
                for _ in range(rng.randint(0, 12))
            ]
            d1, d2 = sorted((rng.randint(0, 8), rng.randint(0, 8)))
            small = Counter(extract_candidate_pairs(tokens, d1))
            large = Counter(extract_candidate_pairs(tokens, d2))
            assert all(large[p] >= c for p, c in small.items())


def test_criterion_3_aggregation_differential():
    with criterion(3, "aggregation equals oracle on 500 seeded streams", 10.0):
        acceptance_combos = [(1, 7), (7, 7), (10, 7)]
        rng = SplitMix64(31337)
        for _ in range(500):
            n_frames = rng.randint(1, 200)
            n_terms = rng.randint(1, 5)
            terms = [f"t{i}" for i in range(n_terms)]
            stream = []
            for f in range(n_frames):
                stream.append((f, [t for t in terms if rng.uniform() < 0.35]))
            for p_o, p_l in acceptance_combos:
                assert aggregate(stream, p_o, p_l, Category.SALIENT) == oracle_aggregate(
                    stream, p_o, p_l, Category.SALIENT
                )


def test_criterion_4_noise_recovery():
    with criterion(4, f"noise recovery >= {NOISE_RECOVERY_BAR} (oracle-derived bar)", 30.0):
        p_o = {Category.ACTION: 1, Category.HELD: 7, Category.SALIENT: 10}
        recovered = total = 0
        for seed in NOISE_RECOVERY_SEEDS:
            planted, stream = gen_scenario(
                seed, n_frames=900, n_terms=4, drop_rate=0.2, spurious_rate=0.0,
                segment_frames=(60, 75),
            )
            for category in Category:
                sampled = [
                    (f, ts) for f, ts in category_stream(stream, category) if f % 3 == 0
                ]
                found = aggregate(sampled, p_o[category], 7, category)
                assert found == oracle_aggregate(sampled, p_o[category], 7, category)
                for seg in planted:
                    if seg.category is category:
                        total += 1
                        recovered += segment_recovered(seg, found, tolerance=7)
        rate = recovered / total
        assert rate >= NOISE_RECOVERY_BAR, f"recovery {rate:.4f} below bar"


def test_criterion_5_map_oracle_equivalence():
    with criterion(5, "Top-5 mAP equals threshold-sweep oracle (6 variants x 100)", 10.0):
        for variant in Variant:
            for seed in range(100):
                preds, gts = gen_eval_instance(seed * 13 + 5)
                report = top5_map(preds, gts, [variant])[0]
                assert abs(report.map_value - oracle_ap(preds, gts, variant)) <= 1e-9


def test_criterion_6_ttc_boundary_is_a_miss_for_ttc_variants():
    with criterion(6, "TTC boundary |dt|=0.25 and IoU=0.5 semantics", 1.0):
        gt = ObjectInteraction(BoundingBox(0, 0, 2, 2), "cup", "take", 1.0)
        pred = Prediction(
            ObjectInteraction(BoundingBox(0, 0, 2, 2), "cup", "take", 1.25), 0.9
        )
        assert abs(pred.interaction.ttc - gt.ttc) == 0.25
        assert match_top5([pred], [gt], Variant.NOUN)[0] is not None
        assert match_top5([pred], [gt], Variant.NOUN_VERB)[0] is not None
        assert match_top5([pred], [gt], Variant.NOUN_TTC)[0] is None
        assert match_top5([pred], [gt], Variant.OVERALL)[0] is None

        exact_gt = ObjectInteraction(BoundingBox(0, 0, 1, 1), "cup", "take", 1.0)
        exact_pred = Prediction(
            ObjectInteraction(BoundingBox(0, 0, 1, 0.5), "cup", "take", 1.0), 0.9
        )
        assert iou(exact_pred.interaction.box, exact_gt.box) == 0.5
        assert match_top5([exact_pred], [exact_gt], Variant.NOUN)[0] is not None


def test_criterion_7_fusion_kernel_invariants():
    with criterion(7, "fusion kernel invariants", 20.0):
        rng = np.random.default_rng(7)

        for _ in range(50):
            weights = row_softmax(rng.normal(0, 8, (int(rng.integers(1, 9)), int(rng.integers(1, 9)))))
            assert np.abs(weights.sum(axis=1) - 1.0).max() <= 1e-6

        patch_cycle = [4, 4, 2, 1]
        for trial in range(100):
            p = patch_cycle[trial % 4]
            c = int(rng.integers(1, 4))
            h, w = p * int(rng.integers(1, 5)), p * int(rng.integers(1, 5))
            x = rng.normal(size=(c, h, w))
            assert np.array_equal(regroup(patchify(x, p), h, w, p, c), x)

        scales = with_zero_embeddings(random_fusion_params(7))
        params = scales[0]
        fmap = rng.normal(size=(params.channels, params.height, params.width))
        lang = rng.normal(size=(2, params.d_lang))
        perm = rng.permutation(params.n_tokens)

        def permute(m):
            return regroup(
                patchify(m, params.patch_size)[perm],
                params.height, params.width, params.patch_size, params.channels,
            )

        base = fuse([fmap], lang, [params])[0]
        shuffled = fuse([permute(fmap)], lang, [params])[0]
        assert np.abs(shuffled - permute(base)).max() <= 1e-6

        for _ in range(20):
            n, d = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            q, k, v = rng.normal(0, 2, (n, d)), rng.normal(0, 2, (n, d)), rng.normal(0, 2, (n, d))
            assert np.abs(attention(q, k, v) - reference_attention(q, k, v)).max() <= 1e-12

        for _ in range(20):
            n_boxes, n_rows = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            kwargs = dict(
                cls_probs=rng.uniform(0.02, 0.98, n_boxes),
                cls_targets=rng.integers(0, 2, n_boxes).astype(float),
                boxes=rng.normal(0, 2, (n_boxes, 4)),
                box_targets=rng.normal(0, 2, (n_boxes, 4)),
                noun_logits=rng.normal(0, 3, (n_rows, 5)),
                noun_targets=rng.integers(0, 5, n_rows),
                verb_logits=rng.normal(0, 3, (n_rows, 4)),
                verb_targets=rng.integers(0, 4, n_rows),
                ttc_pred=rng.uniform(0, 2, n_rows),
                ttc_gt=rng.uniform(0, 2, n_rows),
                lam=11.0, n_cls=128, n_reg=64,
            )
            total = loss_total(**kwargs)
            assert abs(total - sum(reference_loss_terms(**kwargs).values())) <= 1e-12


def test_criterion_8_context_quality_closed_forms():
    with criterion(8, "context-quality closed-form checks", 5.0):
        words = [f"obj{i}" for i in range(8)] + ["take"]
        vectors = {}
        for i, word in enumerate(words):
            vec = np.zeros(300)
            vec[i] = 1.0
            vectors[word] = vec
        table = EmbeddingTable(vectors)

        def ctx(pairs=(), salient=()):
            return assemble(list(pairs), [], list(salient))

        def gt(noun, verb="take"):
            return ObjectInteraction(BoundingBox(0, 0, 1, 1), noun, verb, 1.0)

        report = context_quality(
            {0: ctx(pairs=[ActionPair("take", "obj0")], salient=["obj0"])},
            {0: [gt("obj0")]},
            table,
        )
        assert abs(report.avg_embed_sim_noun - 1.0) <= 1e-12
        assert abs(report.avg_embed_sim_verb - 1.0) <= 1e-12

        report = context_quality(
            {0: ctx(salient=["obj0", "obj1"]), 1: ctx(salient=["obj2", "obj3"])},
            {0: [gt("obj0")], 1: [gt("obj7")]},
            table,
        )
        assert report.salient_precision == 0.25
        assert report.salient_recall == 0.5

        rng = SplitMix64(88)
        labels = words[:8]
        scores = [
            {label: rng.randint(0, 999) / 999.0 for label in labels} for _ in range(100)
        ]
        gts = {i: [gt(labels[rng.randint(0, 7)])] for i in range(100)}
        previous = -1.0
        for k in range(1, 6):
            contexts = {i: ctx(salient=select_salient(scores[i], k)) for i in range(100)}
            recall = context_quality(contexts, gts, table).salient_recall
            assert recall >= previous
            previous = recall


def test_criterion_9_end_to_end_determinism(tmp_path):
    with criterion(9, "summarize byte-identical across runs and job counts", 60.0):
        frames = tmp_path / "frames.jsonl"
        rc = cli_main(
            ["synth", "--seed", "424242", "--out", str(frames),
             "--n-frames", "240", "--n-videos", "2",
             "--drop-rate", "0.1", "--spurious-rate", "0.05"]
        )
        assert rc == 0
        outputs = []
        for i, jobs in enumerate(("1", "1", "1", "8")):
            out = tmp_path / f"ctx{i}.jsonl"
            rc = cli_main(
                ["summarize", "--frames", str(frames), "--out", str(out), "--jobs", jobs]
            )
            assert rc == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2] == outputs[3]
