"""Evaluation stack: box overlap, Top-5 mAP variants, and context quality.

The mAP protocol is the detection-benchmark convention: per frame, only
the five highest-confidence predictions are scored; hits come from
greedy score-ordered matching with each ground truth consumed at most
once; per-class average precision uses dataset-wide ranking with
all-point interpolation, and precision/recall points are taken at
distinct score thresholds so that tied scores cannot make the result
depend on input order. The mean runs over classes with at least one
ground-truth instance and is reported scaled by 100.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate, groupby
from operator import itemgetter
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .core import (
    FRACTION,
    NON_NEGATIVE,
    ActionContext,
    BoundingBox,
    EmbeddingTable,
    ObjectInteraction,
    Prediction,
    ValidationError,
    clipped,
)

TOP_K_PER_FRAME = 5


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes, in [0, 1]."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.area() + b.area() - inter)


class Variant(Enum):
    """The evaluation variants; values are the CLI wire names."""

    NOUN = "n"
    NOUN_VERB = "nv"
    NOUN_TTC = "nt"
    OVERALL = "all"
    NOUN_ONLY = "no"
    VERB_ONLY = "vo"

    @classmethod
    def parse(cls, text: str) -> "Variant":
        try:
            return cls(text.strip().lower())
        except ValueError:
            valid = "|".join(v.value for v in cls)
            raise ValidationError(f"unknown variant {clipped(repr(text))}; expected one of {valid}")


class _Rule(NamedTuple):
    """What a hit must share with its ground truth under one variant."""

    noun: bool
    verb: bool
    box: bool  # a box overlap of at least iou_thresh
    ttc: bool  # a time-to-contact difference below t_delta


_RULES = {
    Variant.NOUN: _Rule(noun=True, verb=False, box=True, ttc=False),
    Variant.NOUN_VERB: _Rule(noun=True, verb=True, box=True, ttc=False),
    Variant.NOUN_TTC: _Rule(noun=True, verb=False, box=True, ttc=True),
    Variant.OVERALL: _Rule(noun=True, verb=True, box=True, ttc=True),
    Variant.NOUN_ONLY: _Rule(noun=True, verb=False, box=False, ttc=False),
    Variant.VERB_ONLY: _Rule(noun=False, verb=True, box=False, ttc=False),
}


def class_key(noun: str, verb: str, variant: Variant) -> str:
    """The labels a variant's hits share. ``core.checked_label`` keeps ',' out of labels: the join is unambiguous."""
    rule = _RULES[variant]
    if rule.noun and rule.verb:
        return f"{noun},{verb}"
    return noun if rule.noun else verb


def _overlaps(top5: Sequence[Prediction], gts: Sequence[ObjectInteraction]) -> list[list[float]]:
    """The IoU of every prediction x ground truth, one row per prediction."""
    return [[iou(pred.interaction.box, gt.box) for gt in gts] for pred in top5]


def match_top5(
    preds: Sequence[Prediction],
    gts: Sequence[ObjectInteraction],
    variant: Variant,
    iou_thresh: float = 0.5,
    t_delta: float = 0.25,
    overlaps: Sequence[Sequence[float]] | None = None,
) -> list[ObjectInteraction | None]:
    """Greedy-match one frame's predictions against its ground truths.

    ``preds`` must already be sorted by descending score; only the top
    five are considered. For each of them, in order, the result holds
    the unmatched ground truth it hits, the one with the highest overlap
    among those satisfying the variant's constraints (earliest ground
    truth on exact overlap ties), or None.
    ``overlaps`` holds the IoU of each of those five predictions with
    each ground truth, as ``_overlaps`` builds it, so that several
    variants can share it; it is built here when not given.
    """
    for earlier, later in zip(preds, preds[1:]):
        if later.score > earlier.score:
            raise ValidationError("match_top5: predictions not sorted by descending score")
    top5 = preds[:TOP_K_PER_FRAME]
    if overlaps is None:
        overlaps = _overlaps(top5, gts)
    same_noun, same_verb, near_box, near_ttc = _RULES[variant]
    matched = [False] * len(gts)
    results: list[ObjectInteraction | None] = []
    for pred, pred_overlaps in zip(top5, overlaps):
        inter = pred.interaction
        best_idx = -1
        best_overlap = -1.0
        for idx, gt in enumerate(gts):
            if matched[idx]:
                continue
            overlap = pred_overlaps[idx]
            if (
                (same_noun and inter.noun != gt.noun)
                or (same_verb and inter.verb != gt.verb)
                or (near_box and overlap < iou_thresh)
                or (near_ttc and not abs(inter.ttc - gt.ttc) < t_delta)
            ):
                continue
            if overlap > best_overlap:
                best_idx, best_overlap = idx, overlap
        if best_idx >= 0:
            matched[best_idx] = True
            results.append(gts[best_idx])
        else:
            results.append(None)
    return results


@dataclass
class ClassResult:
    ap: float  # scaled by 100
    n_gt: int
    n_pred: int


@dataclass
class EvalReport:
    variant: Variant
    map_value: float  # scaled by 100
    per_class: dict[str, ClassResult] = field(default_factory=dict)
    n_frames: int = 0
    n_predictions: int = 0


def _canonical_top5(preds: Sequence[Prediction]) -> list[Prediction]:
    # a stable sort: tied scores keep their input order
    return sorted(preds, key=lambda pred: -pred.score)[:TOP_K_PER_FRAME]


def _average_precision(scored_hits: list[tuple[float, int]], n_positive: int) -> float:
    """All-point interpolated AP over (score, hit) items sorted by rank; a hit is 1 or 0.

    Precision/recall points are taken once per distinct score value, so
    the result is independent of how ties were ordered upstream.
    """
    if n_positive <= 0 or not scored_hits:
        return 0.0
    recalls, precisions = [], []
    tp = ranked = 0
    for _, tied in groupby(scored_hits, key=itemgetter(0)):
        for _, hit in tied:
            tp += hit
            ranked += 1
        recalls.append(tp / n_positive)
        precisions.append(tp / ranked)
    # interpolated precision: the best precision at this recall or beyond
    interpolated = list(accumulate(reversed(precisions), max))[::-1]
    ap = 0.0
    for recall, prev_recall, precision in zip(recalls, [0.0, *recalls], interpolated):
        ap += (recall - prev_recall) * precision
    return ap


def top5_map(
    preds: Mapping,
    gts: Mapping,
    variants: Sequence[Variant],
    iou_thresh: float = 0.5,
    t_delta: float = 0.25,
) -> list[EvalReport]:
    """Dataset-level Top-5 mAP of each of ``variants``, in one pass over the frames.

    ``preds`` maps an orderable frame key to a list of Prediction;
    ``gts`` maps frame keys to lists of ObjectInteraction. Frames
    present only in ``preds`` are evaluated against an empty ground
    truth (all misses); frames present only in ``gts`` contribute
    positives. Each frame's Top-5 cut and overlaps are taken once for
    all variants, and the scored predictions are grouped by class key
    once per kind of key (noun, ``noun,verb``, verb). Returns one report
    per entry of ``variants``, in order, so a repeated variant gets its
    own equal report. ``iou_thresh`` and ``t_delta`` follow the rules of
    their config keys.
    """
    if not (type(iou_thresh) is float and 0.0 <= iou_thresh <= 1.0):
        iou_thresh = FRACTION(iou_thresh, "iou_thresh")
    if not (type(t_delta) is float and 0.0 <= t_delta < math.inf):
        t_delta = NON_NEGATIVE(t_delta, "t_delta")
    # every scored prediction in frame then rank order, and per variant whether each hit
    scored: list[Prediction] = []
    hits = [bytearray() for _ in variants]
    all_keys = sorted(set(preds) | set(gts))
    for frame_key in all_keys:
        frame_preds = _canonical_top5(preds.get(frame_key, []))
        frame_gts = list(gts.get(frame_key, []))
        overlaps = _overlaps(frame_preds, frame_gts)
        for variant, variant_hits in zip(variants, hits):
            variant_hits.extend(
                gt is not None
                for gt in match_top5(frame_preds, frame_gts, variant, iou_thresh, t_delta, overlaps)
            )
        scored.extend(frame_preds)
    scores = [pred.score for pred in scored]
    kinds: dict[tuple[bool, bool], list[int]] = defaultdict(list)
    for at, variant in enumerate(variants):
        kinds[_RULES[variant][:2]].append(at)  # the labels the variant's class keys join
    reports: dict[int, EvalReport] = {}
    for ats in kinds.values():
        # a kind's variants share one grouping, dropped before the next kind's is built
        gt_counts, per_class = _grouped(variants[ats[0]], scored, scores, gts)
        for at in ats:
            reports[at] = _variant_report(variants[at], hits[at], scores, gt_counts, per_class, len(all_keys))
        del gt_counts, per_class
    return [reports[at] for at in range(len(variants))]


def _grouped(variant: Variant, scored: list[Prediction], scores: list[float], gts: Mapping):
    """Per class key of ``variant``: its ground-truth count, and its predictions' positions in ``scored`` by rank.

    Variants whose rules compare the same labels have the same class keys, so they share this grouping.
    """
    gt_counts = Counter(class_key(gt.noun, gt.verb, variant) for frame_gts in gts.values() for gt in frame_gts)
    per_class: dict[str, list[int]] = defaultdict(list)
    for at, pred in enumerate(scored):
        per_class[class_key(pred.interaction.noun, pred.interaction.verb, variant)].append(at)
    for positions in per_class.values():
        positions.sort(key=scores.__getitem__, reverse=True)  # stable: score ties stay in frame, then rank order
    return gt_counts, per_class


def _variant_report(
    variant: Variant, hits: bytearray, scores: list[float], gt_counts: Counter, ranked: Mapping, n_frames: int
) -> EvalReport:
    """One variant's per-class AP and mAP from the hits of the scored predictions, grouped by ``_grouped``."""
    per_class: dict[str, ClassResult] = {}
    ap_values = []
    for key in sorted(gt_counts):
        items = [(scores[at], hits[at]) for at in ranked.get(key, ())]
        ap = _average_precision(items, gt_counts[key])
        per_class[key] = ClassResult(ap=100.0 * ap, n_gt=gt_counts[key], n_pred=len(items))
        ap_values.append(ap)

    map_value = 100.0 * (sum(ap_values) / len(ap_values)) if ap_values else 0.0
    return EvalReport(
        variant=variant,
        map_value=map_value,
        per_class=per_class,
        n_frames=n_frames,
        n_predictions=len(scores),
    )


@dataclass
class QualityReport:
    """Context-quality summary against per-frame ground-truth interactions."""

    exact_noun_hits: float
    exact_verb_hits: float
    avg_embed_sim_noun: float
    avg_embed_sim_verb: float
    frame_coverage: float
    salient_precision: float
    salient_recall: float
    n_frames: int
    missing_embeddings: int


def _mean_direction(words: list[str], table: EmbeddingTable) -> tuple[np.ndarray | None, int]:
    """Normalized mean of the words' vectors; returns (vector|None, missing count)."""
    vectors = []
    missing = 0
    for word in words:
        vec = table.lookup(word)
        if vec is None:
            missing += 1
        else:
            vectors.append(vec)
    if not vectors:
        return None, missing
    # bit for bit np.mean(vectors, axis=0) and np.linalg.norm(mean), without their wrappers:
    # both add the rows in order and take the root of the dot product
    mean = sum(vectors[1:], vectors[0]) / len(vectors)
    norm = math.sqrt(mean @ mean)
    if norm == 0.0:
        # a nonzero mean whose squared norm underflows to 0: scale its
        # largest value to 1 first, which leaves the direction as it was
        largest = float(np.abs(mean).max())
        if largest == 0.0:
            return None, missing
        mean = mean / largest
        norm = math.sqrt(mean @ mean)
    return mean / norm, missing


_NO_CONTEXT = ActionContext((), (), (), "")


def _quality_frames(contexts: Mapping, gts: Mapping):
    """Each ground-truth frame in key order, as quality reads it.

    Yields the frame's context (empty when it has none), the context's
    noun labels, verb labels and noun words, and the frame's entries.
    Quality looks up the noun words, the verb labels and each entry's noun
    and verb: ``context_quality`` and ``quality_words`` both read the
    frames from here, so the words a table keeps are the words looked up.
    """
    for key in sorted(gts):
        ctx = contexts.get(key, _NO_CONTEXT)
        pairs = ctx.action_segments
        noun_labels = [pair.noun for pair in pairs]
        noun_labels += ctx.held_objects
        noun_labels += ctx.salient_objects
        # the labels' words in order: joined by spaces, no two labels' words run together
        yield ctx, noun_labels, [pair.verb for pair in pairs], " ".join(noun_labels).split(), gts[key]


def quality_words(contexts: Mapping, gts: Mapping) -> set[str]:
    """Every word ``context_quality(contexts, gts, table)`` looks up in ``table``.

    ``load_embeddings`` given this set keeps only these words' vectors.
    """
    words: set[str] = set()
    for _, _, verb_labels, noun_words, entries in _quality_frames(contexts, gts):
        words.update(noun_words, verb_labels)
        for gt in entries:
            words.add(gt.noun)
            words.add(gt.verb)
    return words


def context_quality(
    contexts: Mapping,
    gts: Mapping,
    table: EmbeddingTable,
) -> QualityReport:
    """Score generated contexts against ground truth, one unit per entry.

    ``gts`` maps orderable frame keys to lists of ObjectInteraction, as
    for ``top5_map``; ``contexts`` maps the same keys to ActionContext
    (missing keys count as empty contexts, keys absent from ``gts`` are
    ignored). Embedding similarities average the context words' vectors
    before comparing with the ground-truth word; words absent from the
    table are skipped and counted, at each of the four lookups per entry
    (context nouns, context verbs, ground-truth noun and verb) even where
    a direction is reused: a frame's context and a ground-truth label
    each have their directions taken once. A table that ``load_embeddings``
    read with ``words`` must hold ``quality_words(contexts, gts)``.
    """
    n = sum(len(entries) for entries in gts.values())
    if n == 0:
        return QualityReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0)

    noun_hits = verb_hits = covered = recall_hits = 0
    salient_slots = salient_matches = 0
    noun_sims: list[float] = []
    verb_sims: list[float] = []
    missing = 0
    label_dirs: dict[str, tuple[np.ndarray | None, int]] = {}  # ground-truth label -> direction

    for ctx, noun_labels, verb_labels, noun_words, entries in _quality_frames(contexts, gts):
        ctx_noun_dir, miss_a = _mean_direction(noun_words, table)
        ctx_verb_dir, miss_b = _mean_direction(verb_labels, table)

        for gt in entries:
            if noun_labels or verb_labels:
                covered += 1
            if gt.noun in noun_labels:
                noun_hits += 1
            if gt.verb in verb_labels:
                verb_hits += 1
            salient_slots += len(ctx.salient_objects)
            salient_matches += ctx.salient_objects.count(gt.noun)
            if gt.noun in ctx.salient_objects:
                recall_hits += 1

            for label in (gt.noun, gt.verb):
                if label not in label_dirs:
                    label_dirs[label] = _mean_direction([label], table)
            gt_noun_dir, miss_c = label_dirs[gt.noun]
            gt_verb_dir, miss_d = label_dirs[gt.verb]
            missing += miss_a + miss_b + miss_c + miss_d
            if ctx_noun_dir is not None and gt_noun_dir is not None:
                noun_sims.append(float(np.dot(ctx_noun_dir, gt_noun_dir)))
            if ctx_verb_dir is not None and gt_verb_dir is not None:
                verb_sims.append(float(np.dot(ctx_verb_dir, gt_verb_dir)))

    return QualityReport(
        exact_noun_hits=noun_hits / n,
        exact_verb_hits=verb_hits / n,
        avg_embed_sim_noun=sum(noun_sims) / len(noun_sims) if noun_sims else 0.0,
        avg_embed_sim_verb=sum(verb_sims) / len(verb_sims) if verb_sims else 0.0,
        frame_coverage=covered / n,
        salient_precision=salient_matches / salient_slots if salient_slots else 0.0,
        salient_recall=recall_hits / n,
        n_frames=n,
        missing_embeddings=missing,
    )
