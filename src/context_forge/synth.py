"""Synthetic scenarios and independent brute-force references.

Everything here is deliberately naive and shares no logic with the
production paths it checks: the aggregation reference rescans the whole
stream per term, the average-precision reference enumerates score
thresholds and recounts from scratch, and the attention/loss references
use explicit Python loops. The one exception is the summarization
reference: it aggregates with the brute-force reference above, but
reuses the per-category term projection, extraction, overlap-elimination,
selection and assembly steps (each tested on its own), and re-resolves
every segment of the video at every frame, where the pipeline freezes
settled overlap components. Scenario generation runs
on SplitMix64, a fixed and documented PRNG, so identical seeds produce
identical scenarios on any platform or implementation.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from .aggregation import SelectionMode, context_for_frame, eliminate_overlaps
from .assembly import assemble
from .core import (
    AT_LEAST_ONE,
    ActionContext,
    ActionPair,
    BoundingBox,
    Category,
    FrameRecord,
    ObjectInteraction,
    PosTag,
    Prediction,
    Segment,
    SummarizerConfig,
    TaggedToken,
    Term,
    ValidationError,
    term_text,
)
from .extraction import FrameContext, extract_frame_context
from .metrics import Variant


class SplitMix64:
    """SplitMix64 pseudo-random generator.

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state; z <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9
    z <- (z XOR (z >> 27)) * 0x94D049BB133111EB
    output: z XOR (z >> 31)

    ``uniform`` maps the top 53 bits to [0, 1); ``randint`` reduces
    modulo the range size (the bias is irrelevant at these range sizes
    and keeps the algorithm trivially portable).
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = seed & self._MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], endpoints included."""
        if hi < lo:
            raise ValidationError(f"randint: empty range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)

    def choice(self, seq: Sequence):
        if not seq:
            raise ValidationError("choice from empty sequence")
        return seq[self.randint(0, len(seq) - 1)]


def scenario_terms(n_terms: int) -> dict[Category, list[Term]]:
    return {
        Category.ACTION: [ActionPair(f"verb{i:02d}", f"noun{i:02d}") for i in range(n_terms)],
        Category.HELD: [f"held{i:02d}" for i in range(n_terms)],
        Category.SALIENT: [f"object{i:02d}" for i in range(n_terms)],
    }


# the range of frames between two planted segments of one category
_GAP_FRAMES = (16, 45)


def gen_scenario(
    seed: int,
    n_frames: int = 600,
    n_terms: int = 4,
    drop_rate: float = 0.0,
    spurious_rate: float = 0.0,
    segment_frames: tuple[int, int] = (60, 90),
) -> tuple[list[Segment], list[FrameContext]]:
    """Plant non-overlapping segments per category and emit a noisy stream.

    Per frame and category, in ``Category`` order, the planted term is
    dropped independently with probability ``drop_rate``; with probability
    ``spurious_rate`` a uniformly random term of the category is injected
    (replacing the action, or joining the held/salient sets). Fully
    determined by ``seed``.
    """
    if not (0.0 <= drop_rate < 1.0 and 0.0 <= spurious_rate < 1.0):
        raise ValidationError("noise rates must lie in [0, 1)")
    AT_LEAST_ONE(n_terms, "n_terms")
    AT_LEAST_ONE(n_frames, "n_frames")
    rng = SplitMix64(seed)
    terms = scenario_terms(n_terms)

    planted: list[Segment] = []
    noise: list[tuple[dict[int, Term], list[Term]]] = []  # per category: planted term by frame, all terms
    for category in Category:
        occupancy: dict[int, Term] = {}
        cursor = rng.randint(0, 9)
        while True:
            length = rng.randint(*segment_frames)
            if cursor + length > n_frames:
                break
            term = rng.choice(terms[category])
            planted.append(
                Segment(
                    category=category,
                    term=term,
                    start_frame=cursor,
                    end_frame=cursor + length - 1,
                    occurrences=length,
                    active=False,
                )
            )
            for f in range(cursor, cursor + length):
                occupancy[f] = term
            cursor += length + rng.randint(*_GAP_FRAMES)
        noise.append((occupancy, terms[category]))

    stream: list[FrameContext] = []
    for f in range(n_frames):
        drawn: list[list[Term]] = []
        for occupancy, choices in noise:
            observed = []
            planted_term = occupancy.get(f)
            if planted_term is not None and rng.uniform() >= drop_rate:
                observed.append(planted_term)
            if rng.uniform() < spurious_rate:
                observed.append(rng.choice(choices))
            drawn.append(observed)
        action, held, salient = drawn
        stream.append(FrameContext(f, action[-1] if action else None, frozenset(held), frozenset(salient)))
    return planted, stream


def scenario_to_frame_records(stream: Sequence[FrameContext], video_id: str) -> list[FrameRecord]:
    """Render a context stream as raw frame records that extract back exactly.

    Action pairs become a one-caption verb+noun token sequence, salient
    labels become uniform-score classifier outputs, and held labels
    become coincident active/detection box pairs.
    """
    records = []
    for ctx in stream:
        captions: tuple = ()
        if ctx.action is not None:
            captions = (
                (
                    TaggedToken(ctx.action.verb, ctx.action.verb, PosTag.VERB),
                    TaggedToken(ctx.action.noun, ctx.action.noun, PosTag.NOUN),
                ),
            )
        label_scores = {label: 0.9 for label in sorted(ctx.salient)}
        active_boxes = []
        detections = []
        for i, label in enumerate(sorted(ctx.held)):
            box = BoundingBox(20.0 * i, 0.0, 20.0 * i + 10.0, 10.0)
            active_boxes.append(box)
            detections.append((label, box, 0.9))
        records.append(
            FrameRecord(
                video_id=video_id,
                frame_id=ctx.frame_id,
                captions=captions,
                label_scores=label_scores,
                active_boxes=tuple(active_boxes),
                detections=tuple(detections),
            )
        )
    return records


def category_stream(
    stream: Sequence[FrameContext], category: Category
) -> list[tuple[int, list[Term]]]:
    """Project a context stream onto one category's (frame, terms) stream."""
    return [(ctx.frame_id, ctx.terms(category)) for ctx in stream]


def oracle_aggregate(
    stream: Sequence[tuple[int, Iterable[Term]]],
    p_o: int,
    p_l: int,
    category: Category = Category.ACTION,
) -> list[Segment]:
    """Reference aggregator: per-term full rescans of the whole stream."""
    if p_o < 1 or p_l < 0:
        raise ValidationError(f"bad acceptance parameters p_o={p_o}, p_l={p_l}")
    frames = [frame_id for frame_id, _ in stream]
    for a, b in zip(frames, frames[1:]):
        if b <= a:
            raise ValidationError(f"frame ids must be strictly increasing: {b} after {a}")
    if not frames:
        return []
    horizon = frames[-1]

    term_sets = [(frame_id, set(terms)) for frame_id, terms in stream]
    all_terms: set[Term] = set().union(*(terms for _, terms in term_sets))

    segments = []
    for term in sorted(all_terms, key=term_text):
        occurrences = [frame_id for frame_id, terms in term_sets if term in terms]
        runs: list[list[int]] = []
        for frame_id in occurrences:
            if runs and frame_id - runs[-1][-1] <= p_l:
                runs[-1].append(frame_id)
            else:
                runs.append([frame_id])
        for run in runs:
            if len(run) < p_o:
                continue
            segments.append(
                Segment(
                    category=category,
                    term=term,
                    start_frame=run[0],
                    end_frame=run[-1],
                    occurrences=len(run),
                    active=horizon - run[-1] <= p_l,
                )
            )
    segments.sort(key=lambda s: (s.start_frame, s.end_frame, term_text(s.term)))
    return segments


def oracle_summarize_video(
    video_id: str, frames: Sequence[FrameRecord], cfg: SummarizerConfig
) -> list[tuple[str, int, ActionContext]]:
    """Reference for ``pipeline.summarize_video``'s contexts.

    At every frame it aggregates every processed frame before it afresh
    and resolves overlaps over the result, so its cost grows quadratically
    with video length; keep inputs short.
    """
    modes = {
        Category.ACTION: SelectionMode.CURRENT_AND_PAST,
        Category.HELD: SelectionMode.CURRENT_AND_PAST,
        Category.SALIENT: SelectionMode.CURRENT_ONLY,
    }
    # each category's (frame, terms) stream of the processed frames before t
    streams: dict[Category, list[tuple[int, list[Term]]]] = {c: [] for c in Category}
    results = []
    for record in sorted(frames, key=lambda r: r.frame_id):
        t = record.frame_id
        # the empty frame t is the horizon, so activity is decided at t
        terms = [
            context_for_frame(
                eliminate_overlaps(oracle_aggregate(
                    streams[c] + [(t, [])], cfg.p_o.get(c), cfg.p_l.get(c), c
                )),
                t,
                cfg.context_lengths.get(c),
                modes[c],
            )
            for c in Category
        ]
        results.append((video_id, t, assemble(*terms)))
        if t % cfg.stride == 0:
            ctx = extract_frame_context(record, cfg)
            for c in Category:
                streams[c].append((t, ctx.terms(c)))
    return results


def segment_recovered(planted: Segment, found: Iterable[Segment], tolerance: int) -> bool:
    """True when some found segment matches the planted term with both
    boundaries within ``tolerance`` frames."""
    return any(
        seg.term == planted.term
        and abs(seg.start_frame - planted.start_frame) <= tolerance
        and abs(seg.end_frame - planted.end_frame) <= tolerance
        for seg in found
    )


_ORACLE_MAX_FRAMES = 10
_ORACLE_MAX_PREDS = 5


def _oracle_iou(a: BoundingBox, b: BoundingBox) -> float:
    left = max(a.x1, b.x1)
    right = min(a.x2, b.x2)
    top = max(a.y1, b.y1)
    bottom = min(a.y2, b.y2)
    if right <= left or bottom <= top:
        return 0.0
    inter = (right - left) * (bottom - top)
    area_a = (a.x2 - a.x1) * (a.y2 - a.y1)
    area_b = (b.x2 - b.x1) * (b.y2 - b.y1)
    return inter / (area_a + area_b - inter)


def _oracle_ok(pred: ObjectInteraction, gt: ObjectInteraction, variant: Variant,
               iou_thresh: float, t_delta: float) -> bool:
    overlap = _oracle_iou(pred.box, gt.box)
    if variant is Variant.NOUN:
        return overlap >= iou_thresh and pred.noun == gt.noun
    if variant is Variant.NOUN_VERB:
        return overlap >= iou_thresh and pred.noun == gt.noun and pred.verb == gt.verb
    if variant is Variant.NOUN_TTC:
        return overlap >= iou_thresh and pred.noun == gt.noun and abs(pred.ttc - gt.ttc) < t_delta
    if variant is Variant.OVERALL:
        return (
            overlap >= iou_thresh
            and pred.noun == gt.noun
            and pred.verb == gt.verb
            and abs(pred.ttc - gt.ttc) < t_delta
        )
    if variant is Variant.NOUN_ONLY:
        return pred.noun == gt.noun
    return pred.verb == gt.verb


def _oracle_class(pred_or_gt: ObjectInteraction, variant: Variant) -> str:
    if variant in (Variant.NOUN, Variant.NOUN_TTC, Variant.NOUN_ONLY):
        return pred_or_gt.noun
    if variant is Variant.VERB_ONLY:
        return pred_or_gt.verb
    return f"{pred_or_gt.noun},{pred_or_gt.verb}"


def oracle_ap(
    preds: Mapping,
    gts: Mapping,
    variant: Variant,
    iou_thresh: float = 0.5,
    t_delta: float = 0.25,
) -> float:
    """Exact mean AP (scaled by 100) via explicit score-threshold enumeration.

    Refuses instances larger than 10 frames or 5 predictions per frame;
    the whole point is to stay small enough to be obviously correct.
    """
    keys = sorted(set(preds) | set(gts))
    if len(keys) > _ORACLE_MAX_FRAMES:
        raise ValidationError(f"oracle refuses instances over {_ORACLE_MAX_FRAMES} frames")

    flagged: list[tuple[float, bool, object, int, str]] = []
    gt_classes: dict[str, int] = {}
    for key in keys:
        frame_gts = list(gts.get(key, []))
        for gt in frame_gts:
            cls = _oracle_class(gt, variant)
            gt_classes[cls] = gt_classes.get(cls, 0) + 1
        frame_preds = list(preds.get(key, []))
        if len(frame_preds) > _ORACLE_MAX_PREDS:
            raise ValidationError(f"oracle refuses frames with over {_ORACLE_MAX_PREDS} predictions")
        order = sorted(range(len(frame_preds)), key=lambda i: (-frame_preds[i].score, i))
        taken = [False] * len(frame_gts)
        for rank, i in enumerate(order[:5]):
            pred = frame_preds[i]
            best = -1
            best_overlap = -1.0
            for j, gt in enumerate(frame_gts):
                if taken[j]:
                    continue
                if not _oracle_ok(pred.interaction, gt, variant, iou_thresh, t_delta):
                    continue
                overlap = _oracle_iou(pred.interaction.box, gt.box)
                if overlap > best_overlap:
                    best, best_overlap = j, overlap
            hit = best >= 0
            if hit:
                taken[best] = True
            flagged.append(
                (pred.score, hit, key, rank, _oracle_class(pred.interaction, variant))
            )

    ap_values = []
    for cls in sorted(gt_classes):
        n_positive = gt_classes[cls]
        items = sorted(
            [f for f in flagged if f[4] == cls], key=lambda f: (-f[0], f[2], f[3])
        )
        if not items:
            ap_values.append(0.0)
            continue
        thresholds = sorted({score for score, *_ in items}, reverse=True)
        points = []
        for threshold in thresholds:
            subset = [f for f in items if f[0] >= threshold]
            tp = sum(1 for f in subset if f[1])
            fp = len(subset) - tp
            points.append((tp / n_positive, tp / (tp + fp)))
        ap = 0.0
        prev_recall = 0.0
        for idx, (recall, _) in enumerate(points):
            best_precision = max(p for _, p in points[idx:])
            ap += (recall - prev_recall) * best_precision
            prev_recall = recall
        ap_values.append(ap)

    if not ap_values:
        return 0.0
    return 100.0 * (sum(ap_values) / len(ap_values))


_NOUNS = ("knife", "cup", "wood", "tomato", "drawer", "phone")
_VERBS = ("take", "cut", "open", "wash")


def gen_eval_instance(
    seed: int,
    n_frames: int = 6,
    max_preds: int = 4,
) -> tuple[dict, dict]:
    """Random small evaluation instance: (preds by frame, gts by frame).

    Box coordinates land on a 0.05 grid and scores on a 1e-4 grid, so
    comparisons in the metric sit far from floating-point knife edges.
    """
    if n_frames > _ORACLE_MAX_FRAMES or max_preds > _ORACLE_MAX_PREDS:
        raise ValidationError("instance would exceed the oracle's size limits")
    rng = SplitMix64(seed)

    def grid(lo: float, hi: float) -> float:
        steps = int(round((hi - lo) / 0.05))
        return lo + 0.05 * rng.randint(0, steps)

    def random_box() -> BoundingBox:
        x1 = grid(0.0, 6.0)
        y1 = grid(0.0, 6.0)
        return BoundingBox(x1, y1, x1 + grid(0.5, 4.0), y1 + grid(0.5, 4.0))

    def jitter(box: BoundingBox) -> BoundingBox:
        dx = 0.05 * rng.randint(-8, 8)
        dy = 0.05 * rng.randint(-8, 8)
        return BoundingBox(
            max(0.0, box.x1 + dx), max(0.0, box.y1 + dy), box.x2 + dx + 0.05, box.y2 + dy + 0.05
        )

    preds: dict = {}
    gts: dict = {}
    for frame_id in range(n_frames):
        key = ("synth", frame_id)
        frame_gts = []
        for _ in range(rng.randint(1, 2)):
            frame_gts.append(
                ObjectInteraction(
                    box=random_box(),
                    noun=rng.choice(_NOUNS),
                    verb=rng.choice(_VERBS),
                    ttc=0.1 * rng.randint(1, 20),
                )
            )
        frame_preds = []
        for _ in range(rng.randint(0, max_preds)):
            if frame_gts and rng.uniform() < 0.7:
                target = rng.choice(frame_gts)
                box = jitter(target.box)
                noun = target.noun if rng.uniform() < 0.7 else rng.choice(_NOUNS)
                verb = target.verb if rng.uniform() < 0.6 else rng.choice(_VERBS)
                ttc = target.ttc + 0.05 * rng.randint(-8, 8)
            else:
                box = random_box()
                noun = rng.choice(_NOUNS)
                verb = rng.choice(_VERBS)
                ttc = 0.1 * rng.randint(1, 20)
            frame_preds.append(
                Prediction(
                    interaction=ObjectInteraction(box=box, noun=noun, verb=verb, ttc=max(0.05, ttc)),
                    score=rng.randint(0, 9999) / 9999.0,
                )
            )
        preds[key] = frame_preds
        gts[key] = frame_gts
    return preds, gts


def reference_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Double-loop scaled dot-product attention."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    n_q, d_k = q.shape
    n_k = k.shape[0]
    out = np.zeros((n_q, v.shape[1]))
    for i in range(n_q):
        scores = np.empty(n_k)
        for j in range(n_k):
            s = 0.0
            for c in range(d_k):
                s += q[i, c] * k[j, c]
            scores[j] = s / np.sqrt(d_k)
        m = scores.max()
        weights = np.exp(scores - m)
        weights /= weights.sum()
        for j in range(n_k):
            out[i] += weights[j] * v[j]
    return out


def reference_multi_head(z: np.ndarray, w_heads: np.ndarray, w_out: np.ndarray) -> np.ndarray:
    """Sequential per-head reference for the multi-head projection."""
    z = np.asarray(z, dtype=np.float64)
    pieces = []
    for i in range(w_heads.shape[0]):
        projected = z @ w_heads[i]
        pieces.append(reference_attention(projected, projected, projected))
    return np.concatenate(pieces, axis=1) @ w_out


def reference_loss_terms(
    cls_probs,
    cls_targets,
    boxes,
    box_targets,
    noun_logits,
    noun_targets,
    verb_logits,
    verb_targets,
    ttc_pred,
    ttc_gt,
    lam: float,
    n_cls: int,
    n_reg: int,
) -> dict[str, float]:
    """Each objective term computed independently with explicit loops."""
    probs = np.asarray(cls_probs, dtype=np.float64)
    p_star = np.asarray(cls_targets, dtype=np.float64)
    loss_cls = 0.0
    for p, t in zip(probs, p_star):
        loss_cls += -(t * np.log(p) + (1.0 - t) * np.log(1.0 - p))
    loss_cls /= n_cls

    b = np.asarray(boxes, dtype=np.float64)
    b_star = np.asarray(box_targets, dtype=np.float64)
    reg = 0.0
    for i in range(b.shape[0]):
        if p_star[i] != 1.0:
            continue
        for c in range(4):
            d = abs(b[i, c] - b_star[i, c])
            reg += 0.5 * d * d if d < 1.0 else d - 0.5
    loss_reg = lam / n_reg * reg

    def ce(logits, targets) -> float:
        logits = np.asarray(logits, dtype=np.float64)
        total = 0.0
        for row, target in zip(logits, targets):
            m = row.max()
            log_z = m + np.log(np.exp(row - m).sum())
            total += log_z - row[target]
        return total / len(targets) if len(targets) else 0.0

    loss_noun = ce(noun_logits, noun_targets)
    loss_verb = ce(verb_logits, verb_targets)

    t_pred = np.asarray(ttc_pred, dtype=np.float64)
    t_gt = np.asarray(ttc_gt, dtype=np.float64)
    loss_ttc = float(np.mean([abs(a - b) for a, b in zip(t_pred, t_gt)])) if t_pred.size else 0.0

    return {
        "box": float(loss_cls + loss_reg),
        "noun": float(loss_noun),
        "verb": float(loss_verb),
        "ttc": float(loss_ttc),
    }
