"""Frame-wise context extraction.

Turns one frame's raw signals into at most one action pair, a set of
held-object labels, and a set of salient-object labels. All functions
are pure; frames can be processed in any order or in parallel.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .core import (
    COUNT,
    FRACTION,
    ActionPair,
    BoundingBox,
    Category,
    FrameRecord,
    PosTag,
    SummarizerConfig,
    TaggedToken,
    Term,
    normalize_label,
)
from .metrics import iou


@dataclass(frozen=True, slots=True)
class FrameContext:
    """Per-frame context: optional action pair plus held/salient label sets."""

    frame_id: int
    action: ActionPair | None
    held: frozenset[str]
    salient: frozenset[str]

    def terms(self, category: Category) -> list[Term]:
        """This frame's terms of one category; held and salient labels sorted."""
        if category is Category.ACTION:
            return [self.action] if self.action is not None else []
        return sorted(self.held if category is Category.HELD else self.salient)


def extract_candidate_pairs(
    tokens: Sequence[TaggedToken],
    d: int,
    noun_vocab: frozenset[str] = frozenset(),
    verb_vocab: frozenset[str] = frozenset(),
) -> list[ActionPair]:
    """Collect verb-noun candidate pairs from one tagged caption.

    A noun pairs with a preceding verb when at most ``d`` tokens lie
    strictly between them. Every pairing is one candidate (duplicates
    included) so downstream frequency counting sees true multiplicity;
    candidates appear in scan order (verb position, then noun position).
    An empty ``noun_vocab`` admits every noun, and an empty ``verb_vocab``
    every verb. ``d`` follows the rule of the config key ``d``.
    """
    if not (type(d) is int and 0 <= d <= sys.maxsize):
        d = COUNT(d, "d")
    pairs: list[ActionPair] = []
    for i, tok in enumerate(tokens):
        if tok.pos is not PosTag.VERB:
            continue
        if verb_vocab and normalize_label(tok.lemma) not in verb_vocab:
            continue
        for j in range(i + 1, min(i + d + 2, len(tokens))):
            other = tokens[j]
            if other.pos is not PosTag.NOUN:
                continue
            noun = normalize_label(other.lemma)
            if noun_vocab and noun not in noun_vocab:
                continue
            pairs.append(ActionPair(verb=tok.lemma, noun=other.lemma))
    return pairs


def select_frame_action(caption_pairs: Sequence[Sequence[ActionPair]]) -> ActionPair | None:
    """Pick the most frequent candidate pair across a frame's captions.

    Ties go to the pair detected first, scanning captions in order.
    Returns None when no caption produced a candidate.
    """
    counts: Counter[ActionPair] = Counter()
    for caption in caption_pairs:
        counts.update(caption)
    # a Counter keeps first-seen order, and max returns the first of equal counts
    return max(counts, key=counts.__getitem__, default=None)


def select_salient(
    label_scores: Mapping[str, float],
    k: int,
    vocab: frozenset[str] = frozenset(),
) -> list[str]:
    """Top-k labels by descending similarity score, ties broken lexicographically.

    Labels outside a non-empty ``vocab`` are ignored; an empty vocab
    admits everything. Fewer than k labels are returned when fewer
    qualify. ``k`` follows the rule of the config key ``k``.
    """
    if not (type(k) is int and 0 <= k <= sys.maxsize):
        k = COUNT(k, "k")
    best_score: dict[str, float] = {}
    for raw, score in label_scores.items():
        label = normalize_label(raw)
        if vocab and label not in vocab:
            continue
        if label not in best_score or score > best_score[label]:
            best_score[label] = score
    scored = sorted(best_score.items(), key=lambda item: (-item[1], item[0]))
    return [label for label, _ in scored[:k]]


def match_held_objects(
    active_boxes: Iterable[BoundingBox],
    detections: Iterable[tuple[str, BoundingBox, float]],
    theta_iou: float,
    merge_table: Mapping[str, str] | None = None,
) -> frozenset[str]:
    """Label the label-less active-object boxes via overlapping detections.

    A detection labels an active box only when their overlap exceeds
    ``theta_iou`` strictly. Each active box contributes at most one
    label: the detection with the highest overlap, with detection score
    and then label as deterministic tie-breaks, so the result does not
    depend on detection order. Labels pass through ``merge_table``
    before inclusion. ``theta_iou`` follows the rule of the config key ``theta_iou``.
    """
    if not (type(theta_iou) is float and 0.0 <= theta_iou <= 1.0):
        theta_iou = FRACTION(theta_iou, "theta_iou")
    merge = merge_table or {}
    labeled = []
    for raw_label, box, score in detections:
        label = normalize_label(raw_label)
        labeled.append((merge.get(label, label), box, score))

    held: set[str] = set()
    for active in active_boxes:
        # max overlap wins; higher score, then lexicographically smaller
        # label break exact ties so detection order never matters
        best: tuple[float, float, str] | None = None
        for label, box, score in labeled:
            overlap = iou(active, box)
            if overlap <= theta_iou:
                continue
            key = (-overlap, -score, label)
            if best is None or key < best:
                best = key
        if best is not None:
            held.add(best[2])
    return frozenset(held)


def extract_frame_context(record: FrameRecord, cfg: SummarizerConfig) -> FrameContext:
    """Run all three extractors over one frame record."""
    action_vocab = cfg.action_noun_vocab
    per_caption = [
        extract_candidate_pairs(caption, cfg.d, action_vocab, cfg.vocab_verb)
        for caption in record.captions
    ]
    action = select_frame_action(per_caption)
    salient = select_salient(record.label_scores, cfg.k, cfg.vocab_noun)
    held = match_held_objects(
        record.active_boxes, record.detections, cfg.theta_iou, cfg.merge_map
    )
    return FrameContext(
        frame_id=record.frame_id,
        action=action,
        held=held,
        salient=frozenset(salient),
    )
