"""Runtime invariant suite for the fusion kernel, used by ``fuse-check``.

Each check pairs a production path with an independent expectation
(brute-force reference, algebraic identity, or exact inverse) and
reports one pass/fail line. Tolerances are part of the contract:
softmax rows and permutation equivariance at 1e-6, reference
comparisons at 1e-12, patch round trips bit-exact. Worst differences
are accumulated with ``np.maximum``, which, unlike ``max``, keeps a NaN,
so a NaN difference prints ``nan`` and fails its check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ValidationError
from .fusion import (
    FusionParams,
    attention,
    fuse,
    fuse_single_scale,
    loss_total,
    patchify,
    regroup,
    row_softmax,
    with_zero_embeddings,
)
from .synth import reference_attention, reference_loss_terms


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_softmax(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(50):
        rows = rng.integers(1, 8)
        cols = rng.integers(1, 8)
        weights = row_softmax(rng.normal(0.0, 5.0, (rows, cols)))
        worst = float(np.maximum(worst, np.abs(weights.sum(axis=1) - 1.0).max()))
    return CheckResult("softmax-row-sums", worst <= 1e-6, f"max |row sum - 1| = {worst:.3e}")


def _check_patch_roundtrip(scales: Sequence[FusionParams], rng: np.random.Generator) -> CheckResult:
    patch_sizes = [p.patch_size for p in scales]
    for trial in range(100):
        patch = patch_sizes[trial % len(patch_sizes)]
        c = int(rng.integers(1, 4))
        h = patch * int(rng.integers(1, 5))
        w = patch * int(rng.integers(1, 5))
        x = rng.normal(0.0, 1.0, (c, h, w))
        back = regroup(patchify(x, patch), h, w, patch, c)
        if not np.array_equal(back, x):
            return CheckResult(
                "patchify-regroup-identity", False, f"mismatch at C={c} H={h} W={w} P={patch}"
            )
        tokens = rng.normal(0.0, 1.0, ((h // patch) * (w // patch), patch * patch * c))
        if not np.array_equal(patchify(regroup(tokens, h, w, patch, c), patch), tokens):
            return CheckResult(
                "patchify-regroup-identity", False, f"token round trip failed at P={patch}"
            )
    return CheckResult("patchify-regroup-identity", True, "bit-exact over 100 random shapes")


def _check_attention_reference(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 6))
        d = int(rng.integers(1, 6))
        q = rng.normal(0.0, 1.0, (n, d))
        k = rng.normal(0.0, 1.0, (n, d))
        v = rng.normal(0.0, 1.0, (n, d))
        diff = np.abs(attention(q, k, v) - reference_attention(q, k, v)).max()
        worst = float(np.maximum(worst, diff))
    return CheckResult("attention-vs-reference", worst <= 1e-12, f"max |diff| = {worst:.3e}")


def _check_attention_convexity(rng: np.random.Generator) -> CheckResult:
    for _ in range(20):
        n = int(rng.integers(1, 6))
        d = int(rng.integers(1, 6))
        v = rng.normal(0.0, 1.0, (n, d))
        out = attention(rng.normal(0.0, 1.0, (n, d)), rng.normal(0.0, 1.0, (n, d)), v)
        lo = v.min(axis=0) - 1e-9
        hi = v.max(axis=0) + 1e-9
        if np.any(out < lo) or np.any(out > hi):
            return CheckResult("attention-convexity", False, "output escaped the V row hull")
    return CheckResult("attention-convexity", True, "outputs stay inside the V row hull")


def _check_fuse_shapes(scales: Sequence[FusionParams], rng: np.random.Generator) -> CheckResult:
    maps = [rng.normal(0.0, 1.0, (p.channels, p.height, p.width)) for p in scales]
    languages = [
        (rng.normal(0.0, 1.0, (3, scales[0].d_lang)), ""),
        (np.zeros((0, scales[0].d_lang)), " with empty language"),
    ]
    for lang, suffix in languages:
        for index, (inp, out) in enumerate(zip(maps, fuse(maps, lang, scales))):
            if inp.shape != out.shape:
                return CheckResult("fuse-shape-contract", False, f"scale {index} changed shape{suffix}")
    return CheckResult("fuse-shape-contract", True, "output shapes equal input shapes (incl. L=0)")


def _permute_patches(fmap: np.ndarray, patch: int, perm: np.ndarray) -> np.ndarray:
    c, h, w = fmap.shape
    return regroup(patchify(fmap, patch)[perm], h, w, patch, c)


def _check_permutation_equivariance(
    scales: Sequence[FusionParams], rng: np.random.Generator
) -> CheckResult:
    zeroed = with_zero_embeddings(scales)
    maps = [rng.normal(0.0, 1.0, (p.channels, p.height, p.width)) for p in zeroed]
    lang = rng.normal(0.0, 1.0, (2, zeroed[0].d_lang))
    base = fuse(maps, lang, zeroed)
    worst = 0.0
    for index, params in enumerate(zeroed):
        perm = rng.permutation(params.n_tokens)
        permuted = _permute_patches(maps[index], params.patch_size, perm)
        shuffled = fuse_single_scale(permuted, lang, params)  # scales fuse independently
        expected = _permute_patches(base[index], params.patch_size, perm)
        worst = float(np.maximum(worst, np.abs(shuffled - expected).max()))
    return CheckResult(
        "permutation-equivariance", worst <= 1e-6, f"max |diff| = {worst:.3e} with zeroed embeddings"
    )


def _check_loss_reference(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(20):
        n_boxes = int(rng.integers(1, 6))
        n_samples = int(rng.integers(1, 6))
        n_noun = int(rng.integers(2, 6))
        n_verb = int(rng.integers(2, 6))
        probs = rng.uniform(0.05, 0.95, n_boxes)
        targets = rng.integers(0, 2, n_boxes).astype(float)
        boxes = rng.normal(0.0, 2.0, (n_boxes, 4))
        box_targets = rng.normal(0.0, 2.0, (n_boxes, 4))
        noun_logits = rng.normal(0.0, 2.0, (n_samples, n_noun))
        noun_targets = rng.integers(0, n_noun, n_samples)
        verb_logits = rng.normal(0.0, 2.0, (n_samples, n_verb))
        verb_targets = rng.integers(0, n_verb, n_samples)
        ttc_pred = rng.uniform(0.0, 2.0, n_samples)
        ttc_gt = rng.uniform(0.0, 2.0, n_samples)
        lam = 11.0
        n_cls, n_reg = 128, 64
        total = loss_total(
            probs, targets, boxes, box_targets, noun_logits, noun_targets,
            verb_logits, verb_targets, ttc_pred, ttc_gt, lam, n_cls, n_reg,
        )
        terms = reference_loss_terms(
            probs, targets, boxes, box_targets, noun_logits, noun_targets,
            verb_logits, verb_targets, ttc_pred, ttc_gt, lam, n_cls, n_reg,
        )
        worst = float(np.maximum(worst, abs(total - sum(terms.values()))))
    return CheckResult("loss-vs-reference", worst <= 1e-12, f"max |diff| = {worst:.3e}")


def run_invariant_checks(scales: Sequence[FusionParams], seed: int = 0) -> list[CheckResult]:
    if not scales:
        raise ValidationError("run_invariant_checks: empty bundle (no scales)")
    rng = np.random.default_rng(seed + 7919)
    return [
        _check_softmax(rng),
        _check_patch_roundtrip(scales, rng),
        _check_attention_reference(rng),
        _check_attention_convexity(rng),
        _check_fuse_shapes(scales, rng),
        _check_permutation_equivariance(scales, rng),
        _check_loss_reference(rng),
    ]
