"""Seeded input files for the benchmark workloads.

Every workload runs the same four CLI commands (summarize, evaluate,
quality, fuse-check); a workload only chooses how large each command's
input is and how much of the measured time each command gets. The
program under test sees nothing but the files written here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

COMMANDS = ("summarize", "evaluate", "quality", "fuse-check")

# Noise of the summarize scenarios: four terms per category, 10% of planted
# terms dropped and 5% spurious terms injected per frame.
N_TERMS = 4
DROP_RATE = 0.1
SPURIOUS_RATE = 0.05

# Largest instance synth.gen_eval_instance (and its oracle) accepts.
DRAW_FRAMES = 10
DRAW_PREDS = 5

# Fusion bundles as (P, C, H, W) scale shapes plus model sizes. "small" is
# the fuse-check default; "large" makes the kernel, not Python call
# overhead, dominate one invocation.
BUNDLES = {
    "small": dict(
        scale_shapes=((4, 3, 16, 16), (4, 3, 8, 8), (2, 3, 8, 8), (1, 3, 4, 4)),
        d_model=16,
        n_heads=4,
        n_layers=2,
    ),
    "large": dict(
        scale_shapes=((4, 3, 32, 32), (4, 3, 16, 16), (2, 3, 16, 16), (1, 3, 8, 8)),
        d_model=64,
        n_heads=8,
        n_layers=4,
    ),
}

# Context labels that the embedding table leaves out, so quality takes its
# missing-word path on every run.
_UNKNOWN_LABELS = ("sponge", "kettle lid")


@dataclass(frozen=True)
class Workload:
    """Input sizes of the four commands and each command's share of run time."""

    videos: int
    frames_per_video: int
    videos_per_part: int  # summarize is timed on part files of this many videos each
    draws: int  # gen_eval_instance draws of DRAW_FRAMES ground-truth frames each
    words: int  # rows of the embedding table
    bundle: str
    shares: dict

    @property
    def focus(self) -> tuple[str, ...]:
        """Commands the workload is about: those with the largest share."""
        top = max(self.shares.values())
        return tuple(c for c in COMMANDS if self.shares[c] == top)


def _shares(focus: tuple[str, ...], focus_total: float) -> dict:
    others = [c for c in COMMANDS if c not in focus]
    shares = {c: focus_total / len(focus) for c in focus}
    shares.update({c: (1.0 - focus_total) / len(others) for c in others})
    return shares


# Why each workload exists is in BENCHMARK.json. The companion inputs
# (12 x 300 frames, 50 draws, 500 words, small bundle) keep every command,
# and so every metric and span, present on every workload. They are small
# so that each companion gets dozens of invocations in its share of a run,
# for the median its gated metric is taken from. The companion frames are
# twelve videos, not two: over 5 seeds, summarize frames/s on two videos of
# 300 frames spread 0.12 (interquartile range over median), mostly from
# the inputs.
#
# summarize-long uses twelve videos of 1125 frames rather than one of
# 4500. Summarize work per video grows faster than the video's count of
# accepted segments, and that count varies from seed to seed: the work of
# one video (Python calls made) varies by 0.13-0.15 (standard deviation
# over mean, 24 seeds) at 1125, 1500 and 2250 frames alike, while one
# video of 1125 frames takes a quarter of the time of one of 2250. Twelve
# short videos average that variation down to about 0.05 (interquartile
# range over median) in the time two long ones take, which spread 0.21.
#
# The summarize inputs are also written as part files of
# ``videos_per_part`` videos, and summarize is timed on the parts, taken
# in turn: short invocations give each input many samples in a run.
WORKLOADS = {
    "summarize-long": Workload(
        videos=12, frames_per_video=1125, videos_per_part=1, draws=50, words=500, bundle="small",
        shares=_shares(("summarize",), 0.75),
    ),
    "summarize-multi": Workload(
        videos=40, frames_per_video=300, videos_per_part=5, draws=50, words=500, bundle="small",
        shares=_shares(("summarize",), 0.7),
    ),
    "score": Workload(
        videos=12, frames_per_video=300, videos_per_part=3, draws=250, words=1000, bundle="small",
        shares=_shares(("evaluate", "quality"), 0.8),
    ),
    "fuse-check": Workload(
        videos=12, frames_per_video=300, videos_per_part=3, draws=50, words=500, bundle="large",
        shares=_shares(("fuse-check",), 0.6),
    ),
}


@dataclass(frozen=True)
class Inputs:
    """Paths and expected sizes of one workload's generated inputs."""

    frames: Path
    n_frames: int
    frame_parts: tuple[Path, ...]  # the videos of ``frames``, in order, videos_per_part per file
    preds: Path
    gt: Path
    gt_frames: int
    gt_entries: int
    contexts: Path
    embeddings: Path
    bundle: Path
    draw_seeds: tuple[int, ...]


def _draw_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + 7919 * index + 1


def _video_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + 104_729 * index + 2


def _write_lines(path: Path, objs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _write_frames(cf, workload: Workload, seed: int, path: Path) -> tuple[int, tuple[Path, ...]]:
    """Write all videos to ``path`` and again, split, to part files beside it."""
    records = []
    parts = []
    for v in range(workload.videos):
        _, stream = cf.synth.gen_scenario(
            seed=_video_seed(seed, v),
            n_frames=workload.frames_per_video,
            n_terms=N_TERMS,
            drop_rate=DROP_RATE,
            spurious_rate=SPURIOUS_RATE,
        )
        records.extend(cf.synth.scenario_to_frame_records(stream, f"video{v:03d}"))
    cf.records.write_frame_records(str(path), records)
    per_part = workload.videos_per_part * workload.frames_per_video
    for i in range(0, len(records), per_part):
        parts.append(path.with_name(f"{path.stem}-part{len(parts):02d}{path.suffix}"))
        cf.records.write_frame_records(str(parts[-1]), records[i:i + per_part])
    return len(records), tuple(parts)


def _context(rng: random.Random, nouns: list[str], verbs: list[str]) -> dict:
    pairs = [[rng.choice(verbs), rng.choice(nouns)] for _ in range(rng.randint(0, 3))]
    held = sorted(set(rng.choice(nouns) for _ in range(rng.randint(0, 2))))
    salient = sorted(set(rng.choice(nouns + list(_UNKNOWN_LABELS)) for _ in range(rng.randint(0, 3))))
    sections = [", ".join(f"{v} {n}" for v, n in pairs), ", ".join(held), ", ".join(salient)]
    text = "" if not any(sections) else "; ".join(sections)
    return {"action_terms": pairs, "held": held, "salient": salient, "text": text}


def _write_scoring(cf, workload: Workload, seed: int, out: Path):
    preds: dict = {}
    gts: dict = {}
    seeds = []
    for i in range(workload.draws):
        seeds.append(_draw_seed(seed, i))
        draw_preds, draw_gts = cf.synth.gen_eval_instance(
            seeds[-1], n_frames=DRAW_FRAMES, max_preds=DRAW_PREDS
        )
        video_id = f"draw{i:05d}"
        preds.update({(video_id, frame): v for (_, frame), v in draw_preds.items()})
        gts.update({(video_id, frame): v for (_, frame), v in draw_gts.items()})
    cf.records.write_predictions(str(out / "preds.jsonl"), preds)
    cf.records.write_ground_truth(str(out / "gt.jsonl"), gts)

    nouns = sorted({gt.noun for entries in gts.values() for gt in entries})
    verbs = sorted({gt.verb for entries in gts.values() for gt in entries})
    rng = random.Random(seed)
    contexts = []
    for video_id, frame in sorted(gts):
        if rng.random() < 0.1:
            continue  # quality scores a frame without a context as empty
        contexts.append({"video_id": video_id, "frame_id": frame, **_context(rng, nouns, verbs)})
    _write_lines(out / "contexts.jsonl", contexts)

    words = nouns + verbs + [f"filler{i:05d}" for i in range(max(0, workload.words - len(nouns) - len(verbs)))]
    with open(out / "embeddings.tsv", "w", encoding="utf-8") as fh:
        for word in words:
            fh.write(word + "\t" + "\t".join(f"{rng.gauss(0.0, 1.0):.6f}" for _ in range(300)) + "\n")
    return len(gts), sum(len(v) for v in gts.values()), tuple(seeds)


def generate(cf, workload: Workload, seed: int, out: Path) -> Inputs:
    """Write every input file of ``workload`` for ``seed`` into ``out``.

    ``cf`` is a namespace holding the imported ``synth``, ``records`` and
    ``fusion`` modules of the package under test.
    """
    n_frames, frame_parts = _write_frames(cf, workload, seed, out / "frames.jsonl")
    gt_frames, gt_entries, seeds = _write_scoring(cf, workload, seed, out)
    cf.fusion.save_params(
        str(out / "bundle.bin"), cf.fusion.random_fusion_params(seed, **BUNDLES[workload.bundle])
    )
    return Inputs(
        frames=out / "frames.jsonl",
        n_frames=n_frames,
        frame_parts=frame_parts,
        preds=out / "preds.jsonl",
        gt=out / "gt.jsonl",
        gt_frames=gt_frames,
        gt_entries=gt_entries,
        contexts=out / "contexts.jsonl",
        embeddings=out / "embeddings.tsv",
        bundle=out / "bundle.bin",
        draw_seeds=seeds,
    )
