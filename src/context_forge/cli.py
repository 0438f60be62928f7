"""Command-line entry points.

Subcommands: summarize, evaluate, quality, fuse-check, synth.
Exit codes: 0 ok, 1 validation failure (usage errors included), 2 I/O
failure, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import os
import stat
import sys
import tempfile
import traceback
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from operator import attrgetter
from typing import Callable, Iterator

from . import __version__
from .core import (
    ActionContext,
    ContextForgeError,
    InvariantError,
    SummarizerConfig,
    ValidationError,
    config_hash,
    load_config,
    load_embeddings,
)
from .metrics import EvalReport, Variant, context_quality, top5_map
from .pipeline import VideoStats, summarize_video
from .records import (
    FrameGroup,
    context_to_dict,
    dumps_record,
    frame_groups,
    read_contexts,
    read_frame_records,
    read_group,
    read_ground_truth,
    read_predictions,
    write_frame_records,
)
from .synth import gen_scenario, scenario_to_frame_records

_DEFAULT_VARIANTS = ("n", "nv", "nt", "all")


def _load_config(path: str | None) -> SummarizerConfig:
    return load_config(path) if path else SummarizerConfig()


_COPY_CHUNK = 1 << 20


@contextlib.contextmanager
def _sorted_output(out: str) -> Iterator[Callable[[str, str], None]]:
    """Yield ``write(video_id, text)``; on success ``out`` holds the texts sorted by video id.

    The texts go to a temporary file beside ``out`` (the target of a
    symlinked ``out``), which is renamed onto ``out`` once all are written.
    When the ids did not arrive in ascending order, the texts are first
    copied in sorted order, a chunk at a time, to a second temporary file.
    An existing ``out`` that is not a regular file, such as ``/dev/stdout``,
    is never renamed over: the sorted texts are copied into it. A failed run
    deletes the temporary files, so ``out`` keeps its old contents.
    """
    # mkstemp makes a private file: give the output the mode that opening
    # ``out`` for writing would leave it with
    try:
        st = os.stat(out)
        regular, mode = stat.S_ISREG(st.st_mode), stat.S_IMODE(st.st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        regular, mode = True, 0o666 & ~umask
    target = os.path.realpath(out)
    temps: list[str] = []

    def temp():
        try:
            fd, name = tempfile.mkstemp(prefix=f".{os.path.basename(target)}.", suffix=".tmp",
                                        dir=os.path.dirname(target) if regular else None)
        except OSError as exc:  # name the output, not the temporary file
            raise OSError(exc.errno, exc.strerror, out) from None
        temps.append(name)
        return open(fd, "w+b")

    index: list[tuple[str, int, int]] = []  # (video id, offset, length) of each text
    try:
        with temp() as fh:

            def write(video_id: str, text: str) -> None:
                data = text.encode("utf-8")
                index.append((video_id, fh.tell(), len(data)))
                fh.write(data)

            yield write
            if not regular or index != sorted(index):
                with temp() if regular else open(out, "wb") as dst:
                    for _, offset, length in sorted(index):
                        fh.seek(offset)
                        while length:
                            chunk = fh.read(min(length, _COPY_CHUNK))
                            dst.write(chunk)
                            length -= len(chunk)
        if regular:
            os.chmod(temps[-1], mode)
            os.replace(temps[-1], target)
    finally:
        for name in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(name)


def _render(results: list[tuple[str, int, ActionContext]]) -> str:
    return "".join(dumps_record(context_to_dict(*result)) + "\n" for result in results)


def _videos_in_process(path: str, cfg: SummarizerConfig) -> Iterator[tuple[str, VideoStats]]:
    """Each video's rendered contexts and stats, in input order, one video in memory at a time."""
    for video_id, frames in itertools.groupby(read_frame_records(path), key=attrgetter("video_id")):
        results, stats = summarize_video(video_id, list(frames), cfg)
        yield _render(results), stats


def _summarize_group(group: FrameGroup, path: str, cfg: SummarizerConfig) -> tuple[str, VideoStats]:
    """A worker's task: decode one video's lines, summarize them and render the contexts."""
    frames = read_group(group, path)
    results, stats = summarize_video(frames[0].video_id, frames, cfg)
    return _render(results), stats


def _videos_in_workers(path: str, cfg: SummarizerConfig, jobs: int) -> Iterator[tuple[str, VideoStats]]:
    """``_videos_in_process`` with each video decoded and summarized by worker processes.

    The pool has ``jobs`` workers, but no more than there are CPUs. This
    process only splits the file by video, and keeps at most twice as many
    videos in flight as there are workers. Results are taken in input
    order, so the error raised is the first in the file, as with one process.
    """
    workers = min(jobs, os.cpu_count() or 1)
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        in_flight: deque[Future] = deque()
        for group in frame_groups(path):
            in_flight.append(pool.submit(_summarize_group, group, path, cfg))
            if len(in_flight) == 2 * workers:
                yield in_flight.popleft().result()
        while in_flight:
            yield in_flight.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def cmd_summarize(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ValidationError(f"--jobs {args.jobs} must be at least 1")
    cfg = _load_config(args.config)
    if args.jobs == 1:
        videos = _videos_in_process(args.frames, cfg)
    else:
        videos = _videos_in_workers(args.frames, cfg, args.jobs)
    all_stats = []
    with _sorted_output(args.out) as write, contextlib.closing(videos):
        for text, stats in videos:
            write(stats.video_id, text)
            all_stats.append(stats)

    print(f"# config_hash={config_hash(cfg)} version={__version__}", file=sys.stderr)
    for stats in sorted(all_stats, key=attrgetter("video_id")):
        seg = " ".join(f"{k}={v}" for k, v in sorted(stats.n_segments.items()))
        print(
            f"video={stats.video_id} frames={stats.n_frames} processed={stats.n_processed} {seg}",
            file=sys.stderr,
        )
    return 0


def _format_eval_report(report: EvalReport) -> str:
    lines = [
        f"variant {report.variant.value}: mAP {report.map_value:.4f} "
        f"({len(report.per_class)} classes, {report.n_predictions} scored predictions, "
        f"{report.n_frames} frames)",
    ]
    for key in sorted(report.per_class):
        result = report.per_class[key]
        lines.append(
            f"  {key:<30} ap {result.ap:8.4f}  gt {result.n_gt:4d}  preds {result.n_pred:4d}"
        )
    return "\n".join(lines)


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    preds = read_predictions(args.preds)
    gts = read_ground_truth(args.gt, min_ttc=cfg.min_ttc)
    variants = [Variant.parse(v) for v in (args.variant or _DEFAULT_VARIANTS)]
    reports = [
        top5_map(preds, gts, variant, iou_thresh=cfg.iou_thresh, t_delta=cfg.t_delta)
        for variant in variants
    ]

    header = f"# context-forge {__version__} config_hash={config_hash(cfg)}"
    print(header)
    for report in reports:
        print(_format_eval_report(report))
    if args.out:
        payload = {
            "version": __version__,
            "config_hash": config_hash(cfg),
            "reports": [
                {
                    "variant": r.variant.value,
                    "map": r.map_value,
                    "n_frames": r.n_frames,
                    "n_predictions": r.n_predictions,
                    "per_class": {
                        key: {"ap": c.ap, "n_gt": c.n_gt, "n_pred": c.n_pred}
                        for key, c in r.per_class.items()
                    },
                }
                for r in reports
            ],
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dumps_record(payload) + "\n")
    return 0


def cmd_quality(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    contexts = read_contexts(args.contexts)
    gts = read_ground_truth(args.gt, min_ttc=cfg.min_ttc)
    table = load_embeddings(args.embeddings)

    expanded_contexts = {}
    expanded_gts = {}
    for key, entries in gts.items():
        for idx, gt in enumerate(entries):
            unit = (key[0], key[1], idx)
            expanded_gts[unit] = gt
            if key in contexts:
                expanded_contexts[unit] = contexts[key]
    report = context_quality(expanded_contexts, expanded_gts, table)

    quality = dataclasses.asdict(report)
    print(f"# context-forge {__version__} config_hash={config_hash(cfg)}")
    for name, value in quality.items():
        print(f"{name} {value:.6f}" if isinstance(value, float) else f"{name} {value}")
    if args.out:
        payload = {"version": __version__, "config_hash": config_hash(cfg), "quality": quality}
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dumps_record(payload) + "\n")
    return 0


def cmd_fuse_check(args: argparse.Namespace) -> int:
    from .fusion import load_params, random_fusion_params, save_params
    from .checks import run_invariant_checks

    if args.seed < 0:
        raise ValidationError(f"--seed {args.seed} must be at least 0")
    if args.params:
        scales = load_params(args.params)
    else:
        scales = random_fusion_params(args.seed)
    if args.out:
        save_params(args.out, scales)
    results = run_invariant_checks(scales, seed=args.seed)
    failed = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.detail}")
        failed += 0 if result.passed else 1
    if failed:
        raise InvariantError(f"{failed} fusion invariant(s) failed")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    if args.n_videos < 1:
        raise ValidationError(f"--n-videos {args.n_videos} must be at least 1")
    records = []
    for i in range(args.n_videos):
        planted, stream = gen_scenario(
            seed=args.seed + i,
            n_frames=args.n_frames,
            n_terms=args.n_terms,
            drop_rate=args.drop_rate,
            spurious_rate=args.spurious_rate,
        )
        video_id = f"synth{i:02d}"
        records.extend(scenario_to_frame_records(stream, video_id))
        print(f"video={video_id} planted_segments={len(planted)}", file=sys.stderr)
    write_frame_records(args.out, records)
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, like other validation failures."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="context-forge",
        description="Action-context summarization, evaluation, and fusion-kernel checks.",
    )
    parser.add_argument("--version", action="version", version=f"context-forge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize", help="frames file -> action-context records")
    p.add_argument("--frames", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("--preds", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--config")
    p.add_argument("--variant", action="append", metavar="n|nv|nt|all|no|vo")
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("quality", help="score generated contexts against ground truth")
    p.add_argument("--contexts", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_quality)

    p = sub.add_parser("fuse-check", help="run the fusion-kernel invariant suite")
    p.add_argument("--params", help="parameter bundle to check (random bundle when omitted)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="save the checked bundle to this path")
    p.set_defaults(func=cmd_fuse_check)

    p = sub.add_parser("synth", help="emit a synthetic frames file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--n-frames", type=int, default=600)
    p.add_argument("--n-terms", type=int, default=4)
    p.add_argument("--n-videos", type=int, default=1)
    p.add_argument("--drop-rate", type=float, default=0.0)
    p.add_argument("--spurious-rate", type=float, default=0.0)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, ContextForgeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
