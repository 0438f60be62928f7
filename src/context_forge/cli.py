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
from operator import attrgetter
from typing import Iterable, Iterator

from . import __version__
from .core import (
    AT_LEAST_ONE,
    NATURAL,
    ActionContext,
    ContextForgeError,
    InvariantError,
    SummarizerConfig,
    checked_integer,
    config_hash,
    in_range,
    load_config,
    load_embeddings,
)
from .metrics import EvalReport, Variant, context_quality, quality_words, top5_map
from .pipeline import VideoStats, summarize_video
from .records import (
    context_to_dict,
    dumps_record,
    read_contexts,
    read_frame_records,
    read_ground_truth,
    read_predictions,
    write_frame_records,
)
from .synth import gen_scenario, scenario_to_frame_records

_DEFAULT_VARIANTS = ("n", "nv", "nt", "all")


def _load_config(path: str | None) -> SummarizerConfig:
    return load_config(path) if path else SummarizerConfig()


def _write_sorted(out: str, videos: Iterator[tuple[Iterable[str], VideoStats]]) -> list[VideoStats]:
    """Write each video's text to ``out`` in video-id order; return the stats in that order.

    Each video's text comes line by line, each line written as it arrives.
    The texts go to a temporary file beside ``out`` (the target of a
    symlinked ``out``), which is renamed onto ``out`` once all are written.
    When the ids did not arrive in ascending order, the texts are first
    copied in sorted order to a second temporary file. An existing ``out``
    that is not a regular file, such as ``/dev/stdout``, is never renamed
    over: the sorted texts are copied into it. A failed run closes
    ``videos`` and deletes the temporary files.
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

    # (video id, offset, length, stats) of each text; offsets differ, so no sort compares stats
    index: list[tuple[str, int, int, VideoStats]] = []
    try:
        with contextlib.closing(videos), temp() as fh:
            for lines, stats in videos:
                offset = fh.tell()
                for line in lines:
                    fh.write(line.encode("utf-8"))
                index.append((stats.video_id, offset, fh.tell() - offset, stats))
            ordered = sorted(index)
            if not regular or index != ordered:
                with temp() if regular else open(out, "wb") as dst:
                    for _, offset, length, _ in ordered:
                        fh.seek(offset)
                        dst.write(fh.read(length))
        if regular:
            os.chmod(temps[-1], mode)
            os.replace(temps[-1], target)
    finally:
        for name in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(name)
    return [stats for *_, stats in ordered]


def _render(results: list[tuple[str, int, ActionContext]]) -> Iterator[str]:
    """Each line of one video's results, made when it is asked for.

    A context is rendered once per run of results sharing it, with frame id
    0, and each line splices its own frame id in. Keys are sorted, so
    ``"frame_id":0,`` follows only ``action_terms``, whose strings hold no
    unescaped ``"``: its first match is the key.
    """
    context = None
    for video_id, frame_id, ctx in results:
        if ctx is not context:
            context = ctx
            head, _, tail = dumps_record(context_to_dict(video_id, 0, ctx)).partition('"frame_id":0,')
        yield f'{head}"frame_id":{frame_id},{tail}\n'


def _videos(path: str, cfg: SummarizerConfig) -> Iterator[tuple[Iterator[str], VideoStats]]:
    """Each video's context lines and stats, in input order.

    Of one video at a time, only its frame contexts and results are held.
    """
    for video_id, frames in itertools.groupby(read_frame_records(path), key=attrgetter("video_id")):
        results, stats = summarize_video(video_id, frames, cfg)
        yield _render(results), stats
        del results  # the lines are written: free the results before the next video is summarized


def cmd_summarize(args: argparse.Namespace) -> int:
    AT_LEAST_ONE(args.jobs, "--jobs")
    cfg = _load_config(args.config)
    all_stats = _write_sorted(args.out, _videos(args.frames, cfg))

    print(_provenance(cfg), file=sys.stderr)
    for stats in all_stats:
        seg = " ".join(f"{k}={v}" for k, v in sorted(stats.n_segments.items()))
        print(
            f"video={stats.video_id} frames={stats.n_frames} processed={stats.n_processed} {seg}",
            file=sys.stderr,
        )
    return 0


def _provenance(cfg: SummarizerConfig) -> str:
    """The first line summarize, evaluate and quality print: the version and the config hash."""
    return f"# context-forge {__version__} config_hash={config_hash(cfg)}"


def _write_report(out: str, cfg: SummarizerConfig, key: str, value) -> None:
    payload = {"version": __version__, "config_hash": config_hash(cfg), key: value}
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(dumps_record(payload) + "\n")


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
    variants = [Variant.parse(v) for v in (args.variant or _DEFAULT_VARIANTS)]  # before the files: fail fast
    preds = read_predictions(args.preds)
    gts = read_ground_truth(args.gt, min_ttc=cfg.min_ttc)
    reports = top5_map(preds, gts, variants, iou_thresh=cfg.iou_thresh, t_delta=cfg.t_delta)

    print(_provenance(cfg))
    for report in reports:
        print(_format_eval_report(report))
    if args.out:
        _write_report(args.out, cfg, "reports", [
            {
                "variant": r.variant.value,
                "map": r.map_value,
                "n_frames": r.n_frames,
                "n_predictions": r.n_predictions,
                "per_class": {key: dataclasses.asdict(c) for key, c in r.per_class.items()},
            }
            for r in reports
        ])
    return 0


def cmd_quality(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    contexts = read_contexts(args.contexts)
    gts = read_ground_truth(args.gt, min_ttc=cfg.min_ttc)
    table = load_embeddings(args.embeddings, quality_words(contexts, gts))
    report = context_quality(contexts, gts, table)

    quality = dataclasses.asdict(report)
    print(_provenance(cfg))
    for name, value in quality.items():
        print(f"{name} {value:.6f}" if isinstance(value, float) else f"{name} {value}")
    if args.out:
        _write_report(args.out, cfg, "quality", quality)
    return 0


def cmd_fuse_check(args: argparse.Namespace) -> int:
    from .fusion import load_params, random_fusion_params, save_params
    from .checks import run_invariant_checks

    NATURAL(args.seed, "--seed")
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
    AT_LEAST_ONE(args.n_videos, "--n-videos")
    # video i is seeded --seed + i, and every seed must name one scenario
    in_range(checked_integer, 0, 2**64 - args.n_videos)(args.seed, "--seed")
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
    p.add_argument("--jobs", type=int, default=1, help="checked, and without effect: summarize runs in one process")
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
    except ContextForgeError as exc:
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
