#!/usr/bin/env python3
"""Regenerate the frozen golden files under tests/data/.

The golden scenario is seed 424242: two videos, 240 frames each, 10%
drops and 5% spurious injections. The evaluate golden is four
``gen_eval_instance`` draws (seeds 424242-424245, ten frames each) under
video ids draw0-draw3, and its report over all six variants. The quality
report is not frozen: its similarities go through ``np.dot``, whose BLAS
kernel may round differently on another CPU. Run this only when the
record format or the pipeline or scoring semantics intentionally change,
and review the diff.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from context_forge.cli import main as cli_main
from context_forge.records import write_ground_truth, write_predictions
from context_forge.synth import gen_eval_instance

DATA = ROOT / "tests" / "data"
EVAL_DRAWS = 4
ALL_VARIANTS = ("n", "nv", "nt", "all", "no", "vo")


def main() -> int:
    DATA.mkdir(parents=True, exist_ok=True)
    frames = DATA / "golden_frames.jsonl"
    contexts = DATA / "golden_contexts.jsonl"
    rc = cli_main(
        [
            "synth",
            "--seed", "424242",
            "--out", str(frames),
            "--n-frames", "240",
            "--n-videos", "2",
            "--drop-rate", "0.1",
            "--spurious-rate", "0.05",
        ]
    )
    if rc:
        return rc
    rc = cli_main(["summarize", "--frames", str(frames), "--out", str(contexts)])
    if rc:
        return rc
    preds, gts = {}, {}
    for i in range(EVAL_DRAWS):
        draw_preds, draw_gts = gen_eval_instance(424242 + i, n_frames=10, max_preds=5)
        preds.update({(f"draw{i}", frame): v for (_, frame), v in draw_preds.items()})
        gts.update({(f"draw{i}", frame): v for (_, frame), v in draw_gts.items()})
    eval_preds, eval_gt = DATA / "golden_eval_preds.jsonl", DATA / "golden_eval_gt.jsonl"
    report = DATA / "golden_eval_report.json"
    write_predictions(str(eval_preds), preds)
    write_ground_truth(str(eval_gt), gts)
    argv = ["evaluate", "--preds", str(eval_preds), "--gt", str(eval_gt), "--out", str(report)]
    for variant in ALL_VARIANTS:
        argv += ["--variant", variant]
    rc = cli_main(argv)
    if rc:
        return rc
    for path in (frames, contexts, eval_preds, eval_gt, report):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
