#!/usr/bin/env python3
"""Regenerate the frozen golden files under tests/data/.

The golden scenario is seed 424242: two videos, 240 frames each, 10%
drops and 5% spurious injections. Run this only when the record format
or the pipeline semantics intentionally change, and review the diff.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from context_forge.cli import main as cli_main

DATA = ROOT / "tests" / "data"


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
    print(f"wrote {frames}")
    print(f"wrote {contexts}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
