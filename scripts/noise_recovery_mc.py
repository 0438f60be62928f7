#!/usr/bin/env python3
"""Monte-Carlo experiment: segment recovery under frame-drop noise.

Runs the reference aggregator over seeded noisy scenarios (drop rate
0.2, planted segments of at least 2 s at 30 fps, sampling stride 3) and
reports per-category and overall recovery rates, where a planted
segment counts as recovered when some aggregated segment carries the
same term with both boundaries within the lapse tolerance.

This run fixes the bar asserted by the noise-recovery acceptance test.
With the lapse tolerance measured in raw frames, two consecutive
dropped samples at stride 3 open a 9-frame gap that exceeds the default
tolerance of 7 and splits the segment, so recovery for 20%-drop input
sits near 50%, not near 100%: P(no two adjacent drops among ~22 samples
at p=0.2) is roughly 0.5. The acceptance bar is therefore frozen at
0.45 (observed 0.494 on the acceptance seed range).
"""

import argparse
import pathlib
import sys
from collections import defaultdict

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from context_forge.core import CATEGORY_KEYS, Category, SummarizerConfig
from context_forge.synth import (
    category_stream,
    gen_scenario,
    oracle_aggregate,
    segment_recovered,
)

CONFIG = SummarizerConfig()  # the reference operating point


def recovery_rates(seeds, drop_rate, spurious_rate, n_frames, segment_frames):
    hits = defaultdict(int)
    totals = defaultdict(int)
    for seed in seeds:
        planted, stream = gen_scenario(
            seed,
            n_frames=n_frames,
            n_terms=4,
            drop_rate=drop_rate,
            spurious_rate=spurious_rate,
            segment_frames=segment_frames,
        )
        found = {}
        for category in Category:
            sampled = [
                (f, terms) for f, terms in category_stream(stream, category) if f % CONFIG.stride == 0
            ]
            p_o, p_l, _ = (getattr(CONFIG, key) for key in CATEGORY_KEYS[category])
            found[category] = oracle_aggregate(sampled, p_o, p_l, category)
        for seg in planted:
            totals[seg.category] += 1
            tolerance = getattr(CONFIG, CATEGORY_KEYS[seg.category][1])  # the category's p_l
            hits[seg.category] += segment_recovered(seg, found[seg.category], tolerance)
    return hits, totals


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=200)
    parser.add_argument("--drop-rate", type=float, default=0.2)
    parser.add_argument("--spurious-rate", type=float, default=0.0)
    parser.add_argument("--n-frames", type=int, default=900)
    parser.add_argument("--min-segment", type=int, default=60, help="frames; 2 s at 30 fps")
    parser.add_argument("--max-segment", type=int, default=75)
    args = parser.parse_args()

    hits, totals = recovery_rates(
        range(args.seeds),
        args.drop_rate,
        args.spurious_rate,
        args.n_frames,
        (args.min_segment, args.max_segment),
    )
    grand_hits = grand_total = 0
    for category in Category:
        h, t = hits[category], totals[category]
        grand_hits += h
        grand_total += t
        print(f"{category.value:<8} {h:5d}/{t:5d}  rate={h / t:.4f}")
    print(f"overall  {grand_hits:5d}/{grand_total:5d}  rate={grand_hits / grand_total:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
