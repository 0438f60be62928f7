#!/usr/bin/env python3
"""Mutation check: each row breaks the source in one known way, and named tests must catch it.

Each row names a file under src/, the exact text to replace (it must occur
there exactly once), its replacement, and the tests that must fail. For each
row the script copies src/, tests/ and pyproject.toml to a temporary
directory, applies the replacement, and runs only that row's tests there.
Before that, every row's tests must pass on the unmutated copy.

It exits 1 when a row's text does not occur exactly once, when a row's tests
fail unmutated, or when a mutant survives: one of its tests does not fail
(an error at collection is no kill). It takes no arguments; run it from
anywhere:

    python scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/context_forge
    old: str
    new: str
    tests: tuple[str, ...]  # node ids; a parametrized test is killed when any of its cases fails


PIPELINE, AGGREGATION, METRICS, RECORDS = "pipeline.py", "aggregation.py", "metrics.py", "records.py"
ORACLE = "tests/test_pipeline.py::TestIncrementalMatchesPerFrameOracle::"
REPEAT = ("tests/test_records.py::test_repeated_frame_line_reads_as_decoded_in_full",
          "tests/test_records.py::test_frames_errors_same_under_jobs")

MUTANTS = (
    # A lone extension of the lead's run keeps the selection only if no
    # selected segment starts after the run's previous end.
    Mutant("lead-without-start-condition", PIPELINE,
           "if all(seg.start_frame <= lead.end_frame for seg in tail):", "if True:",
           (ORACLE + "test_tie_streams", ORACLE + "test_500_random_streams")),
    Mutant("skip-any-lone-extension", PIPELINE,
           "if change == self.lead:", "if change is not True and self.lead is not None:",
           (ORACLE + "test_tie_streams", ORACLE + "test_500_random_streams")),
    Mutant("flip-ignores-new-end", PIPELINE,
           "self.flip = min(self.others_lapse, ctx.frame_id + self.aggregator.p_l + 1)",
           "self.flip = self.others_lapse",
           (ORACLE + "test_tie_streams", ORACLE + "test_500_random_streams")),
    Mutant("new-run-counted-as-extension", AGGREGATION,
           "run.occurrences > p_o else True", "run.occurrences >= p_o else True",
           ("tests/test_aggregation.py::TestStreamAggregator::test_push_reports_whether_an_accepted_run_changed",)),
    Mutant("flip-one-frame-late", PIPELINE,
           "lapse = self.aggregator.p_l + 1", "lapse = self.aggregator.p_l + 2",
           ("tests/test_cli.py::TestSynthAndSummarize::test_golden_scenario_matches_frozen_output",
            ORACLE + "test_500_random_streams")),
    # mutant A: the salient context (CURRENT_ONLY) ranks active segments by
    # (most occurrences, earliest start, term text); here a later start wins
    Mutant("salient-tie-to-later-start", AGGREGATION,
           "active.sort(key=lambda s: (-s.occurrences, s.start_frame, term_text(s.term)))",
           "active.sort(key=lambda s: (-s.occurrences, -s.start_frame, term_text(s.term)))",
           ("tests/test_aggregation.py::TestContextForFrame::test_salient_occurrence_tie_ranks_earlier_start_first",)),
    # mutant B: a later start wins an occurrence tie in overlap elimination
    Mutant("overlap-tie-to-later-start", AGGREGATION,
           "key=lambda s: (-s.occurrences, s.start_frame, s.end_frame, term_text(s.term))",
           "key=lambda s: (-s.occurrences, -s.start_frame, s.end_frame, term_text(s.term))",
           ("tests/test_aggregation.py::TestEliminateOverlaps::test_tie_removes_later_start",)),
    # an earlier end wins an occurrence and start tie in overlap elimination
    Mutant("overlap-later-end", AGGREGATION,
           "key=lambda s: (-s.occurrences, s.start_frame, s.end_frame, term_text(s.term))",
           "key=lambda s: (-s.occurrences, s.start_frame, -s.end_frame, term_text(s.term))",
           ("tests/test_aggregation.py::TestEliminateOverlaps::test_tie_on_start_removes_later_end",)),
    # Not a row: recency_order's second key (an earlier start first) is
    # equivalent on the summarize path. There context_for_frame compares only
    # segments kept by eliminate_overlaps, settled or in the tail. Kept
    # segments of different terms never overlap, one term's runs are disjoint
    # (a run starts only after the previous one lapsed), and settled segments
    # end before the tail starts. Two segments that share an end frame
    # overlap, so the end frame alone decides every comparison.
    #
    # A frames line is taken for its predecessor with a new frame id only when
    # the new id is a plain JSON integer, the line holds no escape, and its one
    # "frame_id" is the top-level key.
    Mutant("repeat-leading-zero", RECORDS, '(digits[0] != "0" or digits == "0")', "True", REPEAT),
    Mutant("repeat-escapes", RECORDS, r'"\\" not in line and ', "", REPEAT),
    Mutant("repeat-any-frame-id-count", RECORDS, """line.count('"frame_id"') == 1""",
           """line.count('"frame_id"') >= 1""", REPEAT),
    Mutant("ap-ranks-ascending", METRICS,
           "positions.sort(key=scores.__getitem__, reverse=True)",
           "positions.sort(key=scores.__getitem__, reverse=False)",
           ("tests/test_acceptance.py::test_criterion_5_map_oracle_equivalence",)),
)


def _copy(into: Path) -> None:
    shutil.copytree(ROOT / "src", into / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests", into / "tests", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")


def _run(workdir: Path, tests: tuple[str, ...]) -> tuple[int, set[str]]:
    """pytest's exit code on ``tests`` in ``workdir``, and those of them that fail (a collection error is none)."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "--tb=no", "-p", "no:cacheprovider", *tests],
        cwd=workdir, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(workdir / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
    )
    failures = [line[len("FAILED "):].split(" - ")[0] for line in proc.stdout.splitlines()
                if line.startswith("FAILED ")]
    return proc.returncode, {test for test in tests if any(f == test or f.startswith(test + "[") for f in failures)}


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        code, broken = _run(clean, tests)
        if code != 0:
            print(f"FAIL unmutated: pytest exits {code}; failing: {', '.join(sorted(broken)) or 'none'}")
            return 1
        for m in MUTANTS:
            source = ROOT / "src" / "context_forge" / m.path
            count = source.read_text(encoding="utf-8").count(m.old)
            if count != 1:
                print(f"FAIL {m.name}: its text occurs {count} times in {m.path}, not once")
                bad += 1
                continue
            work = Path(tmp) / m.name
            _copy(work)
            target = work / "src" / "context_forge" / m.path
            target.write_text(target.read_text(encoding="utf-8").replace(m.old, m.new), encoding="utf-8")
            survivors = set(m.tests) - _run(work, m.tests)[1]
            if survivors:
                print(f"FAIL {m.name}: survives {', '.join(sorted(survivors))}")
                bad += 1
            else:
                print(f"killed {m.name}")
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
