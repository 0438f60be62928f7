"""Seeded benchmark of the context-forge CLI: summarize, evaluate, quality, fuse-check.

Run from the repository root:

    python3 perfbench/run.py --workload summarize-long --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from ``--seed`` (see inputs.py) and the
four commands run through ``context_forge.cli.main`` in this process, in a
closed loop: one caller, each invocation starting when the previous one
returned, ``--jobs 1``. A scheduler gives each command its workload's share
of the ``--seconds`` measured, interleaving the commands so that drift in
machine speed touches all of them alike. summarize is timed on part files
of the workload's videos, taken in turn; the other commands on one input
each. Gated times are medians, scaled to a reference machine speed with a
calibration loop timed before each invocation (see CALIBRATION_REF_S).

Every invocation is checked (exit code, output digest stable across
repeats, seven PASS lines from fuse-check), and each first output in full.
Untimed passes check ``evaluate`` against ``synth.oracle_ap`` on sampled
instances, and summarize the whole frames file with ``--jobs 2``: its
output must be the part outputs (``--jobs 1``) concatenated.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds (one invocation of each command) and prints the
per-layer metrics of tracing.py plus the tracing overhead. Human-readable
lines go first; the last stdout line is the JSON result.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: with the default thread pool the
# first large fuse-check runs several times slower than the rest, and the
# spread across calls widens.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import platform
import shutil
import statistics
import sys
import tempfile
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import inputs
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MODULES = ("cli", "synth", "records", "fusion", "checks", "metrics", "pipeline", "aggregation", "extraction")
DEFAULT_VARIANTS = ("n", "nv", "nt", "all")

# Gated times are scaled to a reference machine speed. On a shared host
# this process runs up to 1.6 times slower for seconds to minutes at a
# time, and the program and a plain interpreter loop slow alike: over 8
# runs of 15 s, the fastest invocation per run spread 0.23-0.39
# (interquartile range over median) while the median of invocation time
# over the time of the loop just before it spread 0.03. So each timed
# invocation and set-up is paired with a calibration, the mean of those
# just before and just after it (each the faster of two runs of
# _calibration_loop), and reported as wall * CALIBRATION_REF_S /
# calibration: its wall time on a machine where the loop takes 1 ms.
CALIBRATION_REF_S = 1e-3

# Set-ups per run; setup_s is their median. A timed run makes the first
# before it measures and spreads the others over the measured seconds, so
# that a slow spell of the machine at the start of a run touches one only.
SETUPS = 4
MIN_SAMPLES = 3  # timed invocations per command, even past --seconds
MIN_ROUNDS = 2  # untraced and traced rounds each, in a traced run
ORACLE_DRAWS = 3  # sampled evaluation instances checked against the oracle
FUSE_CHECKS = 7  # PASS lines fuse-check prints


def _calibration_loop() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(6000):
        table[i % 997] = table.get(i % 997, 0) + i
        total += i * i
    return total


def calibrate() -> float:
    """The machine's current speed, as the faster of two timed calibration loops (s)."""
    best = float("inf")
    for _ in range(2):
        t0 = perf_counter()
        _calibration_loop()
        best = min(best, perf_counter() - t0)
    return best


def scaled(samples: list[tuple[float, float]]) -> list[float]:
    """(wall, calibration) pairs as wall times on the reference machine."""
    return [wall * CALIBRATION_REF_S / calibration for wall, calibration in samples]


def import_package() -> SimpleNamespace:
    """Import the package under test afresh, so that each set-up pays for the import."""
    for name in [m for m in sys.modules if m == "context_forge" or m.startswith("context_forge.")]:
        del sys.modules[name]
    return SimpleNamespace(**{name: importlib.import_module(f"context_forge.{name}") for name in MODULES})


@dataclass
class Case:
    """One input of one command of the workload, its size and its reference output."""

    name: str
    command: str
    argv: list[str]
    out: Path | None
    units: int  # frames per invocation (input frames or ground-truth frames)
    videos: range | None = None  # for summarize, the indices of the videos in the input
    digest: str | None = None


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _summarize_case(name: str, frames: Path, out: Path, videos: range, workload: inputs.Workload,
                    jobs: int = 1) -> Case:
    return Case(name, "summarize", ["summarize", "--frames", str(frames), "--out", str(out), "--jobs", str(jobs)],
                out, len(videos) * workload.frames_per_video, videos)


def make_cases(data: inputs.Inputs, seed: int, work: Path, workload: inputs.Workload) -> tuple[Case, list[Case]]:
    """The untimed ``--jobs 2`` summarize case of the whole frames file, and the timed cases."""
    out = work / "out"
    out.mkdir(exist_ok=True)
    whole = _summarize_case("summarize.whole", data.frames, out / "contexts.jsonl", range(workload.videos),
                            workload, jobs=2)
    per_part = workload.videos_per_part
    parts = [
        _summarize_case(f"summarize.part{i:02d}", frames, out / f"contexts-part{i:02d}.jsonl",
                        range(i * per_part, min(workload.videos, (i + 1) * per_part)), workload)
        for i, frames in enumerate(data.frame_parts)
    ]
    return whole, parts + [
        Case("evaluate", "evaluate", ["evaluate", "--preds", str(data.preds), "--gt", str(data.gt),
                                      "--out", str(out / "report.json")], out / "report.json", data.gt_frames),
        Case("quality", "quality", ["quality", "--contexts", str(data.contexts), "--gt", str(data.gt),
                                    "--embeddings", str(data.embeddings), "--out", str(out / "quality.json")],
             out / "quality.json", data.gt_frames),
        Case("fuse-check", "fuse-check", ["fuse-check", "--params", str(data.bundle), "--seed", str(seed)],
             None, 1),
    ]


class Runner:
    """Invokes the CLI in-process, checks each result and counts failures."""

    def __init__(self, cf, data: inputs.Inputs, workload: inputs.Workload) -> None:
        self.cf = cf
        self.data = data
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_bytes = 0  # tracemalloc peak of the last invocation, when tracing memory

    def invoke(self, argv: list[str], main=None) -> tuple[int, float, str]:
        stdout, stderr = io.StringIO(), io.StringIO()
        main = main or self.cf.cli.main
        # Garbage left by earlier invocations would otherwise be collected,
        # and timed, inside a later one.
        gc.collect()
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        t0 = perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        wall = perf_counter() - t0
        if tracemalloc.is_tracing():
            self.peak_bytes = tracemalloc.get_traced_memory()[1]
        if code != 0:
            stdout.write(stderr.getvalue())
        return code, wall, stdout.getvalue()

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def run(self, case: Case, main=None) -> float:
        """Invoke ``case`` once (through ``main`` if given), check its output, return its wall time."""
        self.attempted += 1
        code, wall, stdout = self.invoke(case.argv, main)
        problem = self._check(case, code, stdout)
        if problem:
            self.fail(f"{case.name}: {problem}")
        return wall

    def _check(self, case: Case, code: int, stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}: {stdout.strip()[-300:]}"
        if case.command == "fuse-check":
            lines = stdout.splitlines()
            passed = [line for line in lines if line.startswith("PASS ")]
            if len(passed) != FUSE_CHECKS or len(lines) != FUSE_CHECKS:
                return f"expected {FUSE_CHECKS} PASS lines, got: {stdout.strip()}"
            return None
        digest = _sha256(case.out)
        if case.digest is None:
            problem = self._check_content(case)
            if problem:
                return problem
            case.digest = digest
        elif digest != case.digest:
            return "output differs from the first invocation's"
        return None

    def _check_content(self, case: Case) -> str | None:
        """Full check of a command's first output; later ones must match it byte for byte."""
        data = self.data
        if case.command == "summarize":
            keys = []
            with open(case.out, encoding="utf-8") as fh:
                for line in fh:
                    record = json.loads(line)
                    keys.append((record["video_id"], record["frame_id"]))
            expected = [(f"video{v:03d}", f) for v in case.videos for f in range(self.workload.frames_per_video)]
            if keys != expected:
                return f"{len(keys)} contexts for {len(expected)} input frames, or out of order"
        elif case.command == "evaluate":
            report = json.loads(case.out.read_text(encoding="utf-8"))
            got = [(r["variant"], r["n_frames"]) for r in report["reports"]]
            want = [(v, data.gt_frames) for v in DEFAULT_VARIANTS]
            if got != want:
                return f"report covers {got}, expected {want}"
        elif case.command == "quality":
            report = json.loads(case.out.read_text(encoding="utf-8"))["quality"]
            if report["n_frames"] != data.gt_entries:
                return f"quality scored {report['n_frames']} units, expected {data.gt_entries}"
        return None

    def check_whole(self, whole: Case, parts: list[Case]) -> None:
        """summarize --jobs 2 on the whole frames file must write the part
        outputs of --jobs 1, concatenated in order."""
        self.run(whole)
        if whole.digest is None:  # run() failed it already
            return
        self.attempted += 1
        if hashlib.sha256(b"".join(part.out.read_bytes() for part in parts)).hexdigest() != whole.digest:
            self.fail("summarize --jobs 2 output of the whole file is not the --jobs 1 part outputs concatenated")

    def check_oracle(self, work: Path) -> None:
        """evaluate's per-variant mAP must match synth.oracle_ap on sampled instances."""
        cf = self.cf
        seeds = self.data.draw_seeds
        for i, seed in enumerate(seeds[:: len(seeds) // ORACLE_DRAWS][:ORACLE_DRAWS]):
            preds, gts = cf.synth.gen_eval_instance(seed, n_frames=inputs.DRAW_FRAMES, max_preds=inputs.DRAW_PREDS)
            paths = [work / f"oracle{i}-{name}" for name in ("preds.jsonl", "gt.jsonl", "report.json")]
            cf.records.write_predictions(str(paths[0]), preds)
            cf.records.write_ground_truth(str(paths[1]), gts)
            self.attempted += 1
            code, _, stdout = self.invoke(
                ["evaluate", "--preds", str(paths[0]), "--gt", str(paths[1]), "--out", str(paths[2])]
            )
            if code != 0:
                self.fail(f"oracle evaluate: exit code {code}: {stdout.strip()[-300:]}")
                continue
            reports = json.loads(paths[2].read_text(encoding="utf-8"))["reports"]
            for report in reports:
                want = cf.synth.oracle_ap(preds, gts, cf.metrics.Variant(report["variant"]))
                if abs(report["map"] - want) > 1e-9:
                    self.fail(f"evaluate seed {seed} variant {report['variant']}: "
                              f"mAP {report['map']!r} != oracle {want!r}")
                    break


def setup(workload: inputs.Workload, seed: int, out: Path, tracer: tracing.Tracer | None):
    """Import the package and write the inputs into ``out``; return both and the time taken."""
    t0 = perf_counter()
    cf = import_package()
    with tracing.traced_setup(tracer, cf) if tracer else contextlib.nullcontext():
        data = inputs.generate(cf, workload, seed, out)
    return cf, data, perf_counter() - t0


def setup_aside(workload: inputs.Workload, seed: int, work: Path) -> float:
    """Time one more set-up, into a scratch directory, and put back the
    package modules that the runner and the --jobs 2 workers use."""
    saved = {name: m for name, m in sys.modules.items() if name == "context_forge" or name.startswith("context_forge.")}
    out = Path(tempfile.mkdtemp(prefix="setup-", dir=work))
    try:
        return setup(workload, seed, out, None)[2]
    finally:
        sys.modules.update(saved)
        shutil.rmtree(out, ignore_errors=True)


Samples = list[tuple[float, float]]  # (wall, calibration) pairs, in s


def measure(runner: Runner, cases: list[Case], shares: dict, seconds: float,
            set_up_again) -> tuple[dict[str, Samples], Samples]:
    """Closed loop: always run the command furthest below its share of busy time,
    and of that command's cases the one with the fewest samples so far. Past
    ``seconds``, only cases that have fewer than MIN_SAMPLES run. Calls
    ``set_up_again`` SETUPS - 1 times at even intervals. Every invocation and
    set-up is timed between two calibrations."""
    walls: dict[str, Samples] = {c.name: [] for c in cases}
    busy = {c.command: 0.0 for c in cases}
    due = [seconds * k / SETUPS for k in range(1, SETUPS)]
    setups = []
    before = calibrate()
    start = perf_counter()
    while True:
        if due and perf_counter() - start >= due[0]:
            due.pop(0)
            wall = set_up_again()
            after = calibrate()
            setups.append((wall, (before + after) / 2))
            before = after
            continue
        pool = cases
        if perf_counter() - start >= seconds:
            pool = [c for c in cases if len(walls[c.name]) < MIN_SAMPLES]
            if not pool:
                break
        command = min({c.command for c in pool}, key=lambda c: busy[c] / shares[c])
        case = min((c for c in pool if c.command == command), key=lambda c: len(walls[c.name]))
        wall = runner.run(case)
        after = calibrate()
        walls[case.name].append((wall, (before + after) / 2))
        before = after
        busy[case.command] += wall
    return walls, setups


def first_pass(runner: Runner, cases: list[Case], memory_of: set[str]) -> float:
    """Untimed pass that warms up, records reference outputs and returns the
    tracemalloc peak (MB) over the cases named in ``memory_of``."""
    peak = 0
    for case in cases:
        if case.name not in memory_of:
            runner.run(case)
            continue
        tracemalloc.start()
        try:
            runner.run(case)
        finally:
            tracemalloc.stop()
        peak = max(peak, runner.peak_bytes)
    return peak / 1e6


def end_to_end(walls: dict[str, Samples], cases: list[Case]) -> dict[str, tuple[float, str, int]]:
    """Gated timing metrics from the median scaled invocation time of each
    input of a command; a command with several inputs (the summarize parts)
    is timed as the sum of their medians."""
    units: Counter = Counter()
    p50: Counter = Counter()
    n: Counter = Counter()
    for case in cases:
        units[case.command] += case.units
        p50[case.command] += statistics.median(scaled(walls[case.name]))
        n[case.command] += len(walls[case.name])
    return {
        "summarize_fps": (units["summarize"] / p50["summarize"], "frames/s", n["summarize"]),
        "evaluate_fps": (units["evaluate"] / p50["evaluate"], "frames/s", n["evaluate"]),
        "quality_fps": (units["quality"] / p50["quality"], "frames/s", n["quality"]),
        "fuse_check_ms_p50": (1e3 * p50["fuse-check"], "ms", n["fuse-check"]),
    }


def distribution(walls: dict[str, Samples]) -> list[str]:
    """Unscaled wall times of each input's invocations, and the calibrations, with sample counts."""
    lines = []
    calibrations = sorted(1e3 * c for samples in walls.values() for _, c in samples)
    lines.append(f"  {'calibration':<18} n={len(calibrations):<4} ms: min {calibrations[0]:.4g}  "
                 f"p50 {statistics.median(calibrations):.4g}  max {calibrations[-1]:.4g}")
    for name, samples in walls.items():
        ms = sorted(1e3 * w for w, _ in samples)
        p90 = statistics.quantiles(ms, n=10, method="inclusive")[8]
        lines.append(f"  {name:<18} n={len(ms):<4} ms: min {ms[0]:.4g}  p50 {statistics.median(ms):.4g}  "
                     f"p90 {p90:.4g}  max {ms[-1]:.4g}")
    return lines


def traced_rounds(runner: Runner, cases: list[Case], cf, seconds: float, tracer: tracing.Tracer):
    """Alternate untraced and traced rounds of one invocation per command."""
    untraced: list[float] = []
    traced: list[float] = []
    cli_spans = {c.command: tracer.span(f"cli.{c.command}", cf.cli.main) for c in cases}
    start = perf_counter()
    while perf_counter() - start < seconds or len(traced) < MIN_ROUNDS:
        untraced.append(sum(runner.run(case) for case in cases))
        with tracing.traced(tracer, cf):
            traced.append(sum(runner.run(case, cli_spans[case.command]) for case in cases))
    return len(traced), statistics.median(traced) / statistics.median(untraced)


def machine_info() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # older numpy has no dict mode; record why
        blas = f"unknown ({type(exc).__name__})"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {var: os.environ.get(var) for var in _THREAD_VARS},
    }


def run(args: argparse.Namespace, work: Path) -> tuple[Runner, dict]:
    workload = inputs.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    for _ in range(SETUPS if args.trace else 1):  # a timed run makes the others while it measures
        before = calibrate()
        cf, data, setup_first = setup(workload, args.seed, work, tracer)
        calibration = (before + calibrate()) / 2
    whole, cases = make_cases(data, args.seed, work, workload)
    parts = [c for c in cases if c.command == "summarize"]
    runner = Runner(cf, data, workload)

    # One summarize input warms summarize up; the other parts get their
    # reference outputs on their first timed invocation. Where summarize is
    # the focus, that input is the whole file with --jobs 1, and its memory
    # is traced: results held across videos add up there, and over 8 seeds
    # the peak of one 1125-frame video spread 0.014 against 0.003 for the
    # whole file of 12.
    warm = parts[0]
    if "summarize" in workload.focus:
        warm = _summarize_case("summarize.whole-jobs1", data.frames, whole.out.with_name("contexts-jobs1.jsonl"),
                               whole.videos, workload)
    untimed = [warm] + [c for c in cases if c.command != "summarize"]
    memory = set() if args.trace else {c.name for c in untimed if c.command in workload.focus}
    peak_mb = first_pass(runner, untimed, memory)
    runner.check_oracle(work)

    if args.trace:
        rounds, overhead = traced_rounds(runner, cases, cf, args.seconds, tracer)
        runner.check_whole(whole, parts)
        for name in tracing.missing_spans(tracer):
            runner.fail(f"traced span {name} recorded no calls")
        metrics = {}
        if not runner.failed:  # layer_metrics divides by counts that a failed span leaves at 0
            for name, (value, unit) in tracing.layer_metrics(tracer, rounds, SETUPS).items():
                metrics[name] = (value, unit, SETUPS if name.startswith("synth.") else rounds)
            metrics["trace.overhead_ratio"] = (overhead, "ratio", rounds)
    else:
        walls, setups = measure(runner, cases, workload.shares, args.seconds,
                                lambda: setup_aside(workload, args.seed, work))
        runner.check_whole(whole, parts)
        metrics = end_to_end(walls, cases)
        metrics["peak_mem_mb"] = (peak_mb, "MB", 1)
        setups.insert(0, (setup_first, calibration))
        metrics["setup_s"] = (statistics.median(scaled(setups)), "s", len(setups))
        print("unscaled times (not gated):")
        print("\n".join(distribution(walls)))
        print(f"  {'setup':<18} n={len(setups):<4} s: " + " ".join(f"{t:.4g}" for t, _ in setups))
        # Not gated: most runs have fewer than ten fuse-check samples beyond it.
        p90 = statistics.quantiles(scaled(walls["fuse-check"]), n=10, method="inclusive")[8]
        print(f"fuse_check_ms_p90 (scaled, not gated) {1e3 * p90:.6g} ms n={len(walls['fuse-check'])}")
        print("samples (wall, calibration) " + json.dumps(
            {name: [(round(w, 6), round(c, 7)) for w, c in samples] for name, samples in walls.items()}))
    return runner, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="non-negative workload seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")  # numpy seeds the fusion bundle and the checks

    if not (SRC / "context_forge" / "__init__.py").is_file():
        print(f"error: no context_forge package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    print("machine " + json.dumps(machine_info(), sort_keys=True))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        runner, metrics = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    for problem in runner.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"error_rate {runner.failed}/{runner.attempted} = {runner.failed / runner.attempted:.4f}")
    if runner.failed:
        metrics = {}  # timings of a run whose outputs are wrong are not results
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit:<9} n={samples}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 1 if runner.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
