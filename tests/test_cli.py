import dataclasses
import gc
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from context_forge import __version__, cli, pipeline
from context_forge.assembly import assemble
from context_forge.cli import main
from context_forge.core import ActionPair, InvariantError, SummarizerConfig, config_hash, normalize_label
from context_forge.records import (
    context_to_dict,
    dumps_record,
    frame_record_to_dict,
    read_ground_truth,
    read_predictions,
    write_predictions,
)
from context_forge.synth import gen_eval_instance, gen_scenario, scenario_to_frame_records

DATA = Path(__file__).parent / "data"
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(*args):
    # the package's own sources come first, installed or not
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    return proc


def run_cli(*args):
    return run_python("-m", "context_forge.cli", *args)


def write_gt(path, rows):
    with open(path, "w") as fh:
        for video_id, frame_id, entries in rows:
            fh.write(
                json.dumps({"video_id": video_id, "frame_id": frame_id, "entries": entries})
                + "\n"
            )


PERFECT_ENTRY = {"box": [0.0, 0.0, 2.0, 2.0], "noun": "cup", "verb": "take", "ttc": 1.0}


class TestVersionAndErrors:
    def test_version(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert __version__ in proc.stdout

    def test_missing_input_file_is_io_error(self, tmp_path):
        proc = run_cli("summarize", "--frames", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2

    def test_malformed_line_cites_line_number(self, tmp_path):
        frames = tmp_path / "frames.jsonl"
        lines = [json.dumps({"video_id": "v", "frame_id": i}) for i in (0, 1)]
        frames.write_text("\n".join(lines) + "\n{truncated\n")
        proc = run_cli("summarize", "--frames", str(frames), "--out", str(tmp_path / "o"))
        assert proc.returncode == 1
        assert "line 3" in proc.stderr

    def test_unknown_variant_is_validation_error(self, tmp_path):
        preds = tmp_path / "p.jsonl"
        gt = tmp_path / "g.jsonl"
        write_gt(preds, [("v", 0, [dict(PERFECT_ENTRY, score=1.0)])])
        write_gt(gt, [("v", 0, [PERFECT_ENTRY])])
        proc = run_cli("evaluate", "--preds", str(preds), "--gt", str(gt), "--variant", "xx")
        assert proc.returncode == 1

    def test_unknown_variant_refused_before_the_inputs_are_read(self, tmp_path):
        # the input files do not exist: a variant read after them would exit 2 on the first
        typo = "n" * 120
        absent = str(tmp_path / "absent.jsonl")
        proc = run_cli("evaluate", "--preds", absent, "--gt", absent, "--variant", "n", "--variant", typo)
        assert proc.returncode == 1
        assert f"unknown variant '{'n' * 36}...; expected one of n|nv|nt|all|no|vo" in proc.stderr
        assert typo[:41] not in proc.stderr

    def test_bad_config_value(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("k=-1\n")
        frames = tmp_path / "frames.jsonl"
        frames.write_text(json.dumps({"video_id": "v", "frame_id": 0}) + "\n")
        proc = run_cli(
            "summarize", "--frames", str(frames), "--config", str(cfg), "--out", str(tmp_path / "o")
        )
        assert proc.returncode == 1


    @pytest.mark.parametrize(
        "args",
        [
            ("summarize", "--frames", "f.jsonl", "--out", "o.jsonl", "--jobs", "abc"),
            ("summarize", "--frames", "f.jsonl", "--out", "o.jsonl", "--jobs", "0"),
            ("evaluate", "--preds", "p.jsonl"),
        ],
    )
    def test_usage_error_is_validation_error(self, args):
        proc = run_cli(*args)
        assert proc.returncode == 1, proc.stderr
        assert "error: " in proc.stderr

    @pytest.mark.parametrize("line", ["merge_table=cup->a;b", "vocab_noun=a;b", "generic_nouns=x;y"])
    def test_config_label_with_separator_cites_line(self, tmp_path, capsys, line):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n")
        frames = tmp_path / "frames.jsonl"
        frames.write_text(json.dumps({"video_id": "v", "frame_id": 0}) + "\n")
        argv = ["summarize", "--frames", str(frames), "--config", str(cfg), "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert f"{cfg}:line 1: " in capsys.readouterr().err

    @pytest.mark.parametrize("config, label", [
        ("k" * 2998 + "=1", "v"),
        ("x" * 3000, "v"),
        ("", "a," + "b" * 2998),
    ], ids=["unknown-key", "no-equals-sign", "label-with-separator"])
    def test_long_value_is_cut_in_message(self, tmp_path, capsys, config, label):
        # each message shows its value cut to 40 characters, whatever the input's length
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config + "\n")
        frames = tmp_path / "frames.jsonl"
        frames.write_text(json.dumps({"video_id": "v", "frame_id": 0, "label_scores": {label: 0.5}}) + "\n")
        argv = ["summarize", "--frames", str(frames), "--config", str(cfg), "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "..." in err and len(err.encode()) < 200

    def test_invariant_violation_reported_once(self, tmp_path, capsys, monkeypatch):
        def fail(*args):
            raise InvariantError("lanes disagree")

        monkeypatch.setattr(cli, "summarize_video", fail)
        frames = tmp_path / "frames.jsonl"
        frames.write_text(json.dumps({"video_id": "v", "frame_id": 0}) + "\n")
        assert main(["summarize", "--frames", str(frames), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.count("lanes disagree") == 1


def test_predictions_held_in_at_most_500_bytes_per_entry(tmp_path):
    # the benchmark's seed-11 score predictions: 250 draws of ten frames
    preds = {}
    for i in range(250):
        draw, _ = gen_eval_instance(11 * 1_000_003 + 7919 * i + 1, n_frames=10, max_preds=5)
        preds.update({(f"draw{i:05d}", frame): entries for (_, frame), entries in draw.items()})
    path = str(tmp_path / "preds.jsonl")
    write_predictions(path, preds)
    read_predictions(path)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = read_predictions(path)
        per_entry = (tracemalloc.get_traced_memory()[0] - before) / sum(map(len, held.values()))
    finally:
        tracemalloc.stop()
    assert per_entry <= 500, per_entry


def test_predictions_with_2048_distinct_nouns_held_in_at_most_500_bytes_per_entry(tmp_path):
    # the data above with its nouns cycling through 2,048 labels, twice the label memo's bound:
    # every noun is read after the memo has dropped it, so each entry holds its own string
    nouns = itertools.cycle([f"noun{i:04d}" for i in range(2048)])
    preds = {}
    for i in range(250):
        draw, _ = gen_eval_instance(11 * 1_000_003 + 7919 * i + 1, n_frames=10, max_preds=5)
        preds.update({
            (f"draw{i:05d}", frame): [
                dataclasses.replace(p, interaction=dataclasses.replace(p.interaction, noun=next(nouns)))
                for p in entries
            ]
            for (_, frame), entries in draw.items()
        })
    path = str(tmp_path / "preds.jsonl")
    write_predictions(path, preds)
    read_predictions(path)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = read_predictions(path)
        per_entry = (tracemalloc.get_traced_memory()[0] - before) / sum(map(len, held.values()))
    finally:
        tracemalloc.stop()
    print(f"{per_entry:.0f} B per entry, nouns of 2,048 labels (bound 500)")
    assert per_entry <= 500, per_entry


def test_entry_readers_share_one_string_per_label(tmp_path):
    spellings = ["cup", "Cup", " CUP ", "cup"]
    rows = [("v", i, [dict(PERFECT_ENTRY, noun=noun, verb="take", score=0.5)]) for i, noun in enumerate(spellings)]
    write_gt(tmp_path / "p.jsonl", rows)
    for entries in (
        [p.interaction for (p,) in read_predictions(str(tmp_path / "p.jsonl")).values()],
        [g for (g,) in read_ground_truth(str(tmp_path / "p.jsonl"), min_ttc=0.0).values()],
    ):
        assert [e.noun for e in entries] == ["cup"] * 4
        assert len({id(e.noun) for e in entries}) == 1 and len({id(e.verb) for e in entries}) == 1


class TestSynthAndSummarize:
    def test_summarize_writes_one_record_per_frame(self, tmp_path):
        frames = tmp_path / "frames.jsonl"
        proc = run_cli("synth", "--seed", "5", "--out", str(frames), "--n-frames", "90")
        assert proc.returncode == 0
        out = tmp_path / "ctx.jsonl"
        proc = run_cli("summarize", "--frames", str(frames), "--out", str(out))
        assert proc.returncode == 0
        assert len(out.read_text().splitlines()) == 90
        assert "video=synth00" in proc.stderr
        # the provenance header evaluate and quality print on stdout
        header = f"# context-forge {__version__} config_hash={config_hash(SummarizerConfig())}"
        assert proc.stderr.splitlines()[0] == header

    def test_summarize_deterministic_across_runs_and_jobs(self, tmp_path):
        frames = tmp_path / "frames.jsonl"
        run_cli(
            "synth", "--seed", "9", "--out", str(frames),
            "--n-frames", "120", "--n-videos", "3",
            "--drop-rate", "0.1", "--spurious-rate", "0.05",
        )
        outputs = []
        for run, jobs in enumerate(("1", "1", "4")):
            out = tmp_path / f"ctx{run}.jsonl"
            proc = run_cli("summarize", "--frames", str(frames), "--out", str(out), "--jobs", jobs)
            assert proc.returncode == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_synth_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli("synth", "--seed", "31", "--out", str(a), "--n-frames", "60")
        run_cli("synth", "--seed", "31", "--out", str(b), "--n-frames", "60")
        assert a.read_bytes() == b.read_bytes()

    def test_verb_vocabulary_filters_action_terms(self, tmp_path):
        frames = tmp_path / "frames.jsonl"
        run_cli("synth", "--seed", "5", "--out", str(frames), "--n-frames", "120")
        outputs = {}
        for name, text in (("none", None), ("empty", "vocab_verb=\n"), ("zzz", "vocab_verb=zzz\n")):
            out = tmp_path / f"{name}.jsonl"
            args = ["summarize", "--frames", str(frames), "--out", str(out)]
            if text is not None:
                (tmp_path / f"{name}.cfg").write_text(text)
                args += ["--config", str(tmp_path / f"{name}.cfg")]
            assert run_cli(*args).returncode == 0
            outputs[name] = out.read_bytes()
        assert outputs["empty"] == outputs["none"]
        records = [json.loads(line) for line in outputs["none"].splitlines()]
        assert any(r["action_terms"] for r in records)
        records = [json.loads(line) for line in outputs["zzz"].splitlines()]
        assert len(records) == 120 and not any(r["action_terms"] for r in records)

    def test_golden_scenario_matches_frozen_output(self, tmp_path):
        frames = tmp_path / "frames.jsonl"
        proc = run_cli(
            "synth", "--seed", "424242", "--out", str(frames),
            "--n-frames", "240", "--n-videos", "2",
            "--drop-rate", "0.1", "--spurious-rate", "0.05",
        )
        assert proc.returncode == 0
        assert frames.read_bytes() == (DATA / "golden_frames.jsonl").read_bytes()
        out = tmp_path / "ctx.jsonl"
        proc = run_cli("summarize", "--frames", str(frames), "--out", str(out))
        assert proc.returncode == 0
        assert out.read_bytes() == (DATA / "golden_contexts.jsonl").read_bytes()


def scenario_lines(n_videos, n_frames=1125, distinct=12):
    """JSON lines of ``n_videos`` videos, cycling through ``distinct`` noisy gen_scenario streams."""
    streams = [
        gen_scenario(seed=i, n_frames=n_frames, n_terms=4, drop_rate=0.1, spurious_rate=0.05)[1]
        for i in range(min(n_videos, distinct))
    ]
    return [
        [
            dumps_record(frame_record_to_dict(r))
            for r in scenario_to_frame_records(streams[v % len(streams)], f"v{v:02d}")
        ]
        for v in range(n_videos)
    ]


def with_unique_surfaces(lines):
    """``lines`` with each caption token's surface made unique; summarize reads only lemmas and tags."""
    out = []
    for n, line in enumerate(lines):
        obj = json.loads(line)
        for i, token in enumerate(t for caption in obj.get("captions", ()) for t in caption):
            token["surface"] += f"-{n}-{i}"
        out.append(dumps_record(obj))
    return out


def write_videos(path, videos):
    path.write_text("".join(line + "\n" for lines in videos for line in lines))


def summarize_peaks(frames, out):
    """The tracemalloc peak of an in-process summarize of each frames file, by key.

    One warm-up run goes first, and no garbage is left from earlier tests:
    each window sees only its own run.
    """

    def summarize(path):
        assert main(["summarize", "--frames", str(path), "--out", str(out)]) == 0

    summarize(next(iter(frames.values())))
    peaks = {}
    for key, path in frames.items():
        gc.collect()
        tracemalloc.start()
        try:
            summarize(path)
            peaks[key] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


def report(capsys, measured):
    """Print a memory test's measured figure beside its bound, for ``pytest -rP``, without summarize's stderr."""
    capsys.readouterr()
    print(measured)


class TestStreamingSummarize:
    def test_memory_holds_one_video(self, tmp_path, capsys):
        frames = {n: tmp_path / f"frames{n}.jsonl" for n in (8, 32)}
        for n_videos, path in frames.items():
            write_videos(path, scenario_lines(n_videos, n_frames=300))
        peaks = summarize_peaks(frames, tmp_path / "ctx.jsonl")
        report(capsys, f"peak at 32 videos / peak at 8: {peaks[32] / peaks[8]:.3f} (bound 1.2)")
        assert peaks[32] <= 1.2 * peaks[8], peaks

    @pytest.mark.parametrize("order", ["ascending", "shuffled"])
    def test_memory_per_frame_within_a_video(self, tmp_path, capsys, order):
        # a video is held as its frame contexts and results (about 0.45 KB
        # per frame), not as its decoded records and rendered text (1.3 KB)
        frames = {}
        for n_frames in (1125, 4500):
            (lines,) = scenario_lines(1, n_frames=n_frames)
            if order == "shuffled":
                lines = random.Random(0).sample(lines, len(lines))
            frames[n_frames] = tmp_path / f"frames{n_frames}.jsonl"
            write_videos(frames[n_frames], [lines])
        peaks = summarize_peaks(frames, tmp_path / "ctx.jsonl")
        per_frame = (peaks[4500] - peaks[1125]) / (4500 - 1125)
        report(capsys, f"peak growth per frame: {per_frame:.0f} B (bound 600 B)")
        assert per_frame <= 600, peaks

    def test_memory_per_frame_with_distinct_tokens(self, tmp_path, capsys):
        # equal caption tokens are shared through a bounded memo, so a video
        # whose tokens never repeat grows it no more than one whose tokens do
        frames = {}
        for n_frames in (1125, 4500):
            (lines,) = scenario_lines(1, n_frames=n_frames)
            frames[n_frames] = tmp_path / f"frames{n_frames}.jsonl"
            write_videos(frames[n_frames], [with_unique_surfaces(lines)])
        peaks = summarize_peaks(frames, tmp_path / "ctx.jsonl")
        per_frame = (peaks[4500] - peaks[1125]) / (4500 - 1125)
        report(capsys, f"peak growth per frame, distinct tokens: {per_frame:.0f} B (bound 600 B)")
        assert per_frame <= 600, peaks

    def test_memory_per_video_retained(self, tmp_path, capsys):
        # what summarize keeps of each finished video (its stats and sort index);
        # short videos, so that no video's own working set hides it
        frames = {n: tmp_path / f"frames{n}.jsonl" for n in (32, 128)}
        for n_videos, path in frames.items():
            write_videos(path, scenario_lines(n_videos, n_frames=60))
        peaks = summarize_peaks(frames, tmp_path / "ctx.jsonl")
        per_video = (peaks[128] - peaks[32]) / (128 - 32)
        report(capsys, f"peak growth per video: {per_video:.0f} B (bound 1250 B)")
        assert per_video <= 1250, peaks

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_malformed_last_line_leaves_no_output(self, tmp_path, capsys, jobs):
        frames = tmp_path / "frames.jsonl"
        write_videos(frames, scenario_lines(3, n_frames=40) + [["{truncated"]])
        out = tmp_path / "ctx.jsonl"
        argv = ["summarize", "--frames", str(frames), "--out", str(out), "--jobs", jobs]
        assert main(argv) == 1
        assert f"{frames}:line 121: invalid JSON" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["frames.jsonl"]
        out.write_bytes(b"old contents\n")
        assert main(argv) == 1
        assert out.read_bytes() == b"old contents\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ctx.jsonl", "frames.jsonl"]

    def test_output_independent_of_input_order(self, tmp_path):
        videos = scenario_lines(5, n_frames=60)
        frames = tmp_path / "sorted.jsonl"
        write_videos(frames, videos)
        shuffled = tmp_path / "shuffled.jsonl"
        rng = random.Random(0)
        write_videos(shuffled, [rng.sample(lines, len(lines)) for lines in reversed(videos)])
        want = run_cli("summarize", "--frames", str(frames), "--out", str(tmp_path / "want.jsonl"))
        assert want.returncode == 0
        for jobs in ("1", "2", "4"):
            out = tmp_path / f"ctx{jobs}.jsonl"
            proc = run_cli("summarize", "--frames", str(shuffled), "--out", str(out), "--jobs", jobs)
            assert (proc.returncode, proc.stderr) == (0, want.stderr)
            assert out.read_bytes() == (tmp_path / "want.jsonl").read_bytes()

    def test_jobs_runs_in_one_process(self, tmp_path):
        # --jobs is checked and has no effect: no process pool, so no multiprocessing import
        out = tmp_path / "ctx.jsonl"
        script = ("import sys; from context_forge.cli import main; code = main(sys.argv[1:]); "
                  "print('multiprocessing' in sys.modules); sys.exit(code)")
        proc = run_python("-c", script, "summarize", "--frames", str(DATA / "golden_frames.jsonl"),
                          "--out", str(out), "--jobs", "4")
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr
        assert out.read_bytes() == (DATA / "golden_contexts.jsonl").read_bytes()

    def test_out_may_be_the_frames_file(self, tmp_path, capsys):
        frames = tmp_path / "frames.jsonl"
        write_videos(frames, scenario_lines(2, n_frames=30))
        want = tmp_path / "want.jsonl"
        assert main(["summarize", "--frames", str(frames), "--out", str(want)]) == 0
        assert main(["summarize", "--frames", str(frames), "--out", str(frames)]) == 0
        assert frames.read_bytes() == want.read_bytes()

    def test_out_in_a_missing_directory_is_io_error_naming_it(self, tmp_path, capsys):
        frames = tmp_path / "frames.jsonl"
        write_videos(frames, scenario_lines(1, n_frames=30))
        out = tmp_path / "missing" / "ctx.jsonl"
        assert main(["summarize", "--frames", str(frames), "--out", str(out)]) == 2
        assert f"No such file or directory: '{out}'" in capsys.readouterr().err

    def test_out_keeps_the_mode_open_would_give_it(self, tmp_path, capsys):
        frames = tmp_path / "frames.jsonl"
        write_videos(frames, scenario_lines(1, n_frames=30))
        fresh, existing = tmp_path / "fresh.jsonl", tmp_path / "existing.jsonl"
        existing.write_text("old\n")
        existing.chmod(0o640)
        for out in (fresh, existing):
            assert main(["summarize", "--frames", str(frames), "--out", str(out)]) == 0
        with open(tmp_path / "opened", "w"):
            pass
        assert fresh.stat().st_mode == (tmp_path / "opened").stat().st_mode
        assert existing.stat().st_mode & 0o777 == 0o640

    def test_symlinked_out_writes_its_target(self, tmp_path, capsys):
        frames = tmp_path / "frames.jsonl"
        write_videos(frames, scenario_lines(2, n_frames=30))
        want = tmp_path / "want.jsonl"
        assert main(["summarize", "--frames", str(frames), "--out", str(want)]) == 0
        (tmp_path / "sub").mkdir()
        target = tmp_path / "sub" / "target.jsonl"
        link = tmp_path / "link.jsonl"
        link.symlink_to(target)
        assert main(["summarize", "--frames", str(frames), "--out", str(link)]) == 0
        assert link.is_symlink() and target.read_bytes() == want.read_bytes()
        assert sorted(p.name for p in (tmp_path / "sub").iterdir()) == ["target.jsonl"]

    def test_non_regular_out_is_written_not_replaced(self, tmp_path):
        frames = tmp_path / "frames.jsonl"
        write_videos(frames, list(reversed(scenario_lines(2, n_frames=30))))
        want = tmp_path / "want.jsonl"
        assert run_cli("summarize", "--frames", str(frames), "--out", str(want)).returncode == 0
        proc = run_cli("summarize", "--frames", str(frames), "--out", "/dev/stdout")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == want.read_text()


def context(actions=(), held=(), salient=()):
    return assemble([ActionPair(verb, noun) for verb, noun in actions], list(held), list(salient))


# Strings that JSON escapes, or that spell the frame id key or its value.
ODD_TEXT = ['say "hi"', "back\\slash", "café 東京 ü", '"frame_id":0', "frame_id", ":0", '\\"frame_id\\":0']
ODD_VIDEO_IDS = [*ODD_TEXT, '"frame_id":0,"held":[],', "v"]


class TestRender:
    @pytest.mark.parametrize("video_id", ODD_VIDEO_IDS)
    def test_lines_equal_one_render_per_result(self, video_id):
        odd = context([("cut", ODD_TEXT[0]), (ODD_TEXT[1], "wood")], ODD_TEXT[2:4], ODD_TEXT[4:])
        twin = context([("cut", ODD_TEXT[0]), (ODD_TEXT[1], "wood")], ODD_TEXT[2:4], ODD_TEXT[4:])
        empty = context()
        assert twin == odd and twin is not odd and empty.text == ""
        results = [
            (video_id, 0, odd), (video_id, 1, odd), (video_id, 2, twin), (video_id, 3, empty),
            (video_id, 4, context()), (video_id, 5, odd), (video_id, sys.maxsize, empty),
        ]
        assert list(cli._render(results)) == [dumps_record(context_to_dict(*r)) + "\n" for r in results]

    @given(
        labels=st.lists(
            st.text(min_size=1).filter(lambda s: not {",", ";"} & set(s) and normalize_label(s)),
            min_size=1, max_size=6,
        ),
        video_id=st.text(),
        frame_ids=st.lists(st.integers(0, sys.maxsize), min_size=1, max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_labels_render_as_dumps_record(self, labels, video_id, frame_ids):
        ctx = context([(label, labels[0]) for label in labels[1:]], labels[:1], labels[-1:])
        results = [(video_id, frame_id, ctx) for frame_id in frame_ids]
        assert list(cli._render(results)) == [dumps_record(context_to_dict(*r)) + "\n" for r in results]

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_each_context_rendered_once(self, tmp_path, capsys, monkeypatch, seed):
        # Counted, never timed: a context is rendered once per run of frames
        # that share it, which is once per assembled context.
        calls = {"dumps_record": 0, "assemble": 0}

        def counting(owner, name):
            original = getattr(owner, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(owner, name, wrapper)

        counting(cli, "dumps_record")
        counting(pipeline, "assemble")
        _, stream = gen_scenario(seed, n_frames=1125, n_terms=4, drop_rate=0.1, spurious_rate=0.05)
        frames = tmp_path / "frames.jsonl"
        write_videos(frames, [[dumps_record(frame_record_to_dict(r)) for r in scenario_to_frame_records(stream, "v")]])
        assert main(["summarize", "--frames", str(frames), "--out", str(tmp_path / "ctx.jsonl")]) == 0
        report(capsys, f"dumps_record calls per frame: {calls['dumps_record'] / 1125:.3f} "
                       f"({calls['dumps_record']} calls, {calls['assemble']} assemble calls; bound 0.2)")
        assert calls["dumps_record"] == calls["assemble"] < 1125 / 5, calls


class TestEvaluate:
    def test_perfect_predictions_score_100(self, tmp_path):
        preds = tmp_path / "p.jsonl"
        gt = tmp_path / "g.jsonl"
        write_gt(preds, [("v", f, [dict(PERFECT_ENTRY, score=1.0)]) for f in range(3)])
        write_gt(gt, [("v", f, [PERFECT_ENTRY]) for f in range(3)])
        out = tmp_path / "report.json"
        proc = run_cli(
            "evaluate", "--preds", str(preds), "--gt", str(gt), "--out", str(out),
            "--variant", "n", "--variant", "nv", "--variant", "nt", "--variant", "all",
            "--variant", "no", "--variant", "vo",
        )
        assert proc.returncode == 0
        payload = json.loads(out.read_text())
        assert payload["version"] == __version__
        assert "config_hash" in payload
        assert len(payload["reports"]) == 6
        for report in payload["reports"]:
            assert report["map"] == pytest.approx(100.0)

    def test_empty_predictions_score_zero(self, tmp_path):
        preds = tmp_path / "p.jsonl"
        gt = tmp_path / "g.jsonl"
        preds.write_text("")
        write_gt(gt, [("v", 0, [PERFECT_ENTRY])])
        out = tmp_path / "report.json"
        proc = run_cli("evaluate", "--preds", str(preds), "--gt", str(gt), "--out", str(out))
        assert proc.returncode == 0
        payload = json.loads(out.read_text())
        assert all(r["map"] == 0.0 for r in payload["reports"])

    def test_synth_instance_matches_oracle_through_files(self, tmp_path):
        from context_forge.records import (
            read_ground_truth,
            read_predictions,
            write_ground_truth,
            write_predictions,
        )
        from context_forge.synth import gen_eval_instance, oracle_ap
        from context_forge.metrics import Variant

        preds, gts = gen_eval_instance(321)
        preds_path, gt_path = tmp_path / "p.jsonl", tmp_path / "g.jsonl"
        write_predictions(str(preds_path), preds)
        write_ground_truth(str(gt_path), gts)
        assert read_predictions(str(preds_path)) == preds
        assert read_ground_truth(str(gt_path), min_ttc=SummarizerConfig().min_ttc) == gts

        out = tmp_path / "report.json"
        proc = run_cli(
            "evaluate", "--preds", str(preds_path), "--gt", str(gt_path), "--out", str(out),
            "--variant", "n", "--variant", "nv", "--variant", "nt", "--variant", "all",
            "--variant", "no", "--variant", "vo",
        )
        assert proc.returncode == 0
        payload = json.loads(out.read_text())
        for report in payload["reports"]:
            expected = oracle_ap(preds, gts, Variant(report["variant"]))
            assert report["map"] == pytest.approx(expected, abs=1e-9)

    def test_text_report_on_stdout(self, tmp_path):
        preds = tmp_path / "p.jsonl"
        gt = tmp_path / "g.jsonl"
        write_gt(preds, [("v", 0, [dict(PERFECT_ENTRY, score=0.9)])])
        write_gt(gt, [("v", 0, [PERFECT_ENTRY])])
        proc = run_cli("evaluate", "--preds", str(preds), "--gt", str(gt), "--variant", "n")
        assert proc.returncode == 0
        assert "variant n" in proc.stdout
        assert "config_hash=" in proc.stdout

    def test_repeated_variant_repeats_its_report(self, tmp_path, capsys):
        # per-variant state held by position: a repeat must not double-count the variant's hits
        from context_forge.records import write_ground_truth, write_predictions
        from context_forge.synth import gen_eval_instance

        preds, gts = gen_eval_instance(321)
        preds_path, gt_path, out = tmp_path / "p.jsonl", tmp_path / "g.jsonl", tmp_path / "report.json"
        write_predictions(str(preds_path), preds)
        write_ground_truth(str(gt_path), gts)

        def evaluate(*variants):
            argv = ["evaluate", "--preds", str(preds_path), "--gt", str(gt_path), "--out", str(out)]
            for variant in variants:
                argv += ["--variant", variant]
            assert main(argv) == 0
            provenance, text = capsys.readouterr().out.split("\n", 1)
            return text, json.loads(out.read_text())["reports"]

        n_text, (n_report,) = evaluate("n")
        vo_text, (vo_report,) = evaluate("vo")
        text, reports = evaluate("n", "n", "vo")
        assert text == n_text + n_text + vo_text
        assert reports == [n_report, n_report, vo_report]
        assert n_report["map"] > 0.0

    def test_golden_report_matches_frozen_output(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = ["evaluate", "--preds", str(DATA / "golden_eval_preds.jsonl"),
                "--gt", str(DATA / "golden_eval_gt.jsonl"), "--out", str(out)]
        for variant in ("n", "nv", "nt", "all", "no", "vo"):
            argv += ["--variant", variant]
        assert main(argv) == 0
        assert out.read_bytes() == (DATA / "golden_eval_report.json").read_bytes()


class TestQuality:
    def _embeddings(self, path, words):
        rows = []
        for i, word in enumerate(words):
            vec = ["0.0"] * 300
            vec[i] = "1.0"
            rows.append(word + "\t" + "\t".join(vec))
        path.write_text("\n".join(rows) + "\n")

    def test_quality_end_to_end(self, tmp_path):
        contexts = tmp_path / "ctx.jsonl"
        contexts.write_text(
            json.dumps(
                {
                    "video_id": "v",
                    "frame_id": 0,
                    "text": "take cup; ; cup",
                    "action_terms": [["take", "cup"]],
                    "held": [],
                    "salient": ["cup"],
                }
            )
            + "\n"
        )
        gt = tmp_path / "g.jsonl"
        write_gt(gt, [("v", 0, [PERFECT_ENTRY])])
        emb = tmp_path / "emb.tsv"
        self._embeddings(emb, ["cup", "take"])
        out = tmp_path / "q.json"
        proc = run_cli(
            "quality", "--contexts", str(contexts), "--gt", str(gt),
            "--embeddings", str(emb), "--out", str(out),
        )
        assert proc.returncode == 0
        payload = json.loads(out.read_text())["quality"]
        assert payload["exact_noun_hits"] == 1.0
        assert payload["salient_recall"] == 1.0
        assert payload["avg_embed_sim_noun"] == pytest.approx(1.0)

        from dataclasses import fields
        from context_forge.metrics import QualityReport

        names = [f.name for f in fields(QualityReport)]
        lines = proc.stdout.splitlines()[1:]
        assert [line.split()[0] for line in lines] == names
        assert sorted(payload) == sorted(names)
        assert lines[0] == "exact_noun_hits 1.000000"
        assert lines[-2:] == ["n_frames 1", "missing_embeddings 0"]


    def test_lookup_of_a_dropped_row_exits_3(self, tmp_path, capsys, monkeypatch):
        # a word set that misses a looked-up word is a bug, not a missing embedding
        contexts = tmp_path / "ctx.jsonl"
        contexts.write_text("")
        gt = tmp_path / "g.jsonl"
        write_gt(gt, [("v", 0, [PERFECT_ENTRY])])
        emb = tmp_path / "emb.tsv"
        self._embeddings(emb, ["cup", "take"])
        monkeypatch.setattr(cli, "quality_words", lambda contexts, gts: {"take"})
        argv = ["quality", "--contexts", str(contexts), "--gt", str(gt), "--embeddings", str(emb)]
        assert main(argv) == 3
        assert "embedding row for 'cup' was dropped" in capsys.readouterr().err

    def test_hand_counted_report(self, tmp_path):
        # Unit vectors, so every cosine is exactly 0 or 1. Frame 0 has two
        # entries and a context; frame 1 has a context but no entries;
        # frame 2 has an entry but no context; frame 3 has a context but
        # no ground truth. "cut" and "plate" have no vector.
        def context(frame_id, pairs, salient):
            text = "; ".join([", ".join(f"{v} {n}" for v, n in pairs), "", ", ".join(salient)])
            return {"video_id": "v", "frame_id": frame_id, "text": text,
                    "action_terms": pairs, "held": [], "salient": salient}

        contexts = tmp_path / "ctx.jsonl"
        contexts.write_text("".join(json.dumps(obj) + "\n" for obj in [
            context(0, [["take", "cup"]], ["cup"]),
            context(1, [], ["plate"]),
            context(3, [["take", "cup"]], ["cup"]),
        ]))
        knife = {**PERFECT_ENTRY, "noun": "knife"}
        gt = tmp_path / "g.jsonl"
        write_gt(gt, [("v", 0, [PERFECT_ENTRY, {**knife, "verb": "cut"}]), ("v", 1, []), ("v", 2, [knife])])
        emb = tmp_path / "emb.tsv"
        self._embeddings(emb, ["cup", "take", "knife"])
        out = tmp_path / "q.json"
        proc = run_cli(
            "quality", "--contexts", str(contexts), "--gt", str(gt),
            "--embeddings", str(emb), "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        # three entries: cup/take and knife/cut under frame 0's context, knife/take under none
        quality = {
            "exact_noun_hits": 1 / 3,  # cup
            "exact_verb_hits": 1 / 3,  # take
            "avg_embed_sim_noun": 0.5,  # cup.cup = 1, cup.knife = 0; frame 2 has no context words
            "avg_embed_sim_verb": 1.0,  # take.take = 1; "cut" has no vector
            "frame_coverage": 2 / 3,
            "salient_precision": 0.5,  # one salient slot per frame-0 entry, matched by cup
            "salient_recall": 1 / 3,
            "n_frames": 3,
            "missing_embeddings": 1,  # "cut"; frame 1's "plate" counts for no entry
        }
        cfg_hash = config_hash(SummarizerConfig())
        assert json.loads(out.read_text()) == {"version": __version__, "config_hash": cfg_hash, "quality": quality}
        assert proc.stdout.splitlines() == [
            f"# context-forge {__version__} config_hash={cfg_hash}",
            "exact_noun_hits 0.333333",
            "exact_verb_hits 0.333333",
            "avg_embed_sim_noun 0.500000",
            "avg_embed_sim_verb 1.000000",
            "frame_coverage 0.666667",
            "salient_precision 0.500000",
            "salient_recall 0.333333",
            "n_frames 3",
            "missing_embeddings 1",
        ]

    def test_tiny_vectors_keep_their_direction(self, tmp_path):
        # 300 x 1e-170 has a squared norm that underflows to 0, yet it is no zero vector
        contexts = tmp_path / "ctx.jsonl"
        contexts.write_text(json.dumps({
            "video_id": "v", "frame_id": 0, "text": "take cup; knife; ",
            "action_terms": [["take", "cup"]], "held": ["knife"], "salient": [],
        }) + "\n")
        gt = tmp_path / "g.jsonl"
        write_gt(gt, [("v", 0, [PERFECT_ENTRY])])
        emb = tmp_path / "emb.tsv"
        tiny = "\t" + "\t".join(["1e-170"] * 300) + "\n"
        emb.write_text("cup" + tiny + "take" + tiny + "knife" + tiny)
        proc = run_cli(
            "quality", "--contexts", str(contexts), "--gt", str(gt), "--embeddings", str(emb)
        )
        assert proc.returncode == 0, proc.stderr
        assert "avg_embed_sim_noun 1.000000" in proc.stdout
        assert "avg_embed_sim_verb 1.000000" in proc.stdout

    @pytest.mark.parametrize("text", ["", "\n\n", " \t \n"], ids=["empty", "blank", "whitespace"])
    def test_empty_embeddings_file_named(self, tmp_path, capsys, text):
        contexts = tmp_path / "ctx.jsonl"
        contexts.write_text(json.dumps({
            "video_id": "v", "frame_id": 0, "text": "take cup; ; cup",
            "action_terms": [["take", "cup"]], "held": [], "salient": ["cup"],
        }) + "\n")
        gt = tmp_path / "g.jsonl"
        write_gt(gt, [("v", 0, [PERFECT_ENTRY])])
        emb = tmp_path / "emb.tsv"
        emb.write_text(text)
        argv = ["quality", "--contexts", str(contexts), "--gt", str(gt), "--embeddings", str(emb)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {emb}: no embeddings\n"

    def test_reads_summarize_output(self, tmp_path):
        """Every summarize context passes the reader's text check."""
        from context_forge.records import read_contexts

        golden = DATA / "golden_contexts.jsonl"
        assert len(read_contexts(str(golden))) == len(golden.read_text().splitlines()) == 480
        gt = tmp_path / "g.jsonl"
        write_gt(gt, [("synth00", 30, [PERFECT_ENTRY])])
        emb = tmp_path / "emb.tsv"
        self._embeddings(emb, ["cup", "take"])
        proc = run_cli("quality", "--contexts", str(golden), "--gt", str(gt), "--embeddings", str(emb))
        assert proc.returncode == 0, proc.stderr
        assert "n_frames 1" in proc.stdout


class TestFuseCheck:
    def test_all_invariants_pass(self, tmp_path):
        proc = run_cli("fuse-check", "--seed", "3")
        assert proc.returncode == 0
        assert proc.stdout.count("PASS") >= 7
        assert "FAIL" not in proc.stdout

    def test_bundle_roundtrip_via_cli(self, tmp_path):
        bundle = tmp_path / "params.bin"
        proc = run_cli("fuse-check", "--seed", "4", "--out", str(bundle))
        assert proc.returncode == 0
        proc = run_cli("fuse-check", "--params", str(bundle), "--seed", "4")
        assert proc.returncode == 0

    def test_corrupt_bundle_fails_validation(self, tmp_path):
        bundle = tmp_path / "params.bin"
        bundle.write_bytes(b"JUNKJUNKJUNK")
        proc = run_cli("fuse-check", "--params", str(bundle))
        assert proc.returncode == 1

    @pytest.mark.parametrize("params", [False, True])
    def test_negative_seed_is_validation_error(self, tmp_path, params):
        bundle = tmp_path / "params.bin"
        args = ["fuse-check", "--seed", "-1"]
        if params:
            assert run_cli("fuse-check", "--seed", "4", "--out", str(bundle)).returncode == 0
            args += ["--params", str(bundle)]
        proc = run_cli(*args)
        assert proc.returncode == 1
        assert "error: --seed -1 out of range [0, inf]" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestInProcessMain:
    def test_main_returns_exit_code(self, tmp_path, capsys):
        frames = tmp_path / "frames.jsonl"
        frames.write_text(json.dumps({"video_id": "v", "frame_id": 0}) + "\n")
        out = tmp_path / "ctx.jsonl"
        assert main(["summarize", "--frames", str(frames), "--out", str(out)]) == 0
        assert out.exists()
