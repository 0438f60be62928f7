import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from context_forge import __version__, cli
from context_forge.cli import main
from context_forge.core import InvariantError
from context_forge.records import dumps_record, frame_record_to_dict
from context_forge.synth import gen_scenario, scenario_to_frame_records

DATA = Path(__file__).parent / "data"
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args):
    # the package's own sources come first, installed or not
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "context_forge.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    return proc


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
        good = json.dumps({"video_id": "v", "frame_id": 0})
        frames.write_text(good + "\n" + good + "\n" + "{truncated\n")
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

    def test_invariant_violation_reported_once(self, tmp_path, capsys, monkeypatch):
        def fail(*args):
            raise InvariantError("lanes disagree")

        monkeypatch.setattr(cli, "summarize_video", fail)
        frames = tmp_path / "frames.jsonl"
        frames.write_text(json.dumps({"video_id": "v", "frame_id": 0}) + "\n")
        assert main(["summarize", "--frames", str(frames), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.count("lanes disagree") == 1


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


def write_videos(path, videos):
    path.write_text("".join(line + "\n" for lines in videos for line in lines))


class TestStreamingSummarize:
    def test_memory_holds_one_video(self, tmp_path, capsys):
        peaks = {}
        for n_videos in (12, 48):
            frames = tmp_path / f"frames{n_videos}.jsonl"
            write_videos(frames, scenario_lines(n_videos))
            tracemalloc.start()
            try:
                assert main(["summarize", "--frames", str(frames), "--out", str(tmp_path / "ctx.jsonl")]) == 0
                peaks[n_videos] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[48] <= 1.2 * peaks[12], peaks

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

    def test_jobs_capped_at_cpu_count(self, tmp_path, capsys, monkeypatch):
        pools = []

        class InlinePool:
            """Runs each task at submit; records its size and the most tasks
            submitted but not yet collected."""

            def __init__(self, max_workers):
                self.max_workers, self.pending, self.peak = max_workers, 0, 0
                pools.append(self)

            def submit(self, fn, *args):
                self.pending += 1
                self.peak = max(self.peak, self.pending)
                value = fn(*args)
                pool = self

                class Done:
                    def result(self):
                        pool.pending -= 1
                        return value

                return Done()

            def shutdown(self, cancel_futures=False):
                pass

        frames = tmp_path / "frames.jsonl"
        write_videos(frames, scenario_lines(9, n_frames=30))
        want = tmp_path / "want.jsonl"
        assert main(["summarize", "--frames", str(frames), "--out", str(want)]) == 0
        want_err = capsys.readouterr().err
        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        out = tmp_path / "ctx.jsonl"
        assert main(["summarize", "--frames", str(frames), "--out", str(out), "--jobs", "64"]) == 0
        assert capsys.readouterr().err == want_err
        assert out.read_bytes() == want.read_bytes()
        assert [(pool.max_workers, pool.peak) for pool in pools] == [(2, 4)]

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
        assert read_ground_truth(str(gt_path)) == gts

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
        assert "error: --seed -1 must be at least 0" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestInProcessMain:
    def test_main_returns_exit_code(self, tmp_path, capsys):
        frames = tmp_path / "frames.jsonl"
        frames.write_text(json.dumps({"video_id": "v", "frame_id": 0}) + "\n")
        out = tmp_path / "ctx.jsonl"
        assert main(["summarize", "--frames", str(frames), "--out", str(out)]) == 0
        assert out.exists()
