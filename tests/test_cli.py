import json
import subprocess
import sys
from pathlib import Path

import pytest

from context_forge import __version__, cli
from context_forge.cli import main
from context_forge.core import InvariantError

DATA = Path(__file__).parent / "data"


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "context_forge.cli", *args],
        capture_output=True,
        text=True,
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


class TestInProcessMain:
    def test_main_returns_exit_code(self, tmp_path, capsys):
        frames = tmp_path / "frames.jsonl"
        frames.write_text(json.dumps({"video_id": "v", "frame_id": 0}) + "\n")
        out = tmp_path / "ctx.jsonl"
        assert main(["summarize", "--frames", str(frames), "--out", str(out)]) == 0
        assert out.exists()
