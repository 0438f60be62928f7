"""Strict record decoding: every malformed line exits 1 with a message naming path:line.

Each case runs a subcommand in-process on small files whose line 1 is a
valid record and whose line 2 is the record under test.
"""

import copy
import dataclasses
import json

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from context_forge.assembly import assemble
from context_forge.cli import main
from context_forge.core import (
    ActionPair,
    BoundingBox,
    FrameRecord,
    ObjectInteraction,
    ParseError,
    PosTag,
    Prediction,
    TaggedToken,
    ValidationError,
    checked_frame_id,
    read_lines,
)
from context_forge.records import (
    _as,
    _frame_record,
    _get,
    dumps_record,
    frame_record_to_dict,
    read_contexts,
    read_frame_records,
    read_ground_truth,
    read_predictions,
)
from context_forge.synth import gen_scenario, scenario_to_frame_records

BOX = [0.0, 0.0, 10.0, 10.0]
FRAME = {
    "video_id": "v",
    "frame_id": 0,
    "captions": [[
        {"surface": "cuts", "lemma": "cut", "pos": "VERB"},
        {"surface": "the", "lemma": "the", "pos": "OTHER"},
        {"surface": "wood", "lemma": "wood", "pos": "NOUN"},
    ]],
    "label_scores": {"knife": 0.9, "table": 0.5},
    "active_boxes": [BOX],
    "detections": [{"label": "saw", "box": BOX, "score": 0.9}],
}
ENTRY = {"box": BOX, "noun": "cup", "verb": "take", "ttc": 1.0}
RECORDS = {
    "frames": FRAME,
    "preds": {"video_id": "v", "frame_id": 0, "entries": [dict(ENTRY, score=0.5)]},
    "gt": {"video_id": "v", "frame_id": 0, "entries": [ENTRY]},
    "contexts": {
        "video_id": "v",
        "frame_id": 0,
        "text": "take cup; cup; knife",
        "action_terms": [["take", "cup"]],
        "held": ["cup"],
        "salient": ["knife"],
    },
}
VECTOR = ["0.5"] * 300
TEXT_LINES = {
    "embeddings": ["cup\t" + "\t".join(VECTOR), "take\t" + "\t".join(VECTOR)],
    "config": ["k=5", "theta_iou=0.25"],
}
# (subcommand, input file under test); every other input is valid
TARGETS = [
    ("summarize", "frames"),
    ("summarize", "config"),
    ("evaluate", "preds"),
    ("evaluate", "gt"),
    ("quality", "contexts"),
    ("quality", "gt"),
    ("quality", "embeddings"),
]
SUFFIX = {"embeddings": ".tsv", "config": ".cfg"}


def valid_lines(kind):
    if kind in TEXT_LINES:
        return list(TEXT_LINES[kind])
    first = dict(copy.deepcopy(RECORDS[kind]), video_id="u")
    return [json.dumps(first), json.dumps(RECORDS[kind])]


def run(tmp_path, capsys, command, kind, line2, jobs=1, bom=False):
    """Run ``command`` with ``line2`` as line 2 of its ``kind`` input; return (code, stderr, path).

    summarize runs with ``--jobs jobs``. With ``bom``, a UTF-8 byte-order mark opens that input.
    """
    paths = {}
    for name in ("frames", "preds", "gt", "contexts", "embeddings", "config"):
        lines = valid_lines(name)
        if name == kind:
            lines[1] = line2
            if bom:
                lines[0] = "\ufeff" + lines[0]
        paths[name] = tmp_path / (name + SUFFIX.get(name, ".jsonl"))
        # surrogate escapes in a line stand for bytes that are not UTF-8
        paths[name].write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    out = str(tmp_path / "out")
    argv = {
        "summarize": ["summarize", "--frames", paths["frames"], "--out", out, "--jobs", jobs],
        "evaluate": ["evaluate", "--preds", paths["preds"], "--gt", paths["gt"], "--out", out],
        "quality": [
            "quality", "--contexts", paths["contexts"], "--gt", paths["gt"],
            "--embeddings", paths["embeddings"], "--out", out,
        ],
    }[command]
    if kind == "config":
        argv += ["--config", paths["config"]]
    capsys.readouterr()
    code = main([str(arg) for arg in argv])
    return code, capsys.readouterr().err, str(paths[kind])


def mutated(kind, edit):
    record = copy.deepcopy(RECORDS[kind])
    edit(record)
    return json.dumps(record)


def setter(*path_and_value):
    *path, key, value = path_and_value

    def edit(record):
        for step in path:
            record = record[step]
        record[key] = value

    return edit


# Malformed inputs that exited 3, or exited 0 after a silent coercion, or
# exited 1 with no location.
REJECTED = {
    "frame_id-string": ("summarize", "frames", mutated("frames", setter("frame_id", "abc"))),
    "frame_id-float": ("summarize", "frames", mutated("frames", setter("frame_id", 1.7))),
    "frame_id-bool": ("summarize", "frames", mutated("frames", setter("frame_id", True))),
    "video_id-list": ("summarize", "frames", mutated("frames", setter("video_id", ["v"]))),
    "detection-score-string": (
        "summarize", "frames", mutated("frames", setter("detections", 0, "score", "x"))),
    "detection-score-null": (
        "summarize", "frames", mutated("frames", setter("detections", 0, "score", None))),
    "detection-label-comma": (
        "summarize", "frames", mutated("frames", setter("detections", 0, "label", "a,b"))),
    "label-score-bool": (
        "summarize", "frames", mutated("frames", setter("label_scores", "knife", True))),
    "label-scores-key-semicolon": (
        "summarize", "frames", mutated("frames", setter("label_scores", {"a;b": 0.5}))),
    "caption-lemma-comma": (
        "summarize", "frames", mutated("frames", setter("captions", 0, 2, "lemma", "a,b"))),
    "caption-lemma-blank": (
        "summarize", "frames", mutated("frames", setter("captions", 0, 0, "lemma", "  "))),
    "caption-noun-lemma-blank": (
        "summarize", "frames", mutated("frames", setter("captions", 0, 2, "lemma", "\t"))),
    "detection-label-blank": (
        "summarize", "frames", mutated("frames", setter("detections", 0, "label", " "))),
    "detection-label-empty": (
        "summarize", "frames", mutated("frames", setter("detections", 0, "label", ""))),
    "label-scores-key-blank": ("summarize", "frames", mutated("frames", setter("label_scores", {"  ": 0.9}))),
    "caption-lemma-int": (
        "summarize", "frames", mutated("frames", setter("captions", 0, 0, "lemma", 5))),
    "captions-not-list": ("summarize", "frames", mutated("frames", setter("captions", {}))),
    "active_boxes-not-list": ("summarize", "frames", mutated("frames", setter("active_boxes", 5))),
    "detections-not-list": ("summarize", "frames", mutated("frames", setter("detections", {}))),
    "box-coordinate-string": (
        "summarize", "frames", mutated("frames", setter("active_boxes", 0, 0, "0"))),
    "frames-not-contiguous": (
        "summarize", "frames", json.dumps(FRAME) + "\n" + json.dumps(dict(FRAME, video_id="u", frame_id=1))),
    "frames-duplicate-frame": ("summarize", "frames", mutated("frames", setter("video_id", "u"))),
    "ttc-string": ("evaluate", "gt", mutated("gt", setter("entries", 0, "ttc", "x"))),
    "ttc-below-minimum": ("evaluate", "gt", mutated("gt", setter("entries", 0, "ttc", 0.01))),
    "noun-list": ("evaluate", "gt", mutated("gt", setter("entries", 0, "noun", ["a"]))),
    "noun-comma": ("evaluate", "gt", mutated("gt", setter("entries", 0, "noun", "a,b"))),
    "verb-semicolon": ("evaluate", "preds", mutated("preds", setter("entries", 0, "verb", "a;b"))),
    "prediction-score-null": (
        "evaluate", "preds", mutated("preds", setter("entries", 0, "score", None))),
    "prediction-score-string": (
        "evaluate", "preds", mutated("preds", setter("entries", 0, "score", "0.5"))),
    "held-string": ("quality", "contexts", mutated("contexts", setter("held", "abc"))),
    "held-comma": ("quality", "contexts", mutated("contexts", setter("held", ["a,b"]))),
    "salient-int": ("quality", "contexts", mutated("contexts", setter("salient", [1]))),
    "action-term-semicolon": (
        "quality", "contexts", mutated("contexts", setter("action_terms", [["take", "a;b"]]))),
    "text-null": ("quality", "contexts", mutated("contexts", setter("text", None))),
    "text-not-its-fields": ("quality", "contexts", json.dumps(dict(
        RECORDS["contexts"], text="wash banana; spoon; ", action_terms=[["cut", "tomato"]], held=["knife"]))),
    "text-two-sections": ("quality", "contexts", mutated("contexts", setter("text", "take cup; cup"))),
    "ttc-beyond-float-range": ("evaluate", "gt", mutated("gt", setter("entries", 0, "ttc", 10**400))),
    "integer-too-long-to-parse": ("evaluate", "gt", '{"frame_id": 1' + "0" * 5000 + "}"),
    "nesting-too-deep": ("quality", "contexts", "[" * 100_000),
    "embedding-nan": ("quality", "embeddings", "take\t" + "\t".join(["nan"] + VECTOR[1:])),
    "embedding-overflow": ("quality", "embeddings", "take\t" + "\t".join(["1e400"] + VECTOR[1:])),
    "config-nan": ("summarize", "config", "theta_iou=nan"),
    "config-inf": ("summarize", "config", "t_delta=inf"),
    "config-merge-table": ("summarize", "config", "merge_table=a->b,a->c"),
    "config-d-negative": ("summarize", "config", "d=-1"),
    "config-stride-zero": ("summarize", "config", "stride=0"),
    "config-p_o-zero": ("summarize", "config", "p_o_held=0"),
    "config-iou-above-1": ("summarize", "config", "iou_thresh=1.5"),
    "held-blank": ("quality", "contexts", mutated("contexts", setter("held", ["  "]))),
    "salient-empty": ("quality", "contexts", mutated("contexts", setter("salient", [""]))),
    "frames-invalid-utf8": (
        "summarize", "frames", json.dumps(dict(FRAME, video_id="\udcff"), ensure_ascii=False)),
    "frames-lone-surrogate-escape": ("summarize", "frames", mutated("frames", setter("video_id", "\udcff"))),
    "contexts-lone-surrogate-escape": ("quality", "contexts", mutated("contexts", setter("held", ["\ud800"]))),
    "embeddings-invalid-utf8": ("quality", "embeddings", "\udcff\t" + "\t".join(VECTOR)),
    "config-invalid-utf8": ("summarize", "config", "vocab_noun=\udcc3"),
    "config-context-length-beyond-sys-maxsize": ("summarize", "config", "l_held=99999999999999999999"),
    "config-int-underscore": ("summarize", "config", "stride=1_0"),
    "config-int-non-ascii-digit": ("summarize", "config", "stride=\u0663"),
    "config-float-non-ascii-digit": ("summarize", "config", "t_delta=0.\u0665"),
    "embedding-underscore": ("quality", "embeddings", "take\t" + "\t".join(["1_0"] + VECTOR[1:])),
    "embedding-non-ascii-digit": ("quality", "embeddings", "take\t" + "\t".join(["\u0663"] + VECTOR[1:])),
    "embedding-norm-overflow": ("quality", "embeddings", "take\t" + "\t".join(["1e308"] * 300)),
    # only JSON's own whitespace may pad a record; a form feed is not blank around one
    "form-feed-padding": ("evaluate", "gt", json.dumps(RECORDS["gt"]) + "\x0c"),
    "preds-frame_id-negative": ("evaluate", "preds", mutated("preds", setter("frame_id", -1))),
    "gt-frame_id-negative": ("evaluate", "gt", mutated("gt", setter("frame_id", -1))),
    "contexts-frame_id-negative": ("quality", "contexts", mutated("contexts", setter("frame_id", -1))),
}

# Malformed inputs that were already rejected at path:line; kept as
# guards on the shared decoder.
ALREADY_REJECTED = {
    "token-not-object": ("summarize", "frames", mutated("frames", setter("captions", 0, 0, "tok"))),
    "bad-pos": ("summarize", "frames", mutated("frames", setter("captions", 0, 0, "pos", "ADJ"))),
    "action-term-triple": (
        "quality", "contexts", mutated("contexts", setter("action_terms", [["a", "b", "c"]]))),
    "invalid-json": ("evaluate", "preds", "{truncated"),
    "record-not-object": ("quality", "contexts", "[1, 2]"),
}


@pytest.mark.parametrize("case", sorted(REJECTED) + sorted(ALREADY_REJECTED))
def test_malformed_line_exits_1_naming_path_and_line(tmp_path, capsys, case):
    command, kind, line2 = {**REJECTED, **ALREADY_REJECTED}[case]
    n = line2.count("\n") + 2
    code, err, path = run(tmp_path, capsys, command, kind, line2)
    assert code == 1, err
    assert f"{path}:line {n}: " in err


@pytest.mark.parametrize("command, kind", [
    ("summarize", "frames"), ("summarize", "config"), ("evaluate", "preds"),
    ("evaluate", "gt"), ("quality", "contexts"), ("quality", "embeddings"),
])
def test_byte_order_mark_exits_1_at_line_1(tmp_path, capsys, command, kind):
    """Every format refuses a byte-order mark with one message, instead of reading it into the first field."""
    code, err, path = run(tmp_path, capsys, command, kind, valid_lines(kind)[1], bom=True)
    assert code == 1, err
    assert f"{path}:line 1: file starts with a UTF-8 byte-order mark\n" in err


# The label rule's message, one form per rule, for each REJECTED row that breaks it.
LABEL_RULE_MESSAGES = {
    "detection-label-comma": "detection label 'a,b' contains a reserved separator",
    "label-scores-key-semicolon": "label_scores key 'a;b' contains a reserved separator",
    "caption-lemma-comma": "NOUN lemma 'a,b' contains a reserved separator",
    "noun-comma": "noun 'a,b' contains a reserved separator",
    "verb-semicolon": "verb 'a;b' contains a reserved separator",
    "held-comma": "held label 'a,b' contains a reserved separator",
    "action-term-semicolon": "action noun 'a;b' contains a reserved separator",
    "caption-lemma-blank": "VERB lemma '  ' is blank",
    "held-blank": "held label '  ' is blank",
    "salient-empty": "salient label '' is blank",
    "detection-label-blank": "detection label ' ' is blank",
    "detection-label-empty": "detection label '' is blank",
    "label-scores-key-blank": "label_scores key '  ' is blank",
}


@pytest.mark.parametrize("case", sorted(LABEL_RULE_MESSAGES))
def test_label_rule_message(tmp_path, capsys, case):
    command, kind, line2 = REJECTED[case]
    code, err, path = run(tmp_path, capsys, command, kind, line2)
    assert code == 1
    assert f"{path}:line 2: {LABEL_RULE_MESSAGES[case]}\n" in err


@pytest.mark.parametrize(
    "command, kind", [("summarize", "frames"), ("evaluate", "preds"), ("evaluate", "gt"), ("quality", "contexts")]
)
def test_frame_id_rule_message(tmp_path, capsys, command, kind):
    """Every format that keys by frame refuses a negative frame id with one message."""
    code, err, path = run(tmp_path, capsys, command, kind, mutated(kind, setter("frame_id", -1)))
    assert code == 1
    assert f"{path}:line 2: frame_id -1 out of range [0, inf]\n" in err


@pytest.mark.parametrize("line", ["window=150", "box_loss_lambda=11.0"])
def test_config_key_nothing_reads_is_unknown(tmp_path, capsys, line):
    code, err, path = run(tmp_path, capsys, "summarize", "config", line)
    assert code == 1
    assert f"{path}:line 2: unknown key {line.split('=')[0]!r}\n" in err


# Frames files of three videos whose bad line is in the last video, after
# two videos decoded in full, and a repeated frame id that is reported at
# its own line, before a later bad line of its video or the next one.
LAST_VIDEO_BAD = {
    "last-video-bad-field": "\n".join([
        json.dumps(dict(FRAME, frame_id=1)), json.dumps(dict(FRAME, video_id="w")),
        json.dumps(dict(FRAME, video_id="w", frame_id=1)), json.dumps(dict(FRAME, video_id="w", frame_id="abc")),
    ]),
    "last-video-bad-json": "\n".join([json.dumps(FRAME), json.dumps(dict(FRAME, video_id="w")), "{truncated"]),
    "duplicate-frame-then-bad-video": "\n".join([
        json.dumps(dict(FRAME, video_id="u")), json.dumps(dict(FRAME, video_id="w", frame_id="x")),
    ]),
    "duplicate-frame-then-invalid-json": "\n".join([json.dumps(dict(FRAME, video_id="u")), "{truncated"]),
}
_REPEATED = '{"active_boxes":[],"captions":[],"detections":[],"frame_id":%s,"label_scores":{},"video_id":"v"}'
# Lines that a repeat rule without its leading-zero test, its backslash test
# or its one-"frame_id" count would take for their predecessor with a new
# frame id, and a duplicate id on the repeat path.
REPEAT_PATH_CASES = {
    "repeat-leading-zero": "\n".join([_REPEATED % "1", _REPEATED % "007"]),
    "repeat-escaped-top-level-key": "\n".join(
        '{"frame\\u005fid":1,"x":{"frame_id":%s},"video_id":"v"}' % n for n in "12"),
    "repeat-nested-key-first": "\n".join('{"x":{"frame_id":%s},"frame_id":1,"video_id":"v"}' % n for n in "12"),
    "repeat-duplicate-id": "\n".join(_REPEATED % n for n in "343"),
}


@pytest.mark.parametrize("case", sorted(
    [c for c, (_, kind, _) in {**REJECTED, **ALREADY_REJECTED}.items() if kind == "frames"]
    + list(LAST_VIDEO_BAD) + list(REPEAT_PATH_CASES)
))
def test_frames_errors_same_under_jobs(tmp_path, capsys, case):
    """Each bad frames line is reported once, at its path:line, with no output; ``--jobs 2`` changes nothing."""
    line2 = {**LAST_VIDEO_BAD, **REPEAT_PATH_CASES}.get(case) or {**REJECTED, **ALREADY_REJECTED}[case][2]
    code, err, path = run(tmp_path, capsys, "summarize", "frames", line2)
    assert code == 1 and err.count(f"{path}:line ") == 1, err
    assert run(tmp_path, capsys, "summarize", "frames", line2, jobs=2) == (code, err, path)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["duplicate-frame-then-bad-video", "duplicate-frame-then-invalid-json"])
def test_duplicate_frame_reported_at_its_own_line(tmp_path, capsys, case):
    code, err, path = run(tmp_path, capsys, "summarize", "frames", LAST_VIDEO_BAD[case])
    assert code == 1
    assert f"{path}:line 2: video 'u': duplicate frame id 0" in err


LONG = "x" * 500


def _frame_line(video_id, frame_id=0):
    return json.dumps(dict(FRAME, video_id=video_id, frame_id=frame_id))


def _gt_line(video_id):
    return json.dumps(dict(RECORDS["gt"], video_id=video_id))


# A 500-character value in each message that quotes one.
LONG_VALUES = {
    "caption-pos": ("summarize", "frames", mutated("frames", setter("captions", 0, 0, "pos", LONG))),
    "video-not-contiguous": ("summarize", "frames", "\n".join(
        [_frame_line(LONG), _frame_line("v"), _frame_line(LONG, 1)])),
    "duplicate-frame-id": ("summarize", "frames", "\n".join([_frame_line(LONG), _frame_line(LONG)])),
    "duplicate-key": ("evaluate", "gt", "\n".join([_gt_line(LONG), _gt_line(LONG)])),
    "text-mismatch": ("quality", "contexts", json.dumps(dict(
        RECORDS["contexts"], text=LONG, action_terms=[["take", LONG]], held=[], salient=[]))),
    "embedding-shape": ("quality", "embeddings", LONG + "\t" + "\t".join(VECTOR[1:])),
    "embedding-norm": ("quality", "embeddings", LONG + "\t" + "\t".join(["1e308"] * 300)),
    "embedding-empty-word": ("quality", "embeddings", " " * 500 + "\t" + "\t".join(VECTOR)),
    "embedding-duplicate": ("quality", "embeddings", "\n".join([LONG + "\t" + "\t".join(VECTOR)] * 2)),
}


@pytest.mark.parametrize("case", sorted(LONG_VALUES))
def test_long_value_cut_to_40_characters(tmp_path, capsys, case):
    command, kind, line2 = LONG_VALUES[case]
    n = line2.count("\n") + 2
    code, err, path = run(tmp_path, capsys, command, kind, line2)
    assert code == 1, err
    message = err.split(f"{path}:line {n}: ", 1)[1]
    assert "..." in message and LONG[:41] not in message and " " * 41 not in message
    assert len(message) < 160, message


@pytest.mark.parametrize("jobs", [1, 2])
def test_blank_lemma_reported_before_a_later_bad_line(tmp_path, capsys, jobs):
    # a blank lemma fails as its line is decoded, not when its frame is extracted
    line2 = mutated("frames", setter("captions", 0, 0, "lemma", "  ")) + "\n{truncated"
    code, err, path = run(tmp_path, capsys, "summarize", "frames", line2, jobs=jobs)
    assert code == 1
    assert f"{path}:line 2: VERB lemma '  ' is blank" in err


def test_equal_caption_tokens_decode_to_one_object(tmp_path):
    """A video's equal tokens are one ``TaggedToken``, and its records equal ones built in code."""
    records = [
        record
        for seed in (1, 2)
        for record in scenario_to_frame_records(gen_scenario(seed, n_frames=120, spurious_rate=0.2)[1], f"v{seed}")
    ]
    path = tmp_path / "frames.jsonl"
    path.write_text("".join(dumps_record(frame_record_to_dict(r)) + "\n" for r in records))
    decoded = list(read_frame_records(str(path)))
    fresh = [
        dataclasses.replace(r, captions=tuple(
            tuple(TaggedToken(t.surface, t.lemma, t.pos) for t in caption) for caption in r.captions
        ))
        for r in records
    ]
    assert decoded == fresh
    for video_id in ("v1", "v2"):
        first = {}
        tokens = [t for r in decoded if r.video_id == video_id for caption in r.captions for t in caption]
        assert len(tokens) > 2 * len(set(tokens)) > 0
        assert all(first.setdefault(t, t) is t for t in tokens)


# A bad token after a good one with the same surface, on the next line or later on its own line.
BAD_TOKENS = {
    "verb-lemma-comma": ({"surface": "cuts", "lemma": "cut,up", "pos": "VERB"},
                         "VERB lemma 'cut,up' contains a reserved separator"),
    "unknown-pos": ({"surface": "cuts", "lemma": "cut", "pos": "ADJ"},
                    "pos must be one of VERB, NOUN, OTHER, got 'ADJ'"),
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("same_line", [False, True], ids=["next-line", "same-line"])
@pytest.mark.parametrize("case", sorted(BAD_TOKENS))
def test_bad_token_after_an_equal_surface_fails_at_its_line(tmp_path, capsys, case, same_line, jobs):
    token, message = BAD_TOKENS[case]
    bad = copy.deepcopy(FRAME)
    bad["captions"][0].append(token)
    lines = [json.dumps(FRAME), json.dumps(dict(bad, frame_id=1))]
    line2 = lines[1] if same_line else "\n".join(lines)
    code, err, path = run(tmp_path, capsys, "summarize", "frames", line2, jobs=jobs)
    assert code == 1
    assert f"{path}:line {2 if same_line else 3}: {message}\n" in err


def test_context_labels_normalized_on_read(tmp_path, capsys):
    """Held and salient labels are read as ground-truth nouns are: "Cup" hits "Cup".

    The text is checked after the same normalization, so case and spacing may differ.
    """
    context = dict(RECORDS["contexts"], text="; Cup; Big  KNIFE ", action_terms=[], held=[" Cup "], salient=["Big  KNIFE"])
    files = {
        "contexts": json.dumps(context),
        "gt": json.dumps(dict(RECORDS["gt"], entries=[dict(ENTRY, noun="Cup")])),
        "embeddings": "\n".join(TEXT_LINES["embeddings"]),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text + "\n")
    context = read_contexts(str(tmp_path / "contexts"))[("v", 0)]
    assert (context.held_objects, context.salient_objects) == (("cup",), ("big knife",))
    assert context.text == "; cup; big knife"
    out = tmp_path / "quality.json"
    code = main([
        "quality", "--contexts", str(tmp_path / "contexts"), "--gt", str(tmp_path / "gt"),
        "--embeddings", str(tmp_path / "embeddings"), "--out", str(out),
    ])
    assert code == 0, capsys.readouterr().err
    assert json.loads(out.read_text())["quality"]["exact_noun_hits"] == 1.0


def test_valid_inputs_pass(tmp_path, capsys):
    for command, kind in TARGETS:
        code, err, _ = run(tmp_path, capsys, command, kind, valid_lines(kind)[1])
        assert code == 0, (command, kind, err)


@pytest.mark.parametrize("blank", ["   ", "\t", " \t "], ids=["spaces", "tab", "mixed"])
@pytest.mark.parametrize("command,kind", TARGETS, ids=[f"{c}-{k}" for c, k in TARGETS])
def test_whitespace_only_line_is_blank(tmp_path, capsys, command, kind, blank):
    """A whitespace-only line between two entries is skipped, as an empty line is, in every format."""
    code, err, _ = run(tmp_path, capsys, command, kind, valid_lines(kind)[1])
    assert code == 0, err
    expected = (tmp_path / "out").read_bytes()
    code, err, _ = run(tmp_path, capsys, command, kind, blank + "\n" + valid_lines(kind)[1])
    assert code == 0, err
    assert (tmp_path / "out").read_bytes() == expected


@pytest.mark.parametrize("flag", ["--n-frames", "--n-videos"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_empty_synth_run_rejected(tmp_path, capsys, flag, value):
    out = tmp_path / "frames.jsonl"
    assert main(["synth", "--out", str(out), flag, value]) == 1
    assert f" {value} out of range [1, inf]\n" in capsys.readouterr().err
    assert not out.exists()


# Values a mutated field takes: every JSON type, with the edge cases of
# each (booleans, huge and negative numbers, non-finite floats, reserved
# separators, empty strings, lists and objects).
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**20), 10**20)
    | st.sampled_from([0, -1, 2**64, 10**400])
    | st.floats()
    | st.sampled_from(["", "a,b", "a;b", "abc", "1", "VERB", "NOUN", "v", "u", "\udcff", "caf\u00e9"])
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# Hypothesis checks the lambda above by reading its source from disk by line number at the
# first validation; validating now, while the file matches the module, keeps an edit made to
# this file during a run from moving that line and raising a spurious warning.
JSON_VALUES.validate()
TEXT_VALUES = st.sampled_from(["", "nan", "inf", "-1", "1e400", "0", "1.5", "x", "a->b", "a,b"]) | st.text(max_size=6)
CONFIG_KEYS = [
    "d", "k", "stride", "p_l_salient", "p_o_held", "l_action", "theta_iou", "min_ttc", "t_delta",
    "iou_thresh", "vocab_noun", "merge_table", "unknown",
]


def field_paths(value, prefix=()):
    """Every path into a JSON value, the value itself excluded."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from field_paths(child, prefix + (key,))


@st.composite
def mutated_line(draw, kind):
    """Line 2 of ``kind`` with one field replaced, deleted, or set to a random value."""
    if kind == "config":
        return f"{draw(st.sampled_from(CONFIG_KEYS))}={draw(TEXT_VALUES)}"
    if kind == "embeddings":
        fields = valid_lines(kind)[1].split("\t")
        fields[draw(st.sampled_from([0, 1, 150, 300]))] = draw(TEXT_VALUES)
        return "\t".join(fields)
    record = copy.deepcopy(RECORDS[kind])
    *path, key = draw(st.sampled_from(list(field_paths(record))))
    parent = record
    for step in path:
        parent = parent[step]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(JSON_VALUES)
    return json.dumps(record)


@st.composite
def mutation(draw):
    command, kind = draw(st.sampled_from(TARGETS))
    return command, kind, draw(mutated_line(kind))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=mutation())
def test_single_field_mutations_never_exit_3(tmp_path, capsys, case):
    command, kind, line2 = case
    code, err, path = run(tmp_path, capsys, command, kind, line2)
    assert code in (0, 1, 2), err
    if code == 1 and (kind in RECORDS or kind == "config"):
        # a drawn config value may hold line breaks: line 2 then spans more than one line
        assert any(f"{path}:line {n}: " in err for n in range(2, 3 + line2.count("\n"))), err


def _box_with(value, index):
    coords = [0.0, 1.0, 2.5, 3.0]
    coords[index] = value
    return coords


def _frames_line(**fields):
    return {"video_id": "v", "frame_id": 0, **fields}


def _entries_line(kind, **fields):
    entry = {"box": [0.0, 1.0, 2.5, 3.0], "noun": "cup", "verb": "take", "ttc": 1.0}
    if kind == "preds":
        entry["score"] = 0.5
    return {"video_id": "v", "frame_id": 0, "entries": [{**entry, **fields}]}


def _built_context(line):
    return assemble([ActionPair(*pair) for pair in line["action_terms"]], line["held"], line["salient"])


def _context_line(**fields):
    line = {"video_id": "v", "frame_id": 0, "action_terms": [], "held": [], "salient": [], **fields}
    try:
        line["text"] = _built_context(line).text
    except ValidationError:
        line["text"] = ""  # the reader refuses such fields before it reads the text
    return line


def _built_key(line):
    """A keyed line's frame key, under the rules ``FrameRecord`` holds its key to."""
    record = FrameRecord(line["video_id"], line["frame_id"])
    return record.video_id, record.frame_id


def _built_interaction(entry):
    return ObjectInteraction(BoundingBox(*entry["box"]), entry["noun"], entry["verb"], entry["ttc"])


# Per format, (build the value types in code from a decoded line, read a file).
BUILT_AND_READ = {
    "frames": (
        lambda line: [FrameRecord(
            line["video_id"],
            line["frame_id"],
            tuple(tuple(TaggedToken(t["surface"], t["lemma"], PosTag[t["pos"]]) for t in c)
                  for c in line.get("captions", [])),
            line.get("label_scores", {}),
            tuple(BoundingBox(*box) for box in line.get("active_boxes", [])),
            tuple((d["label"], BoundingBox(*d["box"]), d["score"]) for d in line.get("detections", [])),
        )],
        lambda path: list(read_frame_records(path)),
    ),
    "preds": (
        lambda line: {_built_key(line): [Prediction(_built_interaction(e), e["score"]) for e in line["entries"]]},
        read_predictions,
    ),
    "gt": (
        lambda line: {_built_key(line): [_built_interaction(e) for e in line["entries"]]},
        lambda path: read_ground_truth(path, min_ttc=0.0),
    ),
    "contexts": (lambda line: {_built_key(line): _built_context(line)}, read_contexts),
}
_VALID_LINES = {
    "frames": _frames_line(), "preds": _entries_line("preds"), "gt": _entries_line("gt"), "contexts": _context_line(),
}
_DETECTION = {"label": "saw", "box": [0.0, 1.0, 2.5, 3.0], "score": 0.9}
# Every scalar field of the four formats: its format, and its line holding a value.
# Two scalars have no twin built in code: a token's "pos", which is a PosTag in
# code, and a context's "text", which is checked against the rendering.
SCALAR_FIELDS = {
    **{
        f"{kind}.{key}": (kind, lambda v, kind=kind, key=key: {**_VALID_LINES[kind], key: v})
        for kind in BUILT_AND_READ for key in ("video_id", "frame_id")
    },
    **{
        f"frames.captions.{pos}.{field}": ("frames", lambda v, pos=pos, field=field: _frames_line(
            captions=[[{"surface": "cups", "lemma": "cup", "pos": pos, field: v}]]))
        for pos in ("VERB", "OTHER") for field in ("surface", "lemma")
    },
    "frames.label_scores.key": ("frames", lambda v: _frames_line(label_scores={v: 0.5})),
    "frames.label_scores.value": ("frames", lambda v: _frames_line(label_scores={"knife": v})),
    **{
        f"frames.active_boxes.{i}": ("frames", lambda v, i=i: _frames_line(active_boxes=[_box_with(v, i)]))
        for i in range(4)
    },
    **{
        f"frames.detections.{field}": (
            "frames", lambda v, field=field: _frames_line(detections=[{**_DETECTION, field: v}]))
        for field in ("label", "score")
    },
    "frames.detections.box.2": ("frames", lambda v: _frames_line(detections=[{**_DETECTION, "box": _box_with(v, 2)}])),
    **{
        f"{kind}.entries.{field}": (kind, lambda v, kind=kind, field=field: _entries_line(kind, **{field: v}))
        for kind in ("preds", "gt") for field in ("noun", "verb", "ttc", "score")
        if kind == "preds" or field != "score"
    },
    **{
        f"{kind}.entries.box.{i}": (kind, lambda v, kind=kind, i=i: _entries_line(kind, box=_box_with(v, i)))
        for kind in ("preds", "gt") for i in range(4)
    },
    "contexts.action_terms.verb": ("contexts", lambda v: _context_line(action_terms=[[v, "cup"]])),
    "contexts.action_terms.noun": ("contexts", lambda v: _context_line(action_terms=[["take", v]])),
    "contexts.held": ("contexts", lambda v: _context_line(held=[v])),
    "contexts.salient": ("contexts", lambda v: _context_line(salient=[v])),
}


def _outcome(run):
    try:
        return "passed", run()
    except ValidationError as exc:
        return "refused", str(exc)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=st.sampled_from(sorted(SCALAR_FIELDS)), data=st.data())
def test_scalar_field_read_as_built_in_code(tmp_path, field, data):
    """A one-line file's value has the outcome of the same value built in code.

    That is an equal value, or the same ``ValidationError`` message after the file's ``path:line``.
    """
    kind, line_of = SCALAR_FIELDS[field]
    build, read = BUILT_AND_READ[kind]
    value = data.draw(st.text(max_size=5) if field.endswith(".key") else JSON_VALUES)  # an object key is a string
    line = line_of(value)
    # a lone surrogate has no UTF-8 form: no file holds it, so the reader refuses its line as a whole
    assume(not any("\ud800" <= c <= "\udfff" for c in json.dumps(line, ensure_ascii=False)))
    path = tmp_path / f"{kind}.jsonl"
    path.write_text(json.dumps(line) + "\n")
    status, result = _outcome(lambda: read(str(path)))
    if status == "refused":
        assert result.startswith(f"{path}:line 1: "), result
        result = result[len(f"{path}:line 1: "):]
    assert (status, result) == _outcome(lambda: build(line))


# Frames-line templates for the repeat path: "@" is the frame-id token a
# repeated line changes, "%" a fixed frame id, "$" the video id. Besides the
# writer's form, they hold a \u escape, a second "frame_id" key (nested, or
# the top-level one spelled with an escape, or a duplicate top-level key), a
# "frame_id" string value, spaces around the token and a bad field.
REPEAT_TEMPLATES = [
    '{"active_boxes":[],"captions":[],"detections":[],"frame_id":@,"label_scores":{},"video_id":"$"}',
    '{"active_boxes":[[0.0,0.0,10.0,10.0]],"captions":[[{"lemma":"cut","pos":"VERB","surface":"cuts"}]],'
    '"detections":[{"box":[0.0,0.0,10.0,10.0],"label":"saw","score":0.9}],"frame_id":@,'
    '"label_scores":{"knife":0.9},"video_id":"$"}',
    '{"frame_id":@,"label_scores":{"kn\\u0069fe":1},"video_id":"$"}',
    '{"x":{"frame_id":@},"frame_id":%,"video_id":"$"}',
    '{"frame\\u005fid":%,"x":{"frame_id":@},"video_id":"$"}',
    '{"frame_id":@,"frame_id":%,"video_id":"$"}',
    '{"frame_id":@,"x":"frame_id","video_id":"$"}',
    '{"frame_id": @ , "video_id": "$"}',
    '{"frame_id":@,"label_scores":{"knife":2},"video_id":"$"}',
]
# frame-id tokens other than a fresh plain id: duplicates, and tokens the repeat path must leave to json.loads
ODD_FRAME_IDS = st.sampled_from([
    "0", "100", "101", "12", "007", "00", "\u0663", "\u00b2", "9" * 18, "1" * 19, "1" + "0" * 4300,
    "-0", "-1", "2.0", "1e1", " 2", "true", '"2"',
])


@st.composite
def repeating_frames_lines(draw):
    """Frames lines each of which may be its predecessor with a new frame-id token."""
    lines, previous = [], None
    for _ in range(draw(st.integers(1, 8))):
        if previous is None or draw(st.sampled_from([False, False, False, True])):
            # the first two templates, which the repeat path takes, half the time
            template = draw(st.sampled_from(REPEAT_TEMPLATES[:2]) | st.sampled_from(REPEAT_TEMPLATES))
            previous = (template.replace("%", draw(st.sampled_from(["100", "101"])))
                        .replace("$", draw(st.sampled_from(["v", "v", "u", "\\u0076"]))))
        odd = draw(st.sampled_from([False] * 5 + [True]))
        lines.append(previous.replace("@", draw(ODD_FRAME_IDS) if odd else str(100 + len(lines))))
    return lines


def _read_in_full(path):
    """A frames file's records, every line decoded by ``json.loads`` and built by ``_frame_record``."""
    records, finished, frame_ids, video_id = [], set(), set(), None
    for lineno, line in read_lines(path):
        try:
            try:
                obj = _as(json.loads(line), dict, "record")
            except ValueError as exc:
                raise ValidationError(f"invalid JSON: {getattr(exc, 'msg', exc)}") from None
            if _get(obj, "video_id", str) != video_id:
                if obj["video_id"] in finished:
                    raise ValidationError(f"frames for video {obj['video_id']!r} are not contiguous")
                finished.add(video_id)
                frame_ids.clear()
                video_id = obj["video_id"]
            frame_id = checked_frame_id(_get(obj, "frame_id"))
            if frame_id in frame_ids:
                raise ValidationError(f"video {video_id!r}: duplicate frame id {frame_id}")
            frame_ids.add(frame_id)
            records.append(_frame_record(obj))
        except ValidationError as exc:
            raise ParseError(str(exc), line=lineno, path=path) from None
    return records


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=repeating_frames_lines())
@example(lines=REPEAT_PATH_CASES["repeat-leading-zero"].split("\n"))
@example(lines=REPEAT_PATH_CASES["repeat-escaped-top-level-key"].split("\n"))
@example(lines=REPEAT_PATH_CASES["repeat-nested-key-first"].split("\n"))
def test_repeated_frame_line_reads_as_decoded_in_full(tmp_path, lines):
    """A line that repeats its predecessor but for the frame-id token has the outcome of
    decoding every line in full: equal records, or the same error at the same ``path:line``."""
    path = str(tmp_path / "frames.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    expected = _outcome(lambda: _read_in_full(path))
    assert _outcome(lambda: list(read_frame_records(path))) == expected
