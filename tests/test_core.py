import dataclasses
import gc
import json
import math
import pickle
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from context_forge import cli, core
from context_forge.aggregation import StreamAggregator, _RunState
from context_forge.assembly import assemble
from context_forge.core import (
    ActionContext,
    ActionPair,
    BoundingBox,
    Category,
    EmbeddingTable,
    FrameRecord,
    InvariantError,
    ObjectInteraction,
    ParseError,
    PosTag,
    Prediction,
    Segment,
    SummarizerConfig,
    TaggedToken,
    ValidationError,
    checked_integer,
    checked_label,
    checked_number,
    clipped,
    config_hash,
    load_config,
    load_embeddings,
    normalize_label,
    serialize_config,
)
from context_forge.extraction import FrameContext, extract_candidate_pairs, match_held_objects, select_salient
from context_forge.metrics import Variant, class_key, top5_map
from context_forge.pipeline import summarize_video
from context_forge.records import read_contexts, read_frame_records, read_ground_truth, read_predictions
from context_forge.synth import gen_scenario


class TestDefaults:
    def test_default_operating_point(self):
        cfg = SummarizerConfig()
        assert cfg.d == 4
        assert cfg.k == 5
        assert cfg.theta_iou == 0.25
        assert (cfg.p_o_action, cfg.p_o_held, cfg.p_o_salient) == (1, 7, 10)
        assert (cfg.p_l_action, cfg.p_l_held, cfg.p_l_salient) == (7, 7, 7)
        assert cfg.stride == 3
        assert (cfg.l_action, cfg.l_held, cfg.l_salient) == (3, 3, 3)
        assert cfg.min_ttc == 0.033
        assert cfg.iou_thresh == 0.5
        assert cfg.t_delta == 0.25

    def test_fields_are_the_config_keys_in_order(self):
        assert [f.name for f in dataclasses.fields(SummarizerConfig)] == list(core._CONFIG_KEYS)
        # each category's p_o, p_l and l keys, listed knob by knob as _CONFIG_KEYS lists them
        assert [key for keys in zip(*core.CATEGORY_KEYS.values()) for key in keys] == list(core._CONFIG_KEYS)[3:12]

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        assert load_config(path) == SummarizerConfig()

    def test_d_zero_is_legal(self, tmp_path):
        path = tmp_path / "d0.cfg"
        path.write_text("d=0\n")
        assert load_config(path).d == 0

    def test_negative_k_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("k=-1\n")
        with pytest.raises(ValidationError, match="k"):
            load_config(path)


# Sets every config key, each away from its default.
EVERY_KEY = """\
d=2
k=7
stride=4
p_o_action=2
p_o_held=3
p_o_salient=4
p_l_action=5
p_l_held=6
p_l_salient=8
l_action=1
l_held=2
l_salient=0
theta_iou=0.33
min_ttc=0.1
iou_thresh=0.75
t_delta=0.125
vocab_noun=Knife, cup ,apple
vocab_verb=cut,Take
generic_nouns=thing,object
merge_table=pressure cooker->machine, home appliance->machine
"""


# Labels as load_config reads them: normalized, with no "," or ";", and no
# "->", which would split a merge-table entry elsewhere.
LABELS = (
    st.text(st.characters(min_codepoint=32, max_codepoint=0x24F, blacklist_characters=",;>"), max_size=10)
    .map(normalize_label)
    .filter(bool)
)


class TestConfigParsing:
    def test_unknown_key_cites_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("d=4\nmystery=1\n")
        with pytest.raises(ParseError, match="line 2"):
            load_config(path)

    def test_non_numeric_cites_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("\n\nstride=three\n")
        with pytest.raises(ParseError, match="line 3"):
            load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("d=4\nd=5\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_config(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# a comment\n\nk=3\n")
        assert load_config(path).k == 3

    def test_vocab_and_merge_table(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "vocab_noun=Knife, cup ,apple\n"
            "generic_nouns=something,object\n"
            "merge_table=pressure cooker->machine, home appliance->machine\n"
        )
        cfg = load_config(path)
        assert cfg.vocab_noun == frozenset({"knife", "cup", "apple"})
        assert cfg.generic_nouns == frozenset({"something", "object"})
        assert cfg.merge_map == {"pressure cooker": "machine", "home appliance": "machine"}
        assert cfg.action_noun_vocab == frozenset(
            {"knife", "cup", "apple", "something", "object"}
        )

    def test_per_category_keys(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("p_o_held=3\nl_salient=5\np_l_action=4\n")
        cfg = load_config(path)
        assert (cfg.p_o_action, cfg.p_o_held, cfg.p_o_salient) == (1, 3, 10)
        assert (cfg.l_action, cfg.l_held, cfg.l_salient) == (3, 3, 5)
        assert (cfg.p_l_action, cfg.p_l_held, cfg.p_l_salient) == (4, 7, 7)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "d=2\nk=7\ntheta_iou=0.33\nvocab_noun=apple,pear\n"
            "merge_table=a->b\nt_delta=0.125\n"
        )
        cfg = load_config(path)
        back = tmp_path / "round.cfg"
        back.write_text(serialize_config(cfg))
        assert load_config(back) == cfg
        assert config_hash(load_config(back)) == config_hash(cfg)

    def test_hashes_pinned(self, tmp_path):
        """The key order and each value's rendering are part of the digest."""
        path = tmp_path / "c.cfg"
        path.write_text(EVERY_KEY)
        cfg = load_config(path)
        assert config_hash(SummarizerConfig()) == "95f354f708ec3c82"
        assert config_hash(cfg) == "f8d0379fc8c133da"
        assert serialize_config(cfg).splitlines()[-4:] == [
            "vocab_noun=apple,cup,knife",
            "vocab_verb=cut,take",
            "generic_nouns=object,thing",
            "merge_table=home appliance->machine,pressure cooker->machine",
        ]

    @pytest.mark.parametrize(
        "fields",
        [{"d": True}, {"k": 2.5}, {"theta_iou": "1"}, {"p_o_action": 1, "p_o_held": True, "p_o_salient": 10}],
    )
    def test_wrong_type_rejected(self, fields):
        # the integer and number rules of every value type: never a bool, a float for an int, or a string
        with pytest.raises(ValidationError, match=r"^\w+ must be (an integer|a finite number), got "):
            SummarizerConfig(**fields)

    @pytest.mark.parametrize("key", ["min_ttc", "t_delta", "iou_thresh"])
    def test_non_finite_float_rejected(self, key):
        # serialize_config would write 'inf', which load_config rejects
        with pytest.raises(ValidationError, match=f"^{key} must be a finite number, got Infinity$"):
            SummarizerConfig(**{key: math.inf})

    @pytest.mark.parametrize("value", [5e-324, sys.float_info.max])
    @pytest.mark.parametrize("key", ["min_ttc", "t_delta"])
    def test_extreme_finite_floats_round_trip(self, tmp_path, key, value):
        cfg = SummarizerConfig(**{key: value})
        path = tmp_path / "c.cfg"
        path.write_text(serialize_config(cfg))
        assert load_config(path) == cfg

    def test_context_length_beyond_sys_maxsize_rejected(self):
        # a context length sizes a deque, whose maxlen must fit in a C ssize_t
        SummarizerConfig(l_action=3, l_held=sys.maxsize, l_salient=3)
        with pytest.raises(ValidationError, match="out of range"):
            SummarizerConfig(l_action=3, l_held=2**70, l_salient=3)

    @pytest.mark.parametrize(
        "fields",
        [{"d": 10**5000}, {"theta_iou": 10**5000}, {"vocab_noun": 10**5000}, {"d": sys.maxsize + 1}],
    )
    def test_int_beyond_sys_maxsize_rejected(self, fields):
        # an int of over 4,300 digits must not reach a message or config_hash, which cannot print it
        with pytest.raises(ValidationError, match=r"out of range|, got <\d+-bit int>$"):
            SummarizerConfig(**fields)

    def test_int_at_sys_maxsize_round_trips(self, tmp_path):
        cfg = SummarizerConfig(d=sys.maxsize)
        path = tmp_path / "c.cfg"
        path.write_text(serialize_config(cfg))
        assert load_config(path) == cfg

    @pytest.mark.parametrize(
        "line, kind",
        [("stride=three", "int"), ("d=1.5", "int"), ("stride=1_0", "int"), ("t_delta=x", "float")],
    )
    def test_number_that_does_not_read_is_not_plain_ascii(self, tmp_path, line, kind):
        path = tmp_path / "c.cfg"
        path.write_text(line + "\n")
        key, raw = line.split("=")
        with pytest.raises(ParseError, match=f"line 1: key '{key}': '{raw}' is not a plain ASCII {kind}$"):
            load_config(path)

    @pytest.mark.parametrize("raw, shown", [
        ("9" * 5000, "9" * 37 + "..."),
        ("x" * 41, "x" * 37 + "..."),
        ("x" * 40, "x" * 40),
    ], ids=["5000-digits", "41-chars", "40-chars"])
    def test_long_number_cut_in_message(self, tmp_path, raw, shown):
        # a value is shown as record fields are: cut to 40 characters
        path = tmp_path / "c.cfg"
        path.write_text(f"d={raw}\n")
        with pytest.raises(ParseError, match=f"line 1: key 'd': '{shown}' is not a plain ASCII int$"):
            load_config(path)

    @pytest.mark.parametrize("fields, stored", [
        pytest.param(fields, stored, id=f"fields{i}") for i, (fields, stored) in enumerate([
            ({"vocab_noun": frozenset({"a;b"})}, "vocab_noun label 'a;b' contains a reserved separator"),
            ({"merge_table": (("x", "y;z"),)}, "merge_table target 'y;z' contains a reserved separator"),
            ({"vocab_noun": frozenset({"Cup"})}, {"vocab_noun": frozenset({"cup"})}),
            ({"generic_nouns": frozenset({" thing"})}, {"generic_nouns": frozenset({"thing"})}),
            ({"merge_table": (("b", "x"), ("a", "y"))}, {"merge_table": (("a", "y"), ("b", "x"))}),
            ({"merge_table": (("a->b", "c"),)}, "merge_table source 'a->b' contains '->'"),
            ({"vocab_verb": frozenset({1})}, "vocab_verb label 1 is not a string"),
        ])
    ])
    def test_labels_that_do_not_read_back_rejected(self, tmp_path, fields, stored):
        # a label is stored normalized and a merge table sorted, as load_config stores them,
        # so each reads back from serialize_config; a label that cannot is refused
        if isinstance(stored, str):
            with pytest.raises(ValidationError, match=f"^{re.escape(stored)}$"):
                SummarizerConfig(**fields)
            return
        cfg = SummarizerConfig(**fields)
        assert {name: getattr(cfg, name) for name in fields} == stored
        path = tmp_path / "c.cfg"
        path.write_text(serialize_config(cfg))
        assert load_config(path) == cfg

    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        vocab=st.frozensets(LABELS, max_size=4),
        generic=st.frozensets(LABELS, max_size=3),
        merges=st.dictionaries(LABELS, LABELS, max_size=4),
        k=st.integers(0, 12),
        t_delta=st.floats(0.0, 10.0),
    )
    def test_label_fields_round_trip(self, tmp_path, vocab, generic, merges, k, t_delta):
        cfg = SummarizerConfig(
            vocab_noun=vocab, vocab_verb=vocab, generic_nouns=generic,
            merge_table=tuple(sorted(merges.items())), k=k, t_delta=t_delta,
        )
        path = tmp_path / "c.cfg"
        path.write_text(serialize_config(cfg), encoding="utf-8")
        assert load_config(path) == cfg

    def test_derived_lookups_built_once_outside_the_fields(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("vocab_noun=apple\ngeneric_nouns=thing\nmerge_table=a->b\n")
        cfg, fresh = load_config(path), load_config(path)
        digest = config_hash(cfg)
        assert cfg.merge_map is cfg.merge_map == {"a": "b"}
        assert cfg.action_noun_vocab is cfg.action_noun_vocab == {"apple", "thing"}
        # built lookups change neither equality, hashing, the digest nor pickling
        assert cfg == fresh and hash(cfg) == hash(fresh) and config_hash(cfg) == digest
        back = pickle.loads(pickle.dumps(cfg))
        assert back == cfg and back.merge_map == {"a": "b"} and config_hash(back) == digest

    @given(
        d=st.integers(0, 10),
        k=st.integers(0, 12),
        theta=st.floats(0.0, 1.0, allow_nan=False),
        stride=st.integers(1, 10),
    )
    def test_round_trip_property(self, tmp_path_factory, d, k, theta, stride):
        cfg = SummarizerConfig(d=d, k=k, theta_iou=theta, stride=stride)
        path = tmp_path_factory.mktemp("cfg") / "c.cfg"
        path.write_text(serialize_config(cfg))
        assert load_config(path) == cfg

    @pytest.mark.parametrize("fields, message", [
        ({"p_o_held": (1,)}, "p_o_held must be an integer, got [1]"),
        ({"l_salient": None}, "l_salient must be an integer, got null"),
        ({"vocab_noun": "cup"}, 'vocab_noun must be a set of labels, got "cup"'),
        ({"generic_nouns": ["thing"]}, 'generic_nouns must be a set of labels, got ["thing"]'),
        ({"merge_table": (("a", "b", "c"),)},
         'merge_table must be a tuple of (source, target) pairs, got [["a", "b", "c"]]'),
        ({"merge_table": [("a", "b")]}, 'merge_table must be a tuple of (source, target) pairs, got [["a", "b"]]'),
        ({"merge_table": {"a": "b"}}, 'merge_table must be a tuple of (source, target) pairs, got {"a": "b"}'),
    ], ids=["per-category-tuple", "per-category-none", "label-set-string", "label-set-list", "merge-triple",
            "merge-list", "merge-dict"])
    def test_field_of_wrong_structure_refused(self, fields, message):
        # a string is never taken for the set of its characters
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            SummarizerConfig(**fields)


def _config_text(value) -> str:
    """A value drawn for a config key as a config line writes it, written here apart from serialize_config."""
    if isinstance(value, list):  # a label set, in the order drawn
        return ",".join(value)
    if isinstance(value, tuple):
        return ",".join(f"{source}->{target}" for source, target in value)
    return f"{value}"


# Labels in any case and padding, and a label the rule refuses. No blank label: a line's
# list syntax skips an empty item between commas, where code has a blank label to refuse.
RAW_LABELS = st.builds(lambda label, upper, pad: pad + (label.upper() if upper else label) + pad,
                       LABELS, st.booleans(), st.sampled_from(["", " ", "  "])) | st.just("a;b")
# Ints for float keys stay within the float range: a line's text reads a larger one as inf,
# where code refuses the int itself. An int of over 4,300 digits has no text at all.
INTS = st.integers(-3, 12) | st.integers(sys.maxsize - 1, 10**30) | st.just(10**4299)
FLOATS = st.floats() | st.integers(-(10**20), 10**20) | st.sampled_from([5e-324, 1.5, 10**300])


def _key_and_value(key):
    """``key`` with a value drawn for it: a bool, an int or float, a label set (a list, in any
    order) in mixed case and padding, or a merge table in any order."""
    decode = core._CONFIG_KEYS[key][0]
    if decode is int or decode is float:
        values = st.booleans() | (INTS if decode is int else FLOATS)
    elif key == "merge_table":
        values = st.lists(st.tuples(RAW_LABELS, RAW_LABELS), max_size=4).map(tuple)
    else:
        values = st.lists(RAW_LABELS, max_size=4)
    return st.tuples(st.just(key), values)


def _tried(run):
    try:
        return "passed", run()
    except ValidationError as exc:
        return "refused", str(exc)


def _built(key, value) -> SummarizerConfig:
    return SummarizerConfig(**{key: frozenset(value) if isinstance(value, list) else value})


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(sorted(core._CONFIG_KEYS)).flatmap(_key_and_value))
@example(case=("theta_iou", 1))  # stored as 1.0, as the line theta_iou=1 is
def test_config_line_read_as_built_in_code(tmp_path, case):
    """A config line's value has the outcome of the same value built in code.

    That is an equal config, or the same ``ValidationError`` message after the line's ``path:line``.
    A bool has no line form: its text ``True`` is not a plain ASCII number, and code refuses it too.
    Every accepted config reads back through ``serialize_config`` with the same ``config_hash``.
    """
    key, value = case
    path = tmp_path / "c.cfg"
    path.write_text(f"{key}={_config_text(value)}\n", encoding="utf-8")
    line, built = _tried(lambda: load_config(path)), _tried(lambda: _built(key, value))
    if line[0] == "refused":
        assert line[1].startswith(f"{path}:line 1: "), line
        line = ("refused", line[1][len(f"{path}:line 1: "):])
    if isinstance(value, bool):
        assert line[0] == built[0] == "refused" and line[1].startswith(f"key {key!r}: ")
        return
    assert line == built
    if built[0] == "passed":
        cfg = built[1]
        path.write_text(serialize_config(cfg), encoding="utf-8")
        assert load_config(path) == cfg and config_hash(load_config(path)) == config_hash(cfg)
        assert config_hash(line[1]) == config_hash(cfg)


# Each engine argument that a config key sets, given to the function that takes it.
ENGINE_ARGUMENTS = {
    "d": lambda value: extract_candidate_pairs([], value),
    "k": lambda value: select_salient({}, value),
    "theta_iou": lambda value: match_held_objects([], [], value),
    **{f"p_o_{c.value}": lambda value, c=c: StreamAggregator(c, value, 0) for c in Category},
    **{f"p_l_{c.value}": lambda value, c=c: StreamAggregator(c, 1, value) for c in Category},
}
ENGINE_VALUES = (
    st.booleans() | st.none() | st.text(max_size=3) | st.floats() | st.floats(0, 1)
    | st.integers(-(10**20), 10**20) | st.sampled_from([-1, 0, 1, sys.maxsize, sys.maxsize + 1, 2**64])
)


@settings(max_examples=400, deadline=None)
@given(key=st.sampled_from(sorted(ENGINE_ARGUMENTS)), value=ENGINE_VALUES)
@example(key="d", value=2.5)  # once accepted by the engine and refused by the config, as were the next three
@example(key="d", value=True)
@example(key="theta_iou", value=True)
@example(key="p_o_action", value=1.5)
@example(key="k", value=2.5)  # once an untyped TypeError from the engine, as was the next
@example(key="k", value="1")
def test_engine_argument_checked_as_its_config_key(key, value):
    """An engine function takes a value for its argument exactly when a config takes it for the key
    that sets the argument, and refuses it with the same message, which names that key."""
    engine, config = _tried(lambda: ENGINE_ARGUMENTS[key](value)), _tried(lambda: _built(key, value))
    assert engine[0] == config[0], (engine, config)
    assert engine[0] == "passed" or engine[1] == config[1]


class TestBoundingBox:
    def test_valid(self):
        box = BoundingBox(0.0, 1.0, 2.5, 3.0)
        assert box.area() == pytest.approx(2.5 * 2.0)

    @pytest.mark.parametrize(
        "coords",
        [(0, 0, 0, 1), (0, 0, 1, 0), (2, 0, 1, 1), (0, 0, -1, 1), (-1, 0, 1, 1)],
    )
    def test_degenerate_rejected(self, coords):
        with pytest.raises(ValidationError):
            BoundingBox(*coords)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            BoundingBox(0, 0, math.inf, 1)


class TestInteractionTypes:
    def test_labels_normalized(self):
        gt = ObjectInteraction(BoundingBox(0, 0, 1, 1), "  Pressure  Cooker ", "TAKE", 0.5)
        assert gt.noun == "pressure cooker"
        assert gt.verb == "take"

    def test_negative_ttc_rejected(self):
        with pytest.raises(ValidationError):
            ObjectInteraction(BoundingBox(0, 0, 1, 1), "cup", "take", -0.1)

    @pytest.mark.parametrize("score", [-0.01, 1.01])
    def test_score_range(self, score):
        gt = ObjectInteraction(BoundingBox(0, 0, 1, 1), "cup", "take", 0.5)
        with pytest.raises(ValidationError):
            Prediction(gt, score)

    def test_tagged_token_requires_lemma(self):
        with pytest.raises(ValidationError):
            TaggedToken("x", "", PosTag.NOUN)

    def test_action_pair_lowercases(self):
        pair = ActionPair("Cut", "WOOD")
        assert pair.render() == "cut wood"

    def test_frame_record_score_range(self):
        with pytest.raises(ValidationError):
            FrameRecord(video_id="v", frame_id=0, label_scores={"cup": 1.5})

    @pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf])
    def test_non_finite_scores_fail_the_range_check(self, score):
        gt = ObjectInteraction(BoundingBox(0, 0, 1, 1), "cup", "take", 0.5)
        with pytest.raises(ValidationError, match=rf"^score must be a finite number, got {json.dumps(score)}$"):
            Prediction(gt, score)
        with pytest.raises(ValidationError, match=rf"^label_scores\['cup'\] must be a finite number, got {json.dumps(score)}$"):
            FrameRecord(video_id="v", frame_id=0, label_scores={"cup": score})


_BOX = BoundingBox(0.0, 1.0, 2.5, 3.0)
_TOKEN = TaggedToken("Cups", "cup", PosTag.NOUN)
_PAIR = ActionPair("take", "cup")
# One value of each per-record type; each is slotted, so it has no instance __dict__.
SLOTTED = [
    _BOX,
    ObjectInteraction(_BOX, "cup", "take", 0.5),
    Prediction(ObjectInteraction(_BOX, "cup", "take", 0.5), 0.25),
    _TOKEN,
    _PAIR,
    FrameRecord("v", 7, ((_TOKEN,),), {"cup": 0.5}, (_BOX,), (("cup", _BOX, 0.9),)),
    Segment(Category.ACTION, _PAIR, 1, 4, 2, True),
    ActionContext((_PAIR,), ("cup",), ("knife",), "take cup; cup; knife"),
    FrameContext(7, _PAIR, frozenset({"cup"}), frozenset()),
    _RunState(1, 4, 2),
]


@pytest.mark.parametrize("value", SLOTTED, ids=[type(v).__name__ for v in SLOTTED])
def test_value_type_is_slotted_and_round_trips(value):
    assert "__slots__" in type(value).__dict__ and not hasattr(value, "__dict__")
    assert pickle.loads(pickle.dumps(value)) == value
    assert dataclasses.replace(value) == value


_ENTRY = {"box": [0.0, 1.0, 2.5, 3.0], "ttc": 1.0}
# A label or another scalar built in code, and the one-line file whose reader
# meets the same value: (build the value, read the file, the file's record).
LABELS_BUILT_AND_READ = {
    "entry-noun-comma": (
        lambda: ObjectInteraction(_BOX, "a,b", "take", 1.0),
        lambda path: read_ground_truth(path, min_ttc=0.0),
        {"video_id": "v", "frame_id": 0, "entries": [dict(_ENTRY, noun="a,b", verb="take")]},
    ),
    "action-noun-semicolon": (
        lambda: ActionPair("take", "a;b"),
        read_contexts,
        {"video_id": "v", "frame_id": 0, "text": "take a;b; ; ", "action_terms": [["take", "a;b"]],
         "held": [], "salient": []},
    ),
    "verb-lemma-comma": (
        lambda: TaggedToken("x", "a,b", PosTag.VERB),
        lambda path: list(read_frame_records(path)),
        {"video_id": "v", "frame_id": 0, "captions": [[{"surface": "x", "lemma": "a,b", "pos": "VERB"}]]},
    ),
    "verb-lemma-blank": (
        lambda: TaggedToken("x", "  ", PosTag.VERB),
        lambda path: list(read_frame_records(path)),
        {"video_id": "v", "frame_id": 0, "captions": [[{"surface": "x", "lemma": "  ", "pos": "VERB"}]]},
    ),
    "label-scores-key-semicolon": (
        lambda: FrameRecord("v", 0, label_scores={"a;b": 0.5}),
        lambda path: list(read_frame_records(path)),
        {"video_id": "v", "frame_id": 0, "label_scores": {"a;b": 0.5}},
    ),
    "detection-label-empty": (
        lambda: FrameRecord("v", 0, detections=(("", _BOX, 0.9),)),
        lambda path: list(read_frame_records(path)),
        {"video_id": "v", "frame_id": 0, "detections": [{"label": "", "box": _ENTRY["box"], "score": 0.9}]},
    ),
    "noun-int": (
        lambda: ObjectInteraction(_BOX, 5, "take", 1.0),
        lambda path: read_ground_truth(path, min_ttc=0.0),
        {"video_id": "v", "frame_id": 0, "entries": [dict(_ENTRY, noun=5, verb="take")]},
    ),
    "held-int": (
        lambda: assemble([], [1], []),
        read_contexts,
        {"video_id": "v", "frame_id": 0, "text": "", "action_terms": [], "held": [1], "salient": []},
    ),
    "frame-video_id-int": (
        lambda: FrameRecord(5, 0),
        lambda path: list(read_frame_records(path)),
        {"video_id": 5, "frame_id": 0},
    ),
    "frame_id-bool": (
        lambda: FrameRecord("v", True),
        lambda path: list(read_frame_records(path)),
        {"video_id": "v", "frame_id": True},
    ),
    "frame_id-float": (
        lambda: FrameRecord("v", 1.5),
        lambda path: list(read_frame_records(path)),
        {"video_id": "v", "frame_id": 1.5},
    ),
    "box-coordinate-bool": (
        lambda: BoundingBox(True, 0, 2, 2),
        lambda path: list(read_frame_records(path)),
        {"video_id": "v", "frame_id": 0, "active_boxes": [[True, 0, 2, 2]]},
    ),
    "box-coordinate-string": (
        lambda: BoundingBox("0", 0, 2, 2),
        lambda path: list(read_frame_records(path)),
        {"video_id": "v", "frame_id": 0, "active_boxes": [["0", 0, 2, 2]]},
    ),
    "label-score-nan": (
        lambda: FrameRecord("v", 0, label_scores={"cup": math.nan}),
        lambda path: list(read_frame_records(path)),
        {"video_id": "v", "frame_id": 0, "label_scores": {"cup": math.nan}},
    ),
    "detection-score-null": (
        lambda: FrameRecord("v", 0, detections=(("cup", _BOX, None),)),
        lambda path: list(read_frame_records(path)),
        {"video_id": "v", "frame_id": 0, "detections": [{"label": "cup", "box": _ENTRY["box"], "score": None}]},
    ),
    "token-surface-int": (
        lambda: TaggedToken(5, "x", PosTag.OTHER),
        lambda path: list(read_frame_records(path)),
        {"video_id": "v", "frame_id": 0, "captions": [[{"surface": 5, "lemma": "x", "pos": "OTHER"}]]},
    ),
    "prediction-score-bool": (
        lambda: Prediction(ObjectInteraction(_BOX, "cup", "take", 1.0), True),
        read_predictions,
        {"video_id": "v", "frame_id": 0, "entries": [dict(_ENTRY, noun="cup", verb="take", score=True)]},
    ),
    "prediction-score-infinite": (
        lambda: Prediction(ObjectInteraction(_BOX, "cup", "take", 1.0), math.inf),
        read_predictions,
        {"video_id": "v", "frame_id": 0, "entries": [dict(_ENTRY, noun="cup", verb="take", score=math.inf)]},
    ),
    "ttc-beyond-float-range": (
        lambda: ObjectInteraction(_BOX, "cup", "take", 10**400),
        lambda path: read_ground_truth(path, min_ttc=0.0),
        {"video_id": "v", "frame_id": 0, "entries": [dict(_ENTRY, noun="cup", verb="take", ttc=10**400)]},
    ),
}


@pytest.mark.parametrize("case", sorted(LABELS_BUILT_AND_READ))
def test_code_built_label_refused_as_its_reader_refuses_it(tmp_path, case):
    build, read, record = LABELS_BUILT_AND_READ[case]
    with pytest.raises(ValidationError) as built:
        build()
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(ParseError) as read_error:
        read(str(path))
    assert str(read_error.value) == f"{path}:line 1: {built.value}"


class TestScalarRules:
    """The number and integer rules, which each value type applies to its fields."""

    @pytest.mark.parametrize("value", [True, "1", None, [1.0], 10**400, math.nan, -math.inf])
    def test_number_rule_refuses(self, value):
        with pytest.raises(ValidationError, match="^x must be a finite number, got "):
            checked_number(value, "x")

    @pytest.mark.parametrize("value", [True, 1.0, "1", None])
    def test_integer_rule_refuses(self, value):
        with pytest.raises(ValidationError, match="^x must be an integer, got "):
            checked_integer(value, "x")

    def test_int_too_long_to_print_is_shown_by_its_size(self):
        with pytest.raises(ValidationError, match=r"^box coordinate must be a finite number, got <\d+-bit int>$"):
            BoundingBox(10**5000, 0, 2, 2)

    @pytest.mark.parametrize("field, value, shown", [
        ("start_frame", True, "true"), ("end_frame", 4.0, "4.0"), ("occurrences", "2", '"2"'),
    ])
    def test_segment_counts_are_integers(self, field, value, shown):
        fields = dict(category=Category.ACTION, term=_PAIR, start_frame=1, end_frame=4, occurrences=2, active=True)
        with pytest.raises(ValidationError, match=f"^{field} must be an integer, got {re.escape(shown)}$"):
            Segment(**{**fields, field: value})

    def test_int_numbers_stored_as_floats(self):
        box = BoundingBox(0, 1, 2, 3)
        gt = ObjectInteraction(box, "cup", "take", 1)
        scores = {"cup": 1}
        record = FrameRecord("v", 0, label_scores=scores, detections=(("cup", box, 1),))
        stored = [*box.as_tuple(), gt.ttc, Prediction(gt, 1).score, record.label_scores["cup"], record.detections[0][2]]
        assert stored == [0.0, 1.0, 2.0, 3.0, 1.0, 1.0, 1.0, 1.0]
        assert {type(v) for v in stored} == {float}
        assert type(scores["cup"]) is int  # a copy holds the float: the caller's mapping is left alone


_LONG = "x" * 3000
_LONG_INT = int("9" * 3000)
# Every message that shows a value, each given a 3,000-character one: a label, an id or a number.
LONG_VALUE_MESSAGES = {
    "label-score-label": lambda tmp_path: FrameRecord("v", 0, label_scores={_LONG: 2.0}),
    "negative-frame-id": lambda tmp_path: FrameRecord("v", -_LONG_INT),
    "part-of-speech-tag": lambda tmp_path: TaggedToken("x", "x", _LONG),
    "summarize-duplicate-frame": lambda tmp_path: summarize_video(
        _LONG, [FrameRecord(_LONG, 0), FrameRecord(_LONG, 0)], SummarizerConfig()),
    "segment-counts": lambda tmp_path: Segment(Category.ACTION, _PAIR, _LONG_INT, 0, 1, True),
    "config-out-of-range": lambda tmp_path: SummarizerConfig(d=_LONG_INT),
    "config-merge-conflict": lambda tmp_path: SummarizerConfig(merge_table=((_LONG, _LONG + "a"), (_LONG, _LONG + "b"))),
    "config-merge-missing-arrow": lambda tmp_path: _read_line(tmp_path, "c.cfg", f"merge_table={_LONG}", load_config),
    "frames-duplicate-frame-id": lambda tmp_path: _read_line(
        tmp_path, "frames.jsonl", f'{{"video_id": "v", "frame_id": {_LONG_INT}}}\n' * 2,
        lambda path: list(read_frame_records(str(path)))),
}


def _read_line(tmp_path, name, text, read):
    path = tmp_path / name
    path.write_text(text + "\n")
    return read(path)


@pytest.mark.parametrize("case", sorted(LONG_VALUE_MESSAGES))
def test_long_value_cut_in_every_message(tmp_path, case):
    with pytest.raises(ValidationError) as refused:
        LONG_VALUE_MESSAGES[case](tmp_path)
    message = refused.value.args[0]  # a ParseError's message, without its path:line
    assert "..." in message and len(message) <= 160, message


def _run_cli(*argv):
    args = cli.build_parser().parse_args(list(argv))
    return args.func(args)


_MAX = sys.maxsize
_GT_LINE = json.dumps({"video_id": "v", "frame_id": 0, "entries": [dict(_ENTRY, noun="cup", verb="take", ttc=0.01)]})
# Every bounded number, each given a value out of its range, and the one message of that refusal.
RANGE_SITES = {
    "frame-id": (lambda tmp_path: FrameRecord("v", -1), "frame_id -1 out of range [0, inf]"),
    "box-coordinate": (lambda tmp_path: BoundingBox(0, -0.5, 2, 2), "box coordinate -0.5 out of range [0, inf]"),
    "ttc": (lambda tmp_path: ObjectInteraction(_BOX, "cup", "take", -1), "ttc -1.0 out of range [0, inf]"),
    "prediction-score": (lambda tmp_path: Prediction(ObjectInteraction(_BOX, "cup", "take", 1.0), 1.5),
                         "score 1.5 out of range [0, 1]"),
    "label-score": (lambda tmp_path: FrameRecord("v", 0, label_scores={"cup": -2}),
                    "label_scores['cup'] -2.0 out of range [-1, 1]"),
    "segment-occurrences": (lambda tmp_path: Segment(Category.ACTION, _PAIR, 0, 1, 0, True),
                            "occurrences 0 out of range [1, inf]"),
    "extraction-d": (lambda tmp_path: extract_candidate_pairs([], -1), f"d -1 out of range [0, {_MAX}]"),
    "extraction-k": (lambda tmp_path: select_salient({}, -1), f"k -1 out of range [0, {_MAX}]"),
    "extraction-theta-iou": (lambda tmp_path: match_held_objects([], [], 1.5), "theta_iou 1.5 out of range [0, 1]"),
    "aggregator-p-o": (lambda tmp_path: StreamAggregator(Category.HELD, 0, 7), f"p_o_held 0 out of range [1, {_MAX}]"),
    "aggregator-p-l": (lambda tmp_path: StreamAggregator(Category.SALIENT, 1, -1),
                       f"p_l_salient -1 out of range [0, {_MAX}]"),
    "metrics-iou-thresh": (lambda tmp_path: top5_map({}, {}, [Variant.NOUN], iou_thresh=1.5),
                           "iou_thresh 1.5 out of range [0, 1]"),
    "metrics-iou-thresh-nan": (lambda tmp_path: top5_map({}, {}, [Variant.NOUN], iou_thresh=math.nan),
                               "iou_thresh must be a finite number, got NaN"),
    "metrics-iou-thresh-text": (lambda tmp_path: top5_map({}, {}, [Variant.NOUN], iou_thresh="x"),
                                'iou_thresh must be a finite number, got "x"'),
    "metrics-t-delta": (lambda tmp_path: top5_map({}, {}, [Variant.NOUN], t_delta=-0.5),
                        "t_delta -0.5 out of range [0, inf]"),
    "gt-min-ttc": (lambda tmp_path: _read_line(tmp_path, "gt.jsonl", _GT_LINE,
                                               lambda path: read_ground_truth(str(path), min_ttc=0.033)),
                   "ttc 0.01 out of range [0.033, inf]"),
    "cli-jobs": (lambda tmp_path: _run_cli("summarize", "--frames", "f", "--out", "o", "--jobs", "0"),
                 "--jobs 0 out of range [1, inf]"),
    "cli-n-videos": (lambda tmp_path: _run_cli("synth", "--out", str(tmp_path / "f"), "--n-videos", "0"),
                     "--n-videos 0 out of range [1, inf]"),
    "cli-seed": (lambda tmp_path: _run_cli("fuse-check", "--seed", "-1"), "--seed -1 out of range [0, inf]"),
    "cli-synth-seed": (lambda tmp_path: _run_cli("synth", "--out", str(tmp_path / "f"), "--seed", "-1"),
                       f"--seed -1 out of range [0, {2**64 - 1}]"),
    "cli-synth-last-seed": (lambda tmp_path: _run_cli("synth", "--out", str(tmp_path / "f"),
                                                      "--seed", str(2**64 - 1), "--n-videos", "2"),
                            f"--seed {2**64 - 1} out of range [0, {2**64 - 2}]"),
    "synth-seed": (lambda tmp_path: gen_scenario(-1), f"seed -1 out of range [0, {2**64 - 1}]"),
    "synth-n-terms": (lambda tmp_path: gen_scenario(0, n_terms=0), "n_terms 0 out of range [1, inf]"),
    "synth-n-frames": (lambda tmp_path: gen_scenario(0, n_frames=0), "n_frames 0 out of range [1, inf]"),
}


@pytest.mark.parametrize("case", sorted(RANGE_SITES))
def test_range_refusal_has_one_form(tmp_path, case):
    build, message = RANGE_SITES[case]
    with pytest.raises(ValidationError) as refused:
        build(tmp_path)
    assert refused.value.args[0] == message  # a ParseError's message, without its path:line


# Every string field of a value type, given a lone surrogate, which has no UTF-8 form and no file holds.
NO_UTF8_FIELDS = {
    "video_id": lambda: FrameRecord("\udcff", 0),
    "label_scores-key": lambda: FrameRecord("v", 0, label_scores={"\udcff": 0.5}),
    "detection-label": lambda: FrameRecord("v", 0, detections=(("\udcff", _BOX, 0.5),)),
    "noun": lambda: ObjectInteraction(_BOX, "\udcff", "take", 1.0),
    "verb": lambda: ObjectInteraction(_BOX, "cup", "\udcff", 1.0),
    "action-verb": lambda: ActionPair("\udcff", "cup"),
    "action-noun": lambda: ActionPair("take", "\udcff"),
    "surface": lambda: TaggedToken("cup\udcff", "cup", PosTag.NOUN),
    "verb-lemma": lambda: TaggedToken("take", "take\udcff", PosTag.VERB),
    "noun-lemma": lambda: TaggedToken("cup", "\udcff", PosTag.NOUN),
    "other-lemma": lambda: TaggedToken("the", "\udcff", PosTag.OTHER),
    "vocab_noun": lambda: SummarizerConfig(vocab_noun=frozenset({"\udcff"})),
    "vocab_verb": lambda: SummarizerConfig(vocab_verb=frozenset({"\udcff"})),
    "generic_nouns": lambda: SummarizerConfig(generic_nouns=frozenset({"\udcff"})),
    "merge-source": lambda: SummarizerConfig(merge_table=(("\udcff", "cup"),)),
    "merge-target": lambda: SummarizerConfig(merge_table=(("cup", "\udcff"),)),
}


@pytest.mark.parametrize("case", sorted(NO_UTF8_FIELDS))
def test_string_without_utf8_form_refused(case):
    with pytest.raises(ValidationError, match=r"'(\w+)?\\udcff' has no UTF-8 form$"):
        NO_UTF8_FIELDS[case]()


@pytest.mark.parametrize("build, message", [
    (lambda: ObjectInteraction((0, 0, 1, 1), "cup", "take", 1.0), "box must be a BoundingBox, got [0, 0, 1, 1]"),
    (lambda: ObjectInteraction(None, "cup", "take", -1.0), "box must be a BoundingBox, got null"),
    (lambda: Prediction(None, 0.5), "interaction must be an ObjectInteraction, got null"),
    (lambda: Prediction({"box": [0, 0, 1, 1]}, 2.0),
     'interaction must be an ObjectInteraction, got {"box": [0, 0, 1, 1]}'),
])
def test_misshapen_entry_refused_by_type(build, message):
    with pytest.raises(ValidationError) as refused:
        build()
    assert str(refused.value) == message


def test_labels_that_would_merge_two_classes_refused():
    # under nv these two ground truths would share the class "a,b,take"
    assert class_key("a,b", "take", Variant.NOUN_VERB) == class_key("a", "b,take", Variant.NOUN_VERB)
    for noun, verb in [("a,b", "take"), ("a", "b,take")]:
        with pytest.raises(ValidationError, match="contains a reserved separator"):
            ObjectInteraction(_BOX, noun, verb, 1.0)


class TestNormalize:
    @given(st.text(max_size=30))
    def test_idempotent(self, text):
        once = normalize_label(text)
        assert normalize_label(once) == once


@pytest.mark.parametrize("raw", [5, ["cup"], None, b"cup"], ids=["int", "list", "none", "bytes"])
def test_label_that_is_no_string_refused(raw):
    # a list is unhashable: the type check comes before the memo would hash it
    with pytest.raises(ValidationError, match=rf"^noun {re.escape(clipped(repr(raw)))} is not a string$"):
        ObjectInteraction(_BOX, raw, "take", 1.0)
    with pytest.raises(ValidationError, match="^action verb .* is not a string$"):
        ActionPair(raw, "cup")


def _label_rule(raw, what):
    """The label rule written out, with no memo: the reference for ``checked_label``."""
    if "," in raw or ";" in raw:
        raise ValidationError(f"{what} {clipped(repr(raw))} contains a reserved separator")
    label = " ".join(raw.lower().split())
    if not label:
        raise ValidationError(f"{what} {clipped(repr(raw))} is blank")
    return label


def _outcome(rule, raw, what):
    try:
        return "passed", rule(raw, what)
    except ValidationError as exc:
        return "refused", str(exc)


class TestLabelMemo:
    """``checked_label`` answers a label that passed from a bounded memo; a refusal is never stored."""

    def test_same_bad_label_refused_with_each_callers_what(self):
        for what in ("noun", "verb", "noun", "held label"):
            with pytest.raises(ValidationError, match=f"^{what} 'a;b' contains a reserved separator$"):
                checked_label("a;b", what)

    def test_bad_label_refused_after_a_good_one_was_cached(self):
        for _ in range(2):
            assert checked_label(" Mug ", "noun") == "mug"
            for raw, rule in [("mug;", "contains a reserved separator"), ("  ", "is blank"), ("", "is blank")]:
                with pytest.raises(ValidationError, match=f"^noun {re.escape(repr(raw))} {rule}$"):
                    checked_label(raw, "noun")

    def test_separator_label_refused_after_its_normalized_twin_passed(self):
        assert checked_label("Pressure  Cooker", "noun") == "pressure cooker"
        assert checked_label("pressure cooker", "noun") == "pressure cooker"
        for raw in ("pressure cooker,", "Pressure; Cooker", ";pressure cooker"):
            with pytest.raises(ValidationError, match=f"^verb {re.escape(repr(raw))} contains a reserved separator$"):
                checked_label(raw, "verb")

    def test_memo_stays_at_its_bound(self):
        bound = core._passed_label.cache_info().maxsize
        assert isinstance(bound, int)
        for i in range(10 * bound):
            assert checked_label(f"Label  {i}", "noun") == f"label {i}"
        assert core._passed_label.cache_info().currsize == bound

    @given(st.lists(
        st.text(alphabet=st.sampled_from(list(", ;\t\n\u3000\xa0aAxß\u0130\u03a3\u03c2\u03c3")), max_size=8)
        | st.text(max_size=12),
        min_size=1, max_size=6,
    ))
    def test_memoized_rule_equals_the_rule(self, raws):
        # each label twice: once as the memo meets it, once more as a hit when it passed
        for raw in raws + raws:
            assert _outcome(checked_label, raw, "noun") == _outcome(_label_rule, raw, "noun")


def _write_embeddings(path, words, dim=300):
    rows = []
    for i, word in enumerate(words):
        vec = np.zeros(dim)
        vec[i % dim] = 1.0
        rows.append(word + "\t" + "\t".join(repr(float(v)) for v in vec))
    path.write_text("\n".join(rows) + "\n")


# One bad entry each: (word, vector, words of the error message).
BAD_EMBEDDING_ENTRIES = {
    "wrong-length": ("knife", np.ones(299), r"shape \(299,\), expected \(300,\)"),
    "nan": ("knife", np.full(300, math.nan), "squared norm"),
    "norm-overflow": ("knife", np.full(300, 1e151), "squared norm"),
    "blank-word": (" ", np.ones(300), "empty word"),
    "case-collision": ("Cup", np.ones(300), "duplicate word: 'Cup' repeats the word 'cup'"),
}


class TestEmbeddings:
    def test_load_and_lookup_case_insensitive(self, tmp_path):
        path = tmp_path / "emb.tsv"
        _write_embeddings(path, ["apple", "Knife"])
        table = load_embeddings(path)
        assert len(table) == 2
        assert table.lookup("APPLE") is not None
        assert table.lookup("knife") is not None
        assert table.lookup("absent") is None

    def test_loader_checks_each_entry_once(self, tmp_path, monkeypatch):
        from context_forge import core

        calls = []
        add = core.EmbeddingTable._add

        def counted(table, word, vector, keep):
            calls.append(word)
            add(table, word, vector, keep)

        monkeypatch.setattr(core.EmbeddingTable, "_add", counted)
        path = tmp_path / "emb.tsv"
        _write_embeddings(path, ["apple", "Knife", "cup"])
        table = load_embeddings(path)
        assert calls == ["apple", "Knife", "cup"]
        assert len(table) == 3 and table.lookup("knife") is not None

    def test_wrong_dimension_cites_line(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("apple\t1.0\t2.0\n")
        with pytest.raises(ParseError, match="line 1"):
            load_embeddings(path)

    def test_duplicate_word_rejected(self, tmp_path):
        path = tmp_path / "emb.tsv"
        _write_embeddings(path, ["apple", "apple"])
        with pytest.raises(ParseError, match="duplicate"):
            load_embeddings(path)

    def test_empty_table_rejected(self):
        for vectors in ({}, iter(())):
            with pytest.raises(ValidationError, match="^no embeddings$"):
                EmbeddingTable(vectors)

    def test_entries_and_mapping_build_one_table(self):
        entries = [("Cup", np.eye(300)[0]), ("knife", np.eye(300)[1])]
        from_entries, from_mapping = EmbeddingTable(iter(entries), ["cup"]), EmbeddingTable(dict(entries), ["cup"])
        assert len(from_entries) == len(from_mapping) == 2
        assert np.array_equal(from_entries.lookup("cup"), from_mapping.lookup("CUP"))
        with pytest.raises(InvariantError, match="'knife'"):
            from_entries.lookup("knife")

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValidationError):
            EmbeddingTable({"apple": np.ones(10)})

    def test_words_colliding_after_normalization_rejected(self):
        with pytest.raises(ValidationError, match="repeats the word 'cup'"):
            EmbeddingTable({"Cup": np.ones(300), "cup": np.zeros(300)})

    def test_table_leaves_the_callers_array_alone(self):
        a = np.eye(300)[0].copy()
        table = EmbeddingTable({"cup": a})
        a[0] = 2
        vector = table.lookup("cup")
        assert vector[0] == 1.0
        assert not vector.flags.writeable

    @pytest.mark.parametrize("value", [1e151, math.inf, math.nan])
    def test_vector_beyond_norm_bound_rejected(self, value):
        # a squared norm above 1e300 could overflow a later norm into inf, and a NaN report
        EmbeddingTable({"cup": np.full(300, 1e148)})
        vec = np.zeros(300)
        vec[7] = value
        with pytest.raises(ValidationError, match="squared norm"):
            EmbeddingTable({"cup": vec})

    @pytest.mark.parametrize("word", [5, None, b"cup"], ids=["int", "none", "bytes"])
    def test_word_that_is_no_string_refused(self, word):
        with pytest.raises(ValidationError, match="^word must be a string, got "):
            EmbeddingTable({word: np.ones(300)})

    @pytest.mark.parametrize("vector", [
        ["1_0"] * 300, ["\u0663"] * 300, ["1.0"] * 300, [True] * 300, [1.0] * 299 + [True], [None] * 300,
        np.full(300, True), np.full(300, "1.0"), [[1.0] * 300],
    ], ids=[
        "underscore", "non-ascii-digit", "string", "bool", "one-bool", "none", "bool-array", "string-array", "nested",
    ])
    def test_vector_values_follow_the_number_rule(self, vector):
        # np.array would convert each of these: '1_0' to 10.0, '\u0663' to 3.0, True to 1.0
        with pytest.raises(ValidationError, match=r"^vector for 'cup' does not convert to an array of floats$"):
            EmbeddingTable({"cup": vector})

    def test_int_vector_values_stored_as_floats(self):
        for vector in ([1] * 300, np.ones(300, dtype=np.int64), (0.5,) * 300):
            stored = EmbeddingTable({"cup": vector}).lookup("cup")
            assert stored.dtype == np.float64 and np.array_equal(stored, np.array(vector, dtype=np.float64))

    @pytest.mark.parametrize(
        "word,vector,message", BAD_EMBEDDING_ENTRIES.values(), ids=BAD_EMBEDDING_ENTRIES.keys()
    )
    def test_bad_entry_rejected_alike_by_loader_and_table(self, tmp_path, word, vector, message):
        # the entry follows a valid "cup"; both entry points state the same rule
        cup = np.eye(300)[0]
        with pytest.raises(ValidationError, match=message) as table_error:
            EmbeddingTable({"cup": cup, word: vector})
        path = tmp_path / "emb.tsv"
        lines = [("cup", cup), (word, vector)]
        path.write_text("".join(f"{w}\t" + "\t".join(map(repr, v.tolist())) + "\n" for w, v in lines))
        with pytest.raises(ParseError, match=message) as load_error:
            load_embeddings(path)
        assert str(load_error.value) == f"{path}:line 2: {table_error.value}"

    def test_words_keep_only_their_rows(self, tmp_path):
        path = tmp_path / "emb.tsv"
        _write_embeddings(path, ["apple", "Knife", "cup"])
        full, kept = load_embeddings(path), load_embeddings(path, ["KNIFE", "pear"])
        assert len(kept) == 3
        assert np.array_equal(kept.lookup("knife"), full.lookup("knife"))
        assert kept.lookup("pear") is None
        # a dropped row is a caller's bug, never a missing word
        with pytest.raises(InvariantError, match="'apple'"):
            kept.lookup("Apple")

    @pytest.mark.parametrize(
        "word,vector,message", BAD_EMBEDDING_ENTRIES.values(), ids=BAD_EMBEDDING_ENTRIES.keys()
    )
    def test_every_line_checked_when_rows_are_dropped(self, tmp_path, word, vector, message):
        # the bad entry and the "cup" before it are both words that are not kept
        path = tmp_path / "emb.tsv"
        lines = [("cup", np.eye(300)[0]), (word, vector)]
        path.write_text("".join(f"{w}\t" + "\t".join(map(repr, v.tolist())) + "\n" for w, v in lines))
        with pytest.raises(ParseError, match=message) as full_error:
            load_embeddings(path)
        with pytest.raises(ParseError) as kept_error:
            load_embeddings(path, ["other"])
        assert str(kept_error.value) == str(full_error.value)
        assert str(kept_error.value).startswith(f"{path}:line 2: ")

    def test_memory_dropped_rows_hold_no_vector(self, tmp_path):
        # a row that words does not keep is checked, then held as None: no vector stays
        path = tmp_path / "emb.tsv"
        words = [f"w{i}" for i in range(1000)]
        _write_embeddings(path, words)

        def held(keep):
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                table = load_embeddings(path, keep)
                current = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert len(table) == 1000  # every row is entered, kept or not
            return current - before

        ratio = held(words[:10]) / held(None)
        print(f"held keeping 10 of 1000 rows / held keeping all: {ratio:.3f} (bound 0.1)")
        assert ratio <= 0.1

    @pytest.mark.parametrize(
        "vector", [[[1, 2], [3]], "abc", {"a": 1}, [10**400] * 300], ids=["ragged", "string", "dict", "huge-int"]
    )
    def test_vector_that_does_not_convert_rejected(self, vector):
        with pytest.raises(ValidationError, match="^vector for 'cup' does not convert to an array of floats$"):
            EmbeddingTable({"cup": vector})

    @pytest.mark.parametrize("word", ["", "  \t "])
    def test_blank_word_rejected(self, word):
        with pytest.raises(ValidationError, match="empty word"):
            EmbeddingTable({word: np.ones(300), "cup": np.zeros(300)})
