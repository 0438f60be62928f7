import math
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from context_forge.core import (
    ActionPair,
    BoundingBox,
    EmbeddingTable,
    FrameRecord,
    ObjectInteraction,
    ParseError,
    PerCategory,
    PosTag,
    Prediction,
    SummarizerConfig,
    TaggedToken,
    ValidationError,
    config_hash,
    load_config,
    load_embeddings,
    normalize_label,
    serialize_config,
)


class TestDefaults:
    def test_default_operating_point(self):
        cfg = SummarizerConfig()
        assert cfg.d == 4
        assert cfg.k == 5
        assert cfg.theta_iou == 0.25
        assert cfg.p_o == PerCategory(action=1, held=7, salient=10)
        assert cfg.p_l == PerCategory(action=7, held=7, salient=7)
        assert cfg.stride == 3
        assert cfg.window == 150
        assert cfg.context_lengths == PerCategory(action=3, held=3, salient=3)
        assert cfg.min_ttc == 0.033
        assert cfg.iou_thresh == 0.5
        assert cfg.t_delta == 0.25
        assert cfg.box_loss_lambda == 11.0

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
window=99
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
box_loss_lambda=3.5
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
        assert cfg.merge_map() == {"pressure cooker": "machine", "home appliance": "machine"}
        assert cfg.action_noun_vocab() == frozenset(
            {"knife", "cup", "apple", "something", "object"}
        )

    def test_per_category_keys(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("p_o_held=3\nl_salient=5\np_l_action=4\n")
        cfg = load_config(path)
        assert cfg.p_o == PerCategory(action=1, held=3, salient=10)
        assert cfg.context_lengths == PerCategory(action=3, held=3, salient=5)
        assert cfg.p_l == PerCategory(action=4, held=7, salient=7)

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
        assert config_hash(SummarizerConfig()) == "c2e28db2185d4a15"
        assert config_hash(cfg) == "17e17a4583109c21"
        assert serialize_config(cfg).splitlines()[-4:] == [
            "vocab_noun=apple,cup,knife",
            "vocab_verb=cut,take",
            "generic_nouns=object,thing",
            "merge_table=home appliance->machine,pressure cooker->machine",
        ]

    @pytest.mark.parametrize(
        "fields", [{"d": True}, {"k": 2.5}, {"theta_iou": 1}, {"p_o": PerCategory(1, True, 10)}]
    )
    def test_wrong_type_rejected(self, fields):
        # serialize_config would write a value that load_config rejects
        with pytest.raises(ValidationError, match="is not of type"):
            SummarizerConfig(**fields)

    @pytest.mark.parametrize(
        "fields",
        [
            {"vocab_noun": frozenset({"a;b"})},
            {"merge_table": (("x", "y;z"),)},
            {"vocab_noun": frozenset({"Cup"})},
            {"generic_nouns": frozenset({" thing"})},
            {"merge_table": (("b", "x"), ("a", "y"))},
            {"merge_table": (("a->b", "c"),)},
            {"vocab_verb": frozenset({1})},
        ],
    )
    def test_labels_that_do_not_read_back_rejected(self, fields):
        # each would serialize to a file that load_config rejects or reads back unequal
        with pytest.raises(ValidationError, match="does not read back"):
            SummarizerConfig(**fields)

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
        assert cfg.merge_map() is cfg.merge_map() == {"a": "b"}
        assert cfg.action_noun_vocab() is cfg.action_noun_vocab() == {"apple", "thing"}
        # built lookups change neither equality, hashing, the digest nor pickling
        assert cfg == fresh and hash(cfg) == hash(fresh) and config_hash(cfg) == digest
        back = pickle.loads(pickle.dumps(cfg))
        assert back == cfg and back.merge_map() == {"a": "b"} and config_hash(back) == digest

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
            Prediction(gt, score, 0)

    def test_tagged_token_requires_lemma(self):
        with pytest.raises(ValidationError):
            TaggedToken("x", "", PosTag.NOUN)

    def test_action_pair_lowercases(self):
        pair = ActionPair("Cut", "WOOD")
        assert pair.render() == "cut wood"

    def test_frame_record_score_range(self):
        with pytest.raises(ValidationError):
            FrameRecord(video_id="v", frame_id=0, label_scores={"cup": 1.5})


class TestNormalize:
    @given(st.text(max_size=30))
    def test_idempotent(self, text):
        once = normalize_label(text)
        assert normalize_label(once) == once


def _write_embeddings(path, words, dim=300):
    rows = []
    for i, word in enumerate(words):
        vec = np.zeros(dim)
        vec[i % dim] = 1.0
        rows.append(word + "\t" + "\t".join(repr(float(v)) for v in vec))
    path.write_text("\n".join(rows) + "\n")


class TestEmbeddings:
    def test_load_and_lookup_case_insensitive(self, tmp_path):
        path = tmp_path / "emb.tsv"
        _write_embeddings(path, ["apple", "Knife"])
        table = load_embeddings(path)
        assert len(table) == 2
        assert table.lookup("APPLE") is not None
        assert table.lookup("knife") is not None
        assert table.lookup("absent") is None

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
        with pytest.raises(ValidationError):
            EmbeddingTable({})

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValidationError):
            EmbeddingTable({"apple": np.ones(10)})

    def test_words_colliding_after_normalization_rejected(self):
        with pytest.raises(ValidationError, match="repeats the word 'cup'"):
            EmbeddingTable({"Cup": np.ones(300), "cup": np.zeros(300)})

    @pytest.mark.parametrize("word", ["", "  \t "])
    def test_blank_word_rejected(self, word):
        with pytest.raises(ValidationError, match="empty word"):
            EmbeddingTable({word: np.ones(300), "cup": np.zeros(300)})
