"""Core domain types, configuration, and shared assets.

Everything in here is immutable after construction and safe to share
between worker processes. Each field follows one rule (``checked_label``,
``checked_number``, ``checked_integer``, ``checked_text``, or a rule that
``in_range``, the one range check, builds), which the type holding it
applies as it is built, whether from a file or in code: a type's one
comparison chain passes the common case, and the rule is called only to
store an int as a float or to word a refusal. A label that passed recently
is answered from a bounded memo, one string per normalized label, and a
refusal is never stored. Labels are compared normalized to lowercase,
whitespace-collapsed strings; membership checks are exact string matches
after normalization.
"""

from __future__ import annotations

import codecs
import dataclasses
import functools
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Container, Iterable, Iterator, Mapping, Union

import numpy as np


class ContextForgeError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ContextForgeError):
    """A value violates a documented invariant (CLI exit code 1)."""


class ParseError(ValidationError):
    """An input document could not be parsed; the message reads ``path:line N: message``."""

    def __init__(self, message: str, line: int, path: str):
        # the args are the parts, not the message: a --jobs worker's error is pickled by its args
        super().__init__(message, line, path)

    def __str__(self) -> str:
        message, line, path = self.args
        return f"{path}:line {line}: {message}"


class ShapeError(ValidationError):
    """Tensor dimensions are inconsistent with the declared contract."""


class InvariantError(ContextForgeError):
    """An internal invariant failed (CLI exit code 3)."""


def normalize_label(label: str) -> str:
    """Lowercase and collapse internal whitespace: ' Pressure  Cooker ' -> 'pressure cooker'.

    A label already in that form comes back as the same string, not a copy,
    so a string that readers share stays shared.
    """
    normalized = " ".join(label.lower().split())
    return label if normalized == label else normalized


def checked_label(raw: str, what: str) -> str:
    """``raw`` normalized: the one label rule, which each value type applies as it is built.

    The context text and Top-5 mAP's class keys join labels with "," and ";", so a
    label is a string holding neither, and is not blank. ``what`` names the label in
    errors. A label that passed recently is answered from ``_passed_label``'s memo.
    """
    if not isinstance(raw, str):  # also keeps an unhashable value out of the memo
        raise ValidationError(f"{what} {clipped(repr(raw))} is not a string")
    try:
        return _passed_label(raw)
    except ValueError as exc:
        raise ValidationError(f"{what} {clipped(repr(raw))} {exc}") from None


@functools.lru_cache(maxsize=1024)
def _passed_label(raw: str) -> str:
    """``raw`` normalized, memoized for the last 1024 distinct labels that passed.

    A spelling that normalizes to another string gets the memo's string for that
    label. A label that breaks the rule raises ``ValueError`` naming the part it
    breaks, which is never stored: each refusal is worded with its caller's ``what``.
    """
    if "," in raw or ";" in raw:
        raise ValueError("contains a reserved separator")
    try:
        raw.encode("utf-8")  # a lone surrogate has no UTF-8 form, so no file can hold it
    except UnicodeEncodeError:
        raise ValueError("has no UTF-8 form") from None
    label = normalize_label(raw)
    if not label:
        raise ValueError("is blank")
    return label if label is raw else _passed_label(label)


def _is_number(value) -> bool:
    return isinstance(value, (float, int)) and not isinstance(value, bool)


def checked_number(value, what: str) -> float:
    """``value`` as a finite float: the number rule. An int is converted; a bool, string or None is refused."""
    if _is_number(value) and abs(value) <= sys.float_info.max:  # NaN fails too; an int compares exactly
        return float(value)
    raise type_refusal(what, "a finite number", value)


def checked_integer(value, what: str) -> int:
    """``value`` when it is an int, never a bool: the integer rule."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise type_refusal(what, "an integer", value)


def checked_text(value, what: str) -> str:
    """``value`` when it is a string with a UTF-8 form, as a label is: the rule of other strings."""
    if not isinstance(value, str):
        raise type_refusal(what, "a string", value)
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise ValidationError(f"{what} {clipped(repr(value))} has no UTF-8 form") from None
    return value


def in_range(checked, low, high=math.inf):
    """The range rule of every bounded number: ``checked`` (the integer or number rule), then ``low <= value <= high``.

    Its one refusal is ``{what} {value} out of range [{low}, {high}]``, the value ``shown``; ``high`` defaults to inf.
    """
    def rule(value, what: str):
        value = checked(value, what)
        if not low <= value <= high:
            raise ValidationError(f"{what} {shown(value)} out of range [{low}, {high}]")
        return value
    return rule


# Range rules shared by several values. The config's integers (COUNT, POSITIVE) stop where a deque's
# maxlen does, which a context length sizes; every other integer (NATURAL, AT_LEAST_ONE) is unbounded.
COUNT, POSITIVE = in_range(checked_integer, 0, sys.maxsize), in_range(checked_integer, 1, sys.maxsize)
NATURAL, AT_LEAST_ONE = in_range(checked_integer, 0), in_range(checked_integer, 1)
FRACTION, NON_NEGATIVE = in_range(checked_number, 0, 1), in_range(checked_number, 0)
_LABEL_SCORE = in_range(checked_number, -1, 1)


def checked_frame_id(frame_id: int) -> int:
    """``frame_id``, an integer that is not negative: the frame-id rule of every file that keys by frame."""
    if not (type(frame_id) is int and frame_id >= 0):
        NATURAL(frame_id, "frame_id")
    return frame_id


def clipped(text: str) -> str:
    """``text`` as a message shows it: cut to 40 characters."""
    return text if len(text) <= 40 else text[:37] + "..."


def shown(value) -> str:
    """``value`` in a message: its JSON form, else its repr (``<N-bit int>`` past 4,300 digits), clipped."""
    try:
        text = json.dumps(value)
    except (TypeError, ValueError):  # no JSON form, or an int of over 4,300 digits
        text = f"<{value.bit_length()}-bit int>" if isinstance(value, int) else repr(value)
    return clipped(text)


def type_refusal(what: str, kind: str, value) -> ValidationError:
    """``{what} must be {kind}, got {value}``, the value ``shown``."""
    return ValidationError(f"{what} must be {kind}, got {shown(value)}")


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield (line number, line without its line break) for each non-blank line of a UTF-8 file.

    A blank line is empty or all whitespace; every reader skips it here.
    Lines are decoded one at a time, so invalid UTF-8 is a ``ParseError`` at its line.
    A byte-order mark, which would become part of the first field, is one at line 1.
    """
    with open(path, "rb") as fh:
        if fh.peek(len(codecs.BOM_UTF8)).startswith(codecs.BOM_UTF8):
            raise ParseError("file starts with a UTF-8 byte-order mark", line=1, path=str(path))
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"invalid UTF-8: {exc.reason}", line=lineno, path=str(path)) from None
            if not line.isspace():  # a read line is never empty: it holds at least its line break
                yield lineno, line.rstrip("\r\n")


class Category(Enum):
    """The three context categories carried through the pipeline."""

    ACTION = "action"
    HELD = "held"
    SALIENT = "salient"


class PosTag(Enum):
    VERB = "VERB"
    NOUN = "NOUN"
    OTHER = "OTHER"


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Axis-aligned box in corner form, continuous pixel coordinates.

    Degenerate (zero-area) boxes are rejected here rather than silently
    scoring zero overlap later: they signal upstream corruption.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        # one chain tests every rule; the slow path stores ints as floats and words a refusal
        if not (type(self.x1) is type(self.y1) is type(self.x2) is type(self.y2) is float
                and 0.0 <= self.x1 < self.x2 < math.inf and 0.0 <= self.y1 < self.y2 < math.inf):
            for name in ("x1", "y1", "x2", "y2"):
                object.__setattr__(self, name, NON_NEGATIVE(getattr(self, name), "box coordinate"))
            if not (self.x1 < self.x2 and self.y1 < self.y2):
                raise ValidationError(f"BoundingBox: empty or inverted box {self.as_tuple()}")

    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


@dataclass(frozen=True, slots=True)
class ObjectInteraction:
    """Ground-truth tuple for one upcoming interaction: box, noun, verb, seconds to contact."""

    box: BoundingBox
    noun: str
    verb: str
    ttc: float

    def __post_init__(self) -> None:
        if not (type(self.ttc) is float and 0.0 <= self.ttc < math.inf and type(self.box) is BoundingBox):
            if not isinstance(self.box, BoundingBox):
                raise type_refusal("box", "a BoundingBox", self.box)
            object.__setattr__(self, "ttc", NON_NEGATIVE(self.ttc, "ttc"))
        object.__setattr__(self, "noun", checked_label(self.noun, "noun"))
        object.__setattr__(self, "verb", checked_label(self.verb, "verb"))


@dataclass(frozen=True, slots=True)
class Prediction:
    """One scored model output for a frame."""

    interaction: ObjectInteraction
    score: float

    def __post_init__(self) -> None:
        if not (type(self.score) is float and 0.0 <= self.score <= 1.0 and type(self.interaction) is ObjectInteraction):
            if not isinstance(self.interaction, ObjectInteraction):
                raise type_refusal("interaction", "an ObjectInteraction", self.interaction)
            object.__setattr__(self, "score", FRACTION(self.score, "score"))


@dataclass(frozen=True, slots=True)
class TaggedToken:
    """A caption token with its lemma and a coarse part-of-speech tag.

    Tokens arrive pre-tagged; no tagging or lemmatization happens here.
    A verb or noun lemma is a label, checked but kept as given.
    """

    surface: str
    lemma: str
    pos: PosTag

    def __post_init__(self) -> None:
        if not isinstance(self.pos, PosTag):
            raise ValidationError(f"TaggedToken: bad part-of-speech tag {clipped(repr(self.pos))}")
        if not (type(self.lemma) is str and self.lemma.isascii()):
            checked_text(self.lemma, "lemma")
        if not (type(self.surface) is str and self.surface.isascii()):
            checked_text(self.surface, "surface")
        if self.pos is not PosTag.OTHER:
            checked_label(self.lemma, f"{self.pos.value} lemma")
        elif not self.lemma:
            raise ValidationError("TaggedToken: empty lemma")


@dataclass(frozen=True, slots=True)
class ActionPair:
    """A (verb, noun) lemma pair describing one atomic action."""

    verb: str
    noun: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "verb", checked_label(self.verb, "action verb"))
        object.__setattr__(self, "noun", checked_label(self.noun, "action noun"))

    def render(self) -> str:
        return f"{self.verb} {self.noun}"


Term = Union[ActionPair, str]


def term_text(term: Term) -> str:
    """Canonical textual form of a segment term, used for rendering and tie-breaks."""
    return term.render() if isinstance(term, ActionPair) else term


@dataclass(frozen=True, slots=True)
class FrameRecord:
    """One frame's ingested raw signals. Any field may be empty; sparse input is legal.

    Its labels (``label_scores`` keys, detection labels) are checked but kept as given;
    when a score is an int, the score fields are stored as copies holding floats.
    """

    video_id: str
    frame_id: int
    captions: tuple[tuple[TaggedToken, ...], ...] = ()
    label_scores: Mapping[str, float] = field(default_factory=dict)
    active_boxes: tuple[BoundingBox, ...] = ()
    detections: tuple[tuple[str, BoundingBox, float], ...] = ()

    def __post_init__(self) -> None:
        if not (type(self.video_id) is str and self.video_id.isascii()):
            checked_text(self.video_id, "video_id")
        checked_frame_id(self.frame_id)
        floats = True
        for label, score in self.label_scores.items():
            checked_label(label, "label_scores key")
            if not (type(score) is float and -1.0 <= score <= 1.0):  # as Prediction's score
                _LABEL_SCORE(score, f"label_scores[{clipped(repr(label))}]")
                floats = False
        for label, _, score in self.detections:
            checked_label(label, "detection label")
            if not (type(score) is float and -math.inf < score < math.inf):
                checked_number(score, "score")
                floats = False
        if not floats:
            object.__setattr__(self, "label_scores", {label: float(s) for label, s in self.label_scores.items()})
            object.__setattr__(self, "detections", tuple([(label, box, float(s)) for label, box, s in self.detections]))


@dataclass(frozen=True, slots=True)
class Segment:
    """A contiguous run of one term accepted by the cross-frame aggregation."""

    category: Category
    term: Term
    start_frame: int
    end_frame: int
    occurrences: int
    active: bool

    def __post_init__(self) -> None:
        if not (type(self.start_frame) is type(self.end_frame) is type(self.occurrences) is int
                and self.start_frame <= self.end_frame and self.occurrences >= 1):  # as BoundingBox's chain
            for name in ("start_frame", "end_frame"):
                checked_integer(getattr(self, name), name)
            AT_LEAST_ONE(self.occurrences, "occurrences")
            if self.start_frame > self.end_frame:
                raise ValidationError(f"Segment: start {shown(self.start_frame)} after end {shown(self.end_frame)}")

    def overlaps(self, other: "Segment") -> bool:
        return self.start_frame <= other.end_frame and other.start_frame <= self.end_frame


@dataclass(frozen=True, slots=True)
class ActionContext:
    """The assembled textual summary for one prediction frame."""

    action_segments: tuple[ActionPair, ...]
    held_objects: tuple[str, ...]
    salient_objects: tuple[str, ...]
    text: str


@dataclass(frozen=True)
class PerCategory:
    """One integer knob per context category."""

    action: int
    held: int
    salient: int

    def get(self, category: Category) -> int:
        return getattr(self, category.value)


@dataclass(frozen=True)
class SummarizerConfig:
    """All pipeline knobs with their reference operating-point defaults; some subcommand reads each.

    Each field is stored as its key's rule in ``_CONFIG_KEYS`` returns it, as ``load_config``
    stores the same text: an int for a float key becomes a float, labels are normalized and
    merge-table pairs sorted. Empty vocabularies and merge tables disable the corresponding
    filtering (the unfiltered operating mode); non-empty sets enforce exact membership.
    """

    d: int = 4
    k: int = 5
    theta_iou: float = 0.25
    p_o: PerCategory = PerCategory(action=1, held=7, salient=10)
    p_l: PerCategory = PerCategory(action=7, held=7, salient=7)
    stride: int = 3
    context_lengths: PerCategory = PerCategory(action=3, held=3, salient=3)
    min_ttc: float = 0.033
    iou_thresh: float = 0.5
    t_delta: float = 0.25
    vocab_noun: frozenset[str] = frozenset()
    vocab_verb: frozenset[str] = frozenset()
    generic_nouns: frozenset[str] = frozenset()
    merge_table: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        for key, (path, _, rule) in _CONFIG_KEYS.items():
            value = rule(_config_value(self, path), key)
            if "." not in path:  # a PerCategory part, an int, is kept as given
                object.__setattr__(self, path, value)

    # Extraction reads these lookups for every processed frame, so each is
    # built once per config. The cache is not a field: equality, hashing
    # and serialize_config ignore it.

    @cached_property
    def merge_map(self) -> dict[str, str]:
        """Merge table as a source -> target lookup, shared by all callers: do not mutate."""
        return dict(self.merge_table)

    @cached_property
    def action_noun_vocab(self) -> frozenset[str]:
        """Noun domain admitted into action pairs: configured nouns plus generics."""
        if not self.vocab_noun:
            return frozenset()
        return self.vocab_noun | self.generic_nouns


def _label_set(value, key: str) -> frozenset[str]:
    """The rule of a label set, stored normalized; checked in sorted order, so a refusal names one label."""
    if not isinstance(value, (set, frozenset)):
        raise type_refusal(key, "a set of labels", value)
    return frozenset(checked_label(label, f"{key} label") for label in sorted(value, key=repr))


def _merge_table(value, key: str) -> tuple[tuple[str, str], ...]:
    """The merge-table rule: (source, target) label pairs, each source mapped once; stored sorted."""
    if not (isinstance(value, tuple) and all(isinstance(pair, tuple) and len(pair) == 2 for pair in value)):
        raise type_refusal(key, "a tuple of (source, target) pairs", value)
    targets: dict[str, str] = {}
    for source, target in value:
        source, target = checked_label(source, f"{key} source"), checked_label(target, f"{key} target")
        if "->" in source:  # a config line splits its pair at the first '->'
            raise ValidationError(f"{key} source {clipped(repr(source))} contains '->'")
        if targets.setdefault(source, target) != target:
            shown_pair = f"{clipped(repr(targets[source]))} and {clipped(repr(target))}"
            raise ValidationError(f"{key} maps {clipped(repr(source))} to both {shown_pair}")
    return tuple(sorted(targets.items()))


def _split_labels(raw: str) -> frozenset[str]:
    return frozenset(part for part in raw.split(",") if part.strip())


def _split_pairs(raw: str) -> tuple[tuple[str, str], ...]:
    entries = [entry.strip() for entry in raw.split(",") if entry.strip()]
    for entry in entries:
        if "->" not in entry:
            raise ValidationError(f"merge_table entry {clipped(repr(entry))} missing '->'")
    return tuple(tuple(entry.split("->", 1)) for entry in entries)


# Every config key, in file and hash order: the field it sets ("field.part"
# for a PerCategory part), the decoder of its text (int or float, read as
# plain ASCII, or a split), and its rule, the value's one check in code and
# on a config line alike, which returns the value to store.
_CONFIG_KEYS = {
    "d": ("d", int, COUNT),
    "k": ("k", int, COUNT),
    "stride": ("stride", int, POSITIVE),
    "p_o_action": ("p_o.action", int, POSITIVE),
    "p_o_held": ("p_o.held", int, POSITIVE),
    "p_o_salient": ("p_o.salient", int, POSITIVE),
    "p_l_action": ("p_l.action", int, COUNT),
    "p_l_held": ("p_l.held", int, COUNT),
    "p_l_salient": ("p_l.salient", int, COUNT),
    "l_action": ("context_lengths.action", int, COUNT),
    "l_held": ("context_lengths.held", int, COUNT),
    "l_salient": ("context_lengths.salient", int, COUNT),
    "theta_iou": ("theta_iou", float, FRACTION),
    "min_ttc": ("min_ttc", float, NON_NEGATIVE),
    "iou_thresh": ("iou_thresh", float, FRACTION),
    "t_delta": ("t_delta", float, NON_NEGATIVE),
    "vocab_noun": ("vocab_noun", _split_labels, _label_set),
    "vocab_verb": ("vocab_verb", _split_labels, _label_set),
    "generic_nouns": ("generic_nouns", _split_labels, _label_set),
    "merge_table": ("merge_table", _split_pairs, _merge_table),
}


def _config_value(cfg: SummarizerConfig, path: str):
    name, _, part = path.partition(".")
    value = getattr(cfg, name)
    if part and not isinstance(value, PerCategory):
        raise type_refusal(name, "a PerCategory", value)
    return getattr(value, part) if part else value


def load_config(path: str | Path) -> SummarizerConfig:
    """Parse a flat ``key=value`` config file; unspecified keys keep defaults.

    Each value is decoded from its text, then checked by its key's rule as in code. Unknown
    or repeated keys, numbers that are not plain ASCII and values that break their rule are
    errors naming ``path:line``. Blank lines and ``#`` comments are ignored.
    """
    seen: set[str] = set()
    fields: dict = {}
    for lineno, raw in read_lines(path):
        line = raw.strip()
        if line.startswith("#"):
            continue
        key, sep, text = (part.strip() for part in line.partition("="))
        try:
            if not sep:
                raise ValidationError(f"expected key=value, got {clipped(repr(line))}")
            if key not in _CONFIG_KEYS:
                raise ValidationError(f"unknown key {clipped(repr(key))}")
            if key in seen:
                raise ValidationError(f"duplicate key {key!r}")
            field_path, decode, rule = _CONFIG_KEYS[key]
            try:
                # int() and float() also take '_' separators and non-ASCII digits; JSON numbers do not
                if (decode is int or decode is float) and (not text.isascii() or "_" in text):
                    raise ValueError(text)
                value = decode(text)
            except ValueError:  # only int() and float() raise it
                raise ValidationError(f"key {key!r}: {clipped(text)!r} is not a plain ASCII {decode.__name__}") from None
            value = rule(value, key)
        except ValidationError as exc:
            raise ParseError(str(exc), line=lineno, path=str(path)) from None
        seen.add(key)
        name, _, part = field_path.partition(".")
        if part:  # a PerCategory part: the other parts keep their values so far
            group = fields.get(name, SummarizerConfig.__dataclass_fields__[name].default)
            value = dataclasses.replace(group, **{part: value})
        fields[name] = value
    return SummarizerConfig(**fields)


def serialize_config(cfg: SummarizerConfig) -> str:
    """Render a config back to the flat file format, deterministically.

    ``load_config`` on the result reproduces an equal config: a float is
    written in its shortest form that reads back exactly.
    """
    lines = []
    for key, (path, decode, _) in _CONFIG_KEYS.items():
        value = _config_value(cfg, path)
        if decode is _split_labels:
            value = ",".join(sorted(value))
        elif decode is _split_pairs:
            value = ",".join(f"{source}->{target}" for source, target in value)
        lines.append(f"{key}={value}\n")
    return "".join(lines)


def config_hash(cfg: SummarizerConfig) -> str:
    """Stable hex digest of a config, embedded in reports for provenance."""
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()[:16]


EMBEDDING_DIM = 300
# The largest squared norm an embedding vector may have. A mean of such
# vectors is no longer than the longest of them, so no norm computed from
# them overflows; a vector with a non-finite value fails the same bound.
MAX_SQUARED_NORM = 1e300


class EmbeddingTable:
    """Word -> 300-d vector lookup, case-insensitive on lowercase words.

    ``vectors`` is a mapping or ``(word, vector)`` entries, each checked as it
    is added: a word is a string, a vector an array or list of numbers. When
    ``words`` is given, only those words' vectors are kept; a dropped row is
    entered as None, so a repeat of its word is still found.
    """

    def __init__(
        self,
        vectors: Mapping[str, np.ndarray] | Iterable[tuple[str, np.ndarray | list[float]]],
        words: Iterable[str] | None = None,
    ):
        keep = None if words is None else {normalize_label(word) for word in words}
        self._table: dict[str, np.ndarray | None] = {}
        for word, vector in vectors.items() if isinstance(vectors, Mapping) else vectors:
            self._add(word, vector, keep)
        if not self._table:
            raise ValidationError("no embeddings")

    def _add(self, word: str, vector: np.ndarray | list[float], keep: Container[str] | None) -> None:
        checked_text(word, "word")
        try:
            # np.array would also convert strings and bools
            if not (vector.dtype.kind in "fiu" if isinstance(vector, np.ndarray)
                    else isinstance(vector, (list, tuple)) and all(map(_is_number, vector))):
                raise TypeError
            array = np.array(vector, dtype=np.float64)  # the table's own copy
        except (TypeError, OverflowError):  # a value that is no number, or an int beyond the float range
            raise ValidationError(f"vector for {clipped(repr(word))} does not convert to an array of floats") from None
        if array.shape != (EMBEDDING_DIM,):
            raise ValidationError(
                f"vector for {clipped(repr(word))} has shape {array.shape}, expected ({EMBEDDING_DIM},)"
            )
        with np.errstate(over="ignore"):  # an overflowing squared norm is inf, which fails the bound
            if not array @ array <= MAX_SQUARED_NORM:
                raise ValidationError(
                    f"vector for {clipped(repr(word))} is not finite or its squared norm exceeds {MAX_SQUARED_NORM:g}"
                )
        key = normalize_label(word)
        if not key:
            raise ValidationError(f"empty word {clipped(repr(word))}")
        if key in self._table:
            raise ValidationError(f"duplicate word: {clipped(repr(word))} repeats the word {clipped(repr(key))}")
        if keep is None or key in keep:
            array.setflags(write=False)
            self._table[key] = array
        else:
            self._table[key] = None

    def __len__(self) -> int:
        return len(self._table)

    def lookup(self, word: str) -> np.ndarray | None:
        """``word``'s vector, or None when the table has no such word.

        A word whose row was dropped (not in ``words``) raises ``InvariantError``:
        its vector exists, so counting it as missing would change a score.
        """
        key = normalize_label(word)
        vector = self._table.get(key)
        if vector is None and key in self._table:
            raise InvariantError(f"embedding row for {clipped(repr(key))} was dropped at load")
        return vector


def load_embeddings(path: str | Path, words: Iterable[str] | None = None) -> EmbeddingTable:
    """Load a tab-separated embedding file: ``word<TAB>v1<TAB>...<TAB>v300``.

    Values are plain ASCII numbers, and each line is an ``EmbeddingTable``
    entry; any other line is a ``ParseError`` at its ``path:line``. Every
    line is checked, but when ``words`` is given only the vectors of those
    words are kept: looking up another word of the file raises ``InvariantError``.
    """
    lineno = 0

    def entries() -> Iterator[tuple[str, np.ndarray]]:
        nonlocal lineno
        for lineno, line in read_lines(path):
            parts = line.split("\t")
            # float() also takes '_' separators and non-ASCII digits: one scan of
            # all the values, not a check per value, rules them out
            values = line[len(parts[0]):]
            if not values.isascii() or "_" in values:
                raise ValidationError("embedding values must be plain ASCII numbers")
            yield parts[0], np.array([float(p) for p in parts[1:]], dtype=np.float64)

    try:
        return EmbeddingTable(entries(), words)
    except ParseError:  # read_lines' own, already at its line
        raise
    except (ValueError, ValidationError) as exc:  # ValueError: a value that is not a number
        if not lineno:
            raise ValidationError(f"{path}: {exc}") from None
        raise ParseError(str(exc), line=lineno, path=str(path)) from None
