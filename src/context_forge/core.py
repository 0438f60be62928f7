"""Core domain types, configuration, and shared assets.

Everything in here is immutable after construction and safe to share
between worker processes. Labels and lemmas are normalized to lowercase,
whitespace-collapsed strings; membership checks are exact string matches
after normalization.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterator, Mapping, Union

import numpy as np


class ContextForgeError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ContextForgeError):
    """A value violates a documented invariant (CLI exit code 1)."""


class ParseError(ValidationError):
    """An input document could not be parsed; carries a line number."""

    def __init__(self, message: str, line: int | None = None, path: str | None = None):
        self.line = line
        self.path = path
        prefix = ""
        if path is not None:
            prefix += f"{path}:"
        if line is not None:
            prefix += f"line {line}: "
        super().__init__(prefix + message)


class ShapeError(ValidationError):
    """Tensor dimensions are inconsistent with the declared contract."""


class InvariantError(ContextForgeError):
    """An internal invariant failed (CLI exit code 3)."""


def normalize_label(label: str) -> str:
    """Lowercase and collapse internal whitespace: ' Pressure  Cooker ' -> 'pressure cooker'."""
    return " ".join(label.lower().split())


def check_label(label: str) -> str:
    """Return ``label``, refusing the context-text separators "," and ";"."""
    if "," in label or ";" in label:
        raise ValidationError(f"label {label!r} contains a reserved separator")
    return label


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield (line number, line without its line break) for each line of a UTF-8 file.

    Lines are decoded one at a time, so invalid UTF-8 is a ``ParseError`` at its line.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"invalid UTF-8: {exc.reason}", line=lineno, path=str(path)) from None
            yield lineno, line.rstrip("\r\n")


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValidationError(f"{name}: non-finite coordinate {v!r}")


class Category(Enum):
    """The three context categories carried through the pipeline."""

    ACTION = "action"
    HELD = "held"
    SALIENT = "salient"


class PosTag(Enum):
    VERB = "VERB"
    NOUN = "NOUN"
    OTHER = "OTHER"


@dataclass(frozen=True)
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
        _require_finite("BoundingBox", self.x1, self.y1, self.x2, self.y2)
        if min(self.x1, self.y1, self.x2, self.y2) < 0:
            raise ValidationError(f"BoundingBox: negative coordinate in {self.as_tuple()}")
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise ValidationError(f"BoundingBox: empty or inverted box {self.as_tuple()}")

    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


@dataclass(frozen=True)
class ObjectInteraction:
    """Ground-truth tuple for one upcoming interaction: box, noun, verb, seconds to contact."""

    box: BoundingBox
    noun: str
    verb: str
    ttc: float

    def __post_init__(self) -> None:
        _require_finite("ObjectInteraction.ttc", self.ttc)
        if self.ttc < 0:
            raise ValidationError(f"ObjectInteraction: negative time to contact {self.ttc}")
        object.__setattr__(self, "noun", normalize_label(self.noun))
        object.__setattr__(self, "verb", normalize_label(self.verb))
        if not self.noun or not self.verb:
            raise ValidationError("ObjectInteraction: empty noun or verb label")


@dataclass(frozen=True)
class Prediction:
    """One scored model output for a frame."""

    interaction: ObjectInteraction
    score: float
    frame_id: int

    def __post_init__(self) -> None:
        _require_finite("Prediction.score", self.score)
        if not (0.0 <= self.score <= 1.0):
            raise ValidationError(f"Prediction: score {self.score} outside [0, 1]")


@dataclass(frozen=True)
class TaggedToken:
    """A caption token with its lemma and a coarse part-of-speech tag.

    Tokens arrive pre-tagged; no tagging or lemmatization happens here.
    """

    surface: str
    lemma: str
    pos: PosTag

    def __post_init__(self) -> None:
        if not self.lemma:
            raise ValidationError("TaggedToken: empty lemma")
        if not isinstance(self.pos, PosTag):
            raise ValidationError(f"TaggedToken: bad part-of-speech tag {self.pos!r}")


@dataclass(frozen=True)
class ActionPair:
    """A (verb, noun) lemma pair describing one atomic action."""

    verb: str
    noun: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "verb", normalize_label(self.verb))
        object.__setattr__(self, "noun", normalize_label(self.noun))
        if not self.verb or not self.noun:
            raise ValidationError("ActionPair: empty verb or noun lemma")

    def render(self) -> str:
        return f"{self.verb} {self.noun}"


Term = Union[ActionPair, str]


def term_text(term: Term) -> str:
    """Canonical textual form of a segment term, used for rendering and tie-breaks."""
    return term.render() if isinstance(term, ActionPair) else term


@dataclass(frozen=True)
class FrameRecord:
    """One frame's ingested raw signals. Any field may be empty; sparse input is legal."""

    video_id: str
    frame_id: int
    captions: tuple[tuple[TaggedToken, ...], ...] = ()
    label_scores: Mapping[str, float] = field(default_factory=dict)
    active_boxes: tuple[BoundingBox, ...] = ()
    detections: tuple[tuple[str, BoundingBox, float], ...] = ()

    def __post_init__(self) -> None:
        if self.frame_id < 0:
            raise ValidationError(f"FrameRecord: negative frame_id {self.frame_id}")
        for label, score in self.label_scores.items():
            _require_finite(f"label score for {label!r}", score)
            if not (-1.0 <= score <= 1.0):
                raise ValidationError(f"FrameRecord: score {score} for {label!r} outside [-1, 1]")


@dataclass(frozen=True)
class Segment:
    """A contiguous run of one term accepted by the cross-frame aggregation."""

    category: Category
    term: Term
    start_frame: int
    end_frame: int
    occurrences: int
    active: bool

    def __post_init__(self) -> None:
        if self.start_frame > self.end_frame:
            raise ValidationError(
                f"Segment: start {self.start_frame} after end {self.end_frame}"
            )
        if self.occurrences < 1:
            raise ValidationError(f"Segment: occurrence count {self.occurrences} < 1")

    def overlaps(self, other: "Segment") -> bool:
        return self.start_frame <= other.end_frame and other.start_frame <= self.end_frame


@dataclass(frozen=True)
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
    """All pipeline knobs with their reference operating-point defaults.

    Empty vocabularies and merge tables disable the corresponding
    filtering entirely (the unfiltered operating mode); non-empty sets
    enforce exact membership after label normalization. ``window`` and
    ``box_loss_lambda`` are validated and hashed, but nothing reads them.
    """

    d: int = 4
    k: int = 5
    theta_iou: float = 0.25
    p_o: PerCategory = PerCategory(action=1, held=7, salient=10)
    p_l: PerCategory = PerCategory(action=7, held=7, salient=7)
    stride: int = 3
    window: int = 150
    context_lengths: PerCategory = PerCategory(action=3, held=3, salient=3)
    min_ttc: float = 0.033
    iou_thresh: float = 0.5
    t_delta: float = 0.25
    box_loss_lambda: float = 11.0
    vocab_noun: frozenset[str] = frozenset()
    vocab_verb: frozenset[str] = frozenset()
    generic_nouns: frozenset[str] = frozenset()
    merge_table: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        _validate_config(self)

    # Extraction reads these lookups for every processed frame, so each is
    # built once per config. The cache is not a field: equality, hashing
    # and serialize_config ignore it.

    def merge_map(self) -> dict[str, str]:
        """Merge table as a source -> target lookup, shared by all callers: do not mutate."""
        return self._merge_map

    def action_noun_vocab(self) -> frozenset[str]:
        """Noun domain admitted into action pairs: configured nouns plus generics."""
        return self._action_noun_vocab

    @cached_property
    def _merge_map(self) -> dict[str, str]:
        return dict(self.merge_table)

    @cached_property
    def _action_noun_vocab(self) -> frozenset[str]:
        if not self.vocab_noun:
            return frozenset()
        return self.vocab_noun | self.generic_nouns


def _at_least(low: float):
    return lambda value: value >= low


def _parse_label_set(raw: str) -> frozenset[str]:
    return frozenset(check_label(normalize_label(p)) for p in raw.split(",") if p.strip())


def _parse_merge_table(raw: str) -> tuple[tuple[str, str], ...]:
    pairs = []
    for chunk in raw.split(","):
        if not chunk.strip():
            continue
        if "->" not in chunk:
            raise ValidationError(f"merge_table entry {chunk.strip()!r} missing '->'")
        src, dst = chunk.split("->", 1)
        src, dst = check_label(normalize_label(src)), check_label(normalize_label(dst))
        if not src or not dst:
            raise ValidationError(f"merge_table entry {chunk.strip()!r} has an empty side")
        pairs.append((src, dst))
    seen: dict[str, str] = {}
    for src, dst in pairs:
        if src in seen and seen[src] != dst:
            raise ValidationError(f"config: merge_table maps {src!r} to both {seen[src]!r} and {dst!r}")
        seen[src] = dst
    return tuple(sorted(seen.items()))


# Every config key, in file and hash order: the field it sets
# ("field.part" for a PerCategory part), its parser (int, float or a
# text parser) and its range (None: any parsed value).
_CONFIG_KEYS = {
    "d": ("d", int, _at_least(0)),
    "k": ("k", int, _at_least(0)),
    "stride": ("stride", int, _at_least(1)),
    "window": ("window", int, _at_least(1)),
    "p_o_action": ("p_o.action", int, _at_least(1)),
    "p_o_held": ("p_o.held", int, _at_least(1)),
    "p_o_salient": ("p_o.salient", int, _at_least(1)),
    "p_l_action": ("p_l.action", int, _at_least(0)),
    "p_l_held": ("p_l.held", int, _at_least(0)),
    "p_l_salient": ("p_l.salient", int, _at_least(0)),
    "l_action": ("context_lengths.action", int, _at_least(0)),
    "l_held": ("context_lengths.held", int, _at_least(0)),
    "l_salient": ("context_lengths.salient", int, _at_least(0)),
    "theta_iou": ("theta_iou", float, lambda value: 0 <= value <= 1),
    "min_ttc": ("min_ttc", float, _at_least(0)),
    "iou_thresh": ("iou_thresh", float, lambda value: 0 <= value <= 1),
    "t_delta": ("t_delta", float, _at_least(0)),
    "box_loss_lambda": ("box_loss_lambda", float, lambda value: value > 0),
    "vocab_noun": ("vocab_noun", _parse_label_set, None),
    "vocab_verb": ("vocab_verb", _parse_label_set, None),
    "generic_nouns": ("generic_nouns", _parse_label_set, None),
    "merge_table": ("merge_table", _parse_merge_table, None),
}


def _config_value(cfg: SummarizerConfig, path: str):
    name, _, part = path.partition(".")
    value = getattr(cfg, name)
    return getattr(value, part) if part else value


def _check_range(key: str, ok, value) -> None:
    if ok is not None and not ok(value):
        raise ValidationError(f"config: {key}={value!r} out of range")


def _round_trips(parse, value) -> bool:
    try:
        return parse(_render_config_value(parse, value)) == value
    except (TypeError, ValueError, ValidationError):  # a value that does not render, or renders unparsable
        return False


def _validate_config(cfg: SummarizerConfig) -> None:
    # serialize_config must render what load_config reads back: numbers of
    # the exact type, and text values that parse back to themselves
    for key, (path, parse, ok) in _CONFIG_KEYS.items():
        value = _config_value(cfg, path)
        if parse in (int, float):
            if type(value) is not parse:
                raise ValidationError(f"config: {key}={value!r} is not of type {parse.__name__}")
        elif not _round_trips(parse, value):
            raise ValidationError(f"config: {key}={value!r} does not read back from its serialized form")
        _check_range(key, ok, value)


def _parse_config_line(key: str, raw: str):
    if key not in _CONFIG_KEYS:
        raise ValidationError(f"unknown key {key!r}")
    _, parse, ok = _CONFIG_KEYS[key]
    if parse is int or parse is float:
        try:
            value = parse(raw)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValidationError(f"key {key!r}: {raw!r} is not a finite {parse.__name__}")
    else:
        value = parse(raw)
    _check_range(key, ok, value)
    return value


def load_config(path: str | Path) -> SummarizerConfig:
    """Parse a flat ``key=value`` config file; unspecified keys keep defaults.

    Unknown keys are errors, and so are numbers that are not finite or
    out of range; each names its ``path:line``. Blank lines and ``#``
    comments are ignored.
    """
    seen: set[str] = set()
    fields: dict = {}
    for lineno, raw in read_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        try:
            if not sep:
                raise ValidationError(f"expected key=value, got {line!r}")
            if key in seen:
                raise ValidationError(f"duplicate key {key!r}")
            value = _parse_config_line(key, value)
        except ValidationError as exc:
            raise ParseError(str(exc), line=lineno, path=str(path)) from None
        seen.add(key)
        name, _, part = _CONFIG_KEYS[key][0].partition(".")
        if part:  # a PerCategory part: the other parts keep their values so far
            group = fields.get(name, SummarizerConfig.__dataclass_fields__[name].default)
            value = dataclasses.replace(group, **{part: value})
        fields[name] = value
    return SummarizerConfig(**fields)


def _render_config_value(parse, value) -> str:
    if parse is _parse_label_set:
        return ",".join(sorted(value))
    if parse is _parse_merge_table:
        return ",".join(f"{s}->{d}" for s, d in value)
    return repr(value) if parse is float else f"{value}"


def serialize_config(cfg: SummarizerConfig) -> str:
    """Render a config back to the flat file format, deterministically.

    ``load_config`` on the result reproduces an equal config; ``repr`` is
    used for floats so values round-trip exactly.
    """
    return "".join(
        f"{key}={_render_config_value(parse, _config_value(cfg, path))}\n"
        for key, (path, parse, _) in _CONFIG_KEYS.items()
    )


def config_hash(cfg: SummarizerConfig) -> str:
    """Stable hex digest of a config, embedded in reports for provenance."""
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()[:16]


EMBEDDING_DIM = 300


class EmbeddingTable:
    """Word -> 300-d vector lookup, case-insensitive on lowercase words."""

    def __init__(self, vectors: Mapping[str, np.ndarray]):
        if not vectors:
            raise ValidationError("EmbeddingTable: empty table")
        table: dict[str, np.ndarray] = {}
        for word, vec in vectors.items():
            arr = np.asarray(vec, dtype=np.float64)
            if arr.shape != (EMBEDDING_DIM,):
                raise ValidationError(
                    f"EmbeddingTable: vector for {word!r} has shape {arr.shape}, "
                    f"expected ({EMBEDDING_DIM},)"
                )
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"EmbeddingTable: non-finite vector for {word!r}")
            key = normalize_label(word)
            if not key:
                raise ValidationError(f"EmbeddingTable: empty word {word!r}")
            if key in table:
                raise ValidationError(f"EmbeddingTable: {word!r} repeats the word {key!r}")
            arr.setflags(write=False)
            table[key] = arr
        self._table = table

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, word: str) -> bool:
        return normalize_label(word) in self._table

    def lookup(self, word: str) -> np.ndarray | None:
        return self._table.get(normalize_label(word))


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Load a tab-separated embedding file: ``word<TAB>v1<TAB>...<TAB>v300``."""
    vectors: dict[str, np.ndarray] = {}
    for lineno, line in read_lines(path):
        if not line:
            continue
        parts = line.split("\t")
        word = normalize_label(parts[0])
        try:
            if len(parts) != EMBEDDING_DIM + 1:
                raise ValidationError(f"expected word + {EMBEDDING_DIM} values, got {len(parts)} fields")
            if not word:
                raise ValidationError("empty word")
            if word in vectors:
                raise ValidationError(f"duplicate word {word!r}")
            values = [float(p) for p in parts[1:]]
            # a finite sum proves every value finite; only a non-finite one needs the full check
            if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
                raise ValidationError("non-finite embedding value")
        except (ValueError, ValidationError) as exc:  # ValueError: a value that is not a number
            raise ParseError(str(exc), line=lineno, path=str(path)) from None
        vectors[word] = np.array(values, dtype=np.float64)
    return EmbeddingTable(vectors)
