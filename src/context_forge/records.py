"""Line-delimited record formats shared by the CLI and tests.

All files are UTF-8, one JSON object per line. Writers are
deterministic: keys are sorted and separators fixed, so identical data
produces byte-identical files.

frames:   {"video_id", "frame_id", "captions": [[{"surface","lemma","pos"}...]],
           "label_scores": {label: score}, "active_boxes": [[x1,y1,x2,y2]...],
           "detections": [{"label","box","score"}...]}
preds/gt: {"video_id", "frame_id", "entries": [{"box","noun","verb","ttc","score"?}]}
contexts: {"video_id", "frame_id", "text", "action_terms": [[verb,noun]...],
           "held": [...], "salient": [...]}

Every reader decodes one line at a time with ``_object``,
and every field through ``_get``/``_as``, which decode strictly: an
integer is a JSON integer, a number is a finite JSON number (never a
string, a boolean or null), and lists and objects are type-checked
before they are read. Strings must be valid Unicode: invalid UTF-8 and
escaped lone surrogates are rejected. The readers check only JSON shape
and type: the value types they build apply the rest, the label rule
(``core.checked_label``) included. Beyond that, a ground-truth ``ttc``
may not fall below the config's ``min_ttc``, and a context's text must
equal the ``assemble`` rendering of its terms, after ``normalize_label``
of both. A (video_id, frame_id) key appears at most once per file, its
frame id is not negative, and a frames file keeps each video's lines
together. Any malformed line raises ``ParseError`` naming ``path:line``.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from typing import Callable, Iterable, Iterator, TypeVar

from .assembly import assemble
from .core import (
    ActionContext,
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
    clipped,
    normalize_label,
    read_lines,
)

FrameKey = tuple[str, int]
T = TypeVar("T")

_REQUIRED = object()
_KINDS = {int: "an integer", float: "a finite number", str: "a string", list: "a list", dict: "an object"}
_POS_TAGS = {tag.value: tag for tag in PosTag}
_MAX_FLOAT_INT = int(sys.float_info.max)


def dumps_record(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _as(value, kind: type, what: str):
    """Check one decoded JSON value against ``kind``: int, float, str, list or dict.

    JSON decoding yields exact types, so ``type(value) is kind`` rejects
    booleans where integers or numbers are expected. A float also takes
    a JSON integer, but never a non-finite value.
    """
    if type(value) is kind:
        if kind is not float or math.isfinite(value):
            return value
    elif kind is float and type(value) is int and abs(value) <= _MAX_FLOAT_INT:
        return float(value)
    raise ValidationError(f"{what} must be {_KINDS[kind]}, got {clipped(json.dumps(value))}")


def _get(obj: dict, key: str, kind: type, default=_REQUIRED):
    """``obj[key]`` checked by ``_as``; ``default`` (unchecked) when the key is absent."""
    if key not in obj:
        if default is _REQUIRED:
            raise ValidationError(f"missing field {key!r}")
        return default
    value = obj[key]
    # the common case inline: this runs for nearly every field of every line
    if type(value) is kind and (kind is not float or math.isfinite(value)):
        return value
    return _as(value, kind, key)


def _object(line: str) -> dict:
    """Decode one line as one JSON object; anything else raises ``ValidationError``."""
    try:
        obj = json.loads(line)
        if "\\u" in line:  # an escape may spell a lone surrogate, which UTF-8 cannot encode
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
        return _as(obj, dict, "record")
    except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
        raise ValidationError(f"invalid JSON: {getattr(exc, 'msg', exc)}") from None


def _read_keyed(path: str, decode: Callable[[dict], T]) -> dict[FrameKey, T]:
    """Read a file keyed by (video_id, frame_id); ``decode(obj)`` gives each value."""
    out: dict[FrameKey, T] = {}
    for lineno, line in read_lines(path):
        try:
            obj = _object(line)
            key = (_get(obj, "video_id", str), checked_frame_id(_get(obj, "frame_id", int)))
            if key in out:
                raise ValidationError(f"duplicate frame {clipped(key[0])}:{key[1]}")
            out[key] = decode(obj)
        except ValidationError as exc:
            raise ParseError(str(exc), line=lineno, path=path) from None
    return out


def _box(coords: list) -> BoundingBox:
    if len(coords) != 4:
        raise ValidationError(f"box must be [x1, y1, x2, y2], got {len(coords)} values")
    # BoundingBox rejects non-finite coordinates itself
    return BoundingBox(*[v if type(v) is float else _as(v, float, "box coordinate") for v in coords])


def _labels(values: list) -> list[str]:
    """Context labels, each checked to be a string; ``ActionPair`` and ``assemble`` apply the label rule."""
    return [v if type(v) is str else _as(v, str, "label") for v in values]


@functools.lru_cache(maxsize=256)
def _tagged(lemma: str, surface: str, pos: str) -> TaggedToken:
    """The caption token read as ``(lemma, surface, pos)``, shared with the equal ones read recently.

    The memo holds the last 256 distinct tokens, so its memory is bounded
    whatever the input. A token that fails ``TaggedToken``'s checks raises
    and is never stored, so a hit is a token that passed the same checks.
    """
    return TaggedToken(surface, lemma, _POS_TAGS[pos])


def _token(value) -> TaggedToken:
    tok = _as(value, dict, "caption token")
    pos = _get(tok, "pos", str)
    if pos not in _POS_TAGS:
        raise ValidationError(f"pos must be one of {', '.join(_POS_TAGS)}, got {clipped(repr(pos))}")
    return _tagged(_get(tok, "lemma", str), _get(tok, "surface", str), pos)


def _detection(value) -> tuple[str, BoundingBox, float]:
    det = _as(value, dict, "detection")
    return _get(det, "label", str), _box(_get(det, "box", list)), _get(det, "score", float)


def _frame_record(obj: dict) -> FrameRecord:
    """The record of one line that ``_frame_lines`` has checked: it read ``video_id`` and ``frame_id``."""
    return FrameRecord(
        video_id=obj["video_id"],
        frame_id=obj["frame_id"],
        captions=tuple([
            tuple([_token(tok) for tok in _as(caption, list, "caption")])
            for caption in _get(obj, "captions", list, ())
        ]),
        label_scores={
            label: _as(score, float, "label score")
            for label, score in _get(obj, "label_scores", dict, {}).items()
        },
        active_boxes=tuple([_box(_as(b, list, "active box")) for b in _get(obj, "active_boxes", list, ())]),
        detections=tuple([_detection(det) for det in _get(obj, "detections", list, ())]),
    )


def _frame_lines(lines: Iterable[tuple[int, str]], path: str) -> Iterator[tuple[int, str, dict, bool]]:
    """(line number, line, object, whether the line starts a video) per frames line.

    The one place for a frames file's structure: each line is one JSON
    object with a string ``video_id`` and an integer ``frame_id``, a video's
    lines are contiguous and its frame ids distinct. A line that breaks a
    rule raises ``ParseError`` at that line; the other fields are left to
    ``_frame_record``.
    """
    finished: set[str | None] = set()
    frame_ids: set[int] = set()
    video_id = None
    for lineno, line in lines:
        try:
            obj = _object(line)
            line_video = _get(obj, "video_id", str)
            starts = line_video != video_id
            if starts:
                if line_video in finished:
                    raise ValidationError(f"frames for video {clipped(repr(line_video))} are not contiguous")
                finished.add(video_id)
                frame_ids.clear()
                video_id = line_video
            frame_id = _get(obj, "frame_id", int)
            if frame_id in frame_ids:
                raise ValidationError(f"video {clipped(repr(video_id))}: duplicate frame id {frame_id}")
            frame_ids.add(frame_id)
        except ValidationError as exc:
            raise ParseError(str(exc), line=lineno, path=path) from None
        yield lineno, line, obj, starts


def _frame_records(lines: Iterable[tuple[int, str]], path: str) -> Iterator[FrameRecord]:
    """Decode the numbered lines of a frames file, ``path`` naming them in errors."""
    for lineno, _, obj, _ in _frame_lines(lines, path):
        try:
            record = _frame_record(obj)
        except ValidationError as exc:
            raise ParseError(str(exc), line=lineno, path=path) from None
        yield record


def read_frame_records(path: str) -> Iterator[FrameRecord]:
    """Stream a frames file's records, one line at a time (see ``_frame_records``)."""
    return _frame_records(read_lines(path), path)


FrameGroup = tuple[list[tuple[int, str]], Exception | None]


def frame_groups(path: str) -> Iterator[FrameGroup]:
    """Split a frames file into one group per video, for ``read_group`` to decode elsewhere.

    A group is the video's numbered non-blank lines and ``None``. Each line
    is checked here by ``_frame_lines`` (JSON, ``video_id``, ``frame_id``,
    contiguous videos, distinct frame ids), and ``read_group`` parses it
    again to decode the record. A line that fails here ends the split: the
    last group holds the lines of its unfinished video and the error, which
    ``read_group`` raises after decoding those lines. Groups read in order
    thus raise the first bad line in file order, as ``read_frame_records`` does.
    """
    lines: list[tuple[int, str]] = []
    try:
        for lineno, line, _, starts in _frame_lines(read_lines(path), path):
            if starts and lines:
                yield lines, None
                lines = []
            lines.append((lineno, line))
    except (ParseError, OSError) as exc:
        yield lines, exc
        return
    if lines:
        yield lines, None


def read_group(group: FrameGroup, path: str) -> Iterator[FrameRecord]:
    """Decode one video's group from ``frame_groups`` line by line, then raise its error if it has one."""
    lines, error = group
    yield from _frame_records(lines, path)
    if error is not None:
        raise error


def frame_record_to_dict(record: FrameRecord) -> dict:
    return {
        "video_id": record.video_id,
        "frame_id": record.frame_id,
        "captions": [
            [{"surface": t.surface, "lemma": t.lemma, "pos": t.pos.value} for t in caption]
            for caption in record.captions
        ],
        "label_scores": dict(sorted(record.label_scores.items())),
        "active_boxes": [list(b.as_tuple()) for b in record.active_boxes],
        "detections": [
            {"label": label, "box": list(box.as_tuple()), "score": score}
            for label, box, score in record.detections
        ],
    }


def write_frame_records(path: str, records: Iterable[FrameRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(dumps_record(frame_record_to_dict(record)) + "\n")


def _entries(obj: dict) -> Iterator[dict]:
    return (_as(entry, dict, "entry") for entry in _get(obj, "entries", list))


def _label(entry: dict, key: str, labels: dict[str, str]) -> str:
    """An entry's normalized noun or verb, as the one string ``labels`` holds for it.

    Each entries reader passes one ``labels`` for the length of its call, so
    its entries share one string per distinct label (not ``sys.intern``: on
    Python 3.12, released interned strings stay allocated). It maps each
    label read so far, as read and as normalized, to that string, so a label
    seen before is not normalized again. ``ObjectInteraction`` applies the label rule.
    """
    raw = _get(entry, key, str)
    label = labels.get(raw)
    if label is None:
        label = normalize_label(raw)
        label = labels[raw] = labels.setdefault(label, label)
    return label


def _interaction(entry: dict, labels: dict[str, str]) -> ObjectInteraction:
    return ObjectInteraction(
        box=_box(_get(entry, "box", list)),
        noun=_label(entry, "noun", labels),
        verb=_label(entry, "verb", labels),
        ttc=_get(entry, "ttc", float),
    )


def read_predictions(path: str) -> dict[FrameKey, list[Prediction]]:
    labels: dict[str, str] = {}

    def predictions(obj: dict) -> list[Prediction]:
        return [Prediction(_interaction(e, labels), _get(e, "score", float)) for e in _entries(obj)]

    return _read_keyed(path, predictions)


def read_ground_truth(path: str, *, min_ttc: float) -> dict[FrameKey, list[ObjectInteraction]]:
    labels: dict[str, str] = {}

    def ground_truth(obj: dict) -> list[ObjectInteraction]:
        gts = [_interaction(e, labels) for e in _entries(obj)]
        for gt in gts:
            if gt.ttc < min_ttc:
                raise ValidationError(f"time to contact {gt.ttc} below minimum {min_ttc}")
        return gts

    return _read_keyed(path, ground_truth)


def _entry_dict(interaction: ObjectInteraction) -> dict:
    return {
        "box": list(interaction.box.as_tuple()),
        "noun": interaction.noun,
        "verb": interaction.verb,
        "ttc": interaction.ttc,
    }


def _write_entries(path: str, grouped: dict[FrameKey, list], entry_dict: Callable[..., dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for video_id, frame_id in sorted(grouped):
            entries = [entry_dict(item) for item in grouped[(video_id, frame_id)]]
            fh.write(dumps_record({"video_id": video_id, "frame_id": frame_id, "entries": entries}) + "\n")


def write_predictions(path: str, preds: dict[FrameKey, list[Prediction]]) -> None:
    _write_entries(path, preds, lambda p: dict(_entry_dict(p.interaction), score=p.score))


def write_ground_truth(path: str, gts: dict[FrameKey, list[ObjectInteraction]]) -> None:
    _write_entries(path, gts, _entry_dict)


def context_to_dict(video_id: str, frame_id: int, ctx: ActionContext) -> dict:
    return {
        "video_id": video_id,
        "frame_id": frame_id,
        "text": ctx.text,
        "action_terms": [[p.verb, p.noun] for p in ctx.action_segments],
        "held": list(ctx.held_objects),
        "salient": list(ctx.salient_objects),
    }


def _action_pair(value) -> ActionPair:
    pair = _as(value, list, "action term")
    if len(pair) != 2:
        raise ValidationError(f"action term must be [verb, noun], got {len(pair)} items")
    verb, noun = _labels(pair)
    return ActionPair(verb=verb, noun=noun)


def _context(obj: dict) -> ActionContext:
    context = assemble(
        [_action_pair(p) for p in _get(obj, "action_terms", list)],
        _labels(_get(obj, "held", list)),
        _labels(_get(obj, "salient", list)),
    )
    text = _get(obj, "text", str)
    if normalize_label(text) != normalize_label(context.text):
        raise ValidationError(
            f"text {clipped(repr(text))} does not match its fields, which render as {clipped(repr(context.text))}"
        )
    return context


def read_contexts(path: str) -> dict[FrameKey, ActionContext]:
    return _read_keyed(path, _context)
