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

Every reader decodes one line at a time with ``_object``, and checks only
JSON structure through ``_get``/``_as``: objects, required keys, lists, and
the strings it uses itself (a ``video_id`` it keys by, the token fields
``_tagged`` hashes, a context's ``text``). Every other scalar goes as
decoded to the value type that holds it, whose field rules (``core``'s
``checked_*`` and ``in_range``) check it once. Strings must be valid
Unicode: invalid UTF-8 and escaped lone surrogates are rejected. Beyond
that, a ground-truth ``ttc`` is in range ``[min_ttc, inf]``, and a context's
text must equal the ``assemble`` rendering of its terms, after
``normalize_label`` of both. A (video_id, frame_id) key appears at most
once per file, and a frames file keeps each video's lines together. Any
malformed line raises ``ParseError`` naming ``path:line``.
"""

from __future__ import annotations

import functools
import json
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
    checked_number,
    clipped,
    in_range,
    normalize_label,
    read_lines,
    shown,
    type_refusal,
)

FrameKey = tuple[str, int]
T = TypeVar("T")

_REQUIRED = object()
_KINDS = {str: "a string", list: "a list", dict: "an object"}
_POS_TAGS = {tag.value: tag for tag in PosTag}


def dumps_record(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _as(value, kind: type, what: str):
    """``value``, a decoded JSON value, refused unless it is of type ``kind``: str, list or dict."""
    if type(value) is kind:
        return value
    raise type_refusal(what, _KINDS[kind], value)


def _get(obj: dict, key: str, kind: type | None = None, default=_REQUIRED):
    """``obj[key]``, checked by ``_as`` when ``kind`` is given; ``default`` (unchecked) when the key is absent."""
    if key not in obj:
        if default is _REQUIRED:
            raise ValidationError(f"missing field {key!r}")
        return default
    value = obj[key]
    # the common case inline: this runs for nearly every field of every line
    if kind is None or type(value) is kind:
        return value
    raise type_refusal(key, _KINDS[kind], value)


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
            key = (_get(obj, "video_id", str), checked_frame_id(_get(obj, "frame_id")))
            if key in out:
                raise ValidationError(f"duplicate frame {clipped(key[0])}:{shown(key[1])}")
            out[key] = decode(obj)
        except ValidationError as exc:
            raise ParseError(str(exc), line=lineno, path=path) from None
    return out


def _box(coords: list) -> BoundingBox:
    if len(coords) != 4:
        raise ValidationError(f"box must be [x1, y1, x2, y2], got {len(coords)} values")
    return BoundingBox(*coords)


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
    return _get(det, "label"), _box(_get(det, "box", list)), _get(det, "score")


def _frame_record(obj: dict) -> FrameRecord:
    """The record of one line that ``_frame_lines`` has checked: it read ``video_id`` and ``frame_id``."""
    return FrameRecord(
        video_id=obj["video_id"],
        frame_id=obj["frame_id"],
        captions=tuple([
            tuple([_token(tok) for tok in _as(caption, list, "caption")])
            for caption in _get(obj, "captions", list, ())
        ]),
        label_scores=_get(obj, "label_scores", dict, {}),
        active_boxes=tuple([_box(_as(b, list, "active box")) for b in _get(obj, "active_boxes", list, ())]),
        detections=tuple([_detection(det) for det in _get(obj, "detections", list, ())]),
    )


def _frame_lines(lines: Iterable[tuple[int, str]], path: str) -> Iterator[tuple[int, str, dict, bool]]:
    """(line number, line, object, whether the line starts a video) per frames line.

    The one place for a frames file's structure: each line is one JSON
    object with a string ``video_id`` and a ``checked_frame_id``, a video's
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
            frame_id = checked_frame_id(_get(obj, "frame_id"))
            if frame_id in frame_ids:
                raise ValidationError(f"video {clipped(repr(video_id))}: duplicate frame id {shown(frame_id)}")
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


def _interaction(entry: dict) -> ObjectInteraction:
    # the labels go as read: checked_label shares one string per normalized label
    return ObjectInteraction(
        box=_box(_get(entry, "box", list)),
        noun=_get(entry, "noun"),
        verb=_get(entry, "verb"),
        ttc=_get(entry, "ttc"),
    )


def _predictions(obj: dict) -> list[Prediction]:
    return [Prediction(_interaction(e), _get(e, "score")) for e in _entries(obj)]


def read_predictions(path: str) -> dict[FrameKey, list[Prediction]]:
    return _read_keyed(path, _predictions)


def read_ground_truth(path: str, *, min_ttc: float) -> dict[FrameKey, list[ObjectInteraction]]:
    def ground_truth(obj: dict) -> list[ObjectInteraction]:
        gts = [_interaction(e) for e in _entries(obj)]
        for gt in gts:
            if gt.ttc < min_ttc:
                in_range(checked_number, min_ttc)(gt.ttc, "ttc")
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
    return ActionPair(*pair)


def _context(obj: dict) -> ActionContext:
    context = assemble(
        [_action_pair(p) for p in _get(obj, "action_terms", list)],
        _get(obj, "held", list),
        _get(obj, "salient", list),
    )
    text = _get(obj, "text", str)
    if normalize_label(text) != normalize_label(context.text):
        raise ValidationError(
            f"text {clipped(repr(text))} does not match its fields, which render as {clipped(repr(context.text))}"
        )
    return context


def read_contexts(path: str) -> dict[FrameKey, ActionContext]:
    return _read_keyed(path, _context)
