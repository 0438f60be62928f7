"""Rendering selected segments into the textual action-context summary.

The grammar is fixed so that text round-trips: the three sections are
joined by "; " in the order action -> held -> salient, items within a
section by ", ", and action pairs render as "verb noun". Labels keep
internal spaces but may never contain "," or ";". When every section is
empty the text is the empty string; otherwise empty sections render as
empty slots so the section count stays unambiguous.
"""

from __future__ import annotations

from typing import Sequence

from .core import ActionContext, ActionPair, ValidationError, check_label

_SECTION_SEP = "; "
_ITEM_SEP = ", "


def assemble(
    action_terms: Sequence[ActionPair],
    held: Sequence[str],
    salient: Sequence[str],
) -> ActionContext:
    """Build the ActionContext for one prediction frame.

    Inputs must already be capped to the configured context lengths;
    action terms arrive oldest first.
    """
    sections = (
        _ITEM_SEP.join(check_label(p.render()) for p in action_terms),
        _ITEM_SEP.join(map(check_label, held)),
        _ITEM_SEP.join(map(check_label, salient)),
    )
    return ActionContext(
        action_segments=tuple(action_terms),
        held_objects=tuple(held),
        salient_objects=tuple(salient),
        text=_SECTION_SEP.join(sections) if any(sections) else "",
    )


def parse_context_text(text: str) -> tuple[list[ActionPair], list[str], list[str]]:
    """Invert ``assemble``'s rendering."""
    if text == "":
        return [], [], []
    sections = text.split(_SECTION_SEP)
    if len(sections) != 3:
        raise ValidationError(f"context text has {len(sections)} sections, expected 3")
    action, held, salient = (section.split(_ITEM_SEP) if section else [] for section in sections)
    pairs = []
    for item in action:
        verb, _, noun = item.partition(" ")
        if not noun:
            raise ValidationError(f"malformed action pair {item!r}")
        pairs.append(ActionPair(verb=verb, noun=noun))
    return pairs, held, salient
