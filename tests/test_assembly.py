import pytest

from context_forge.assembly import assemble
from context_forge.core import ActionPair, ValidationError


class TestAssemble:
    def test_action_only(self):
        ctx = assemble([ActionPair("wash", "tomato"), ActionPair("cut", "tomato")], [], [])
        assert ctx.text == "wash tomato, cut tomato; ; "

    def test_empty_everything(self):
        assert assemble([], [], []).text == ""

    def test_action_and_salient(self):
        ctx = assemble([ActionPair("cut", "wood")], [], ["knife", "table"])
        assert ctx.text == "cut wood; ; knife, table"

    def test_all_three_sections(self):
        ctx = assemble([ActionPair("cut", "wood")], ["knife"], ["table", "saw"])
        assert ctx.text == "cut wood; knife; table, saw"

    def test_empty_included_section_keeps_slot(self):
        ctx = assemble([], [], ["knife"])
        assert ctx.text == "; ; knife"

    def test_lists_stored_verbatim(self):
        pairs = [ActionPair("cut", "wood")]
        ctx = assemble(pairs, ["cup"], ["knife"])
        assert ctx.action_segments == tuple(pairs)
        assert ctx.held_objects == ("cup",)
        assert ctx.salient_objects == ("knife",)

    def test_reserved_separator_rejected(self):
        with pytest.raises(ValidationError):
            assemble([], ["bad;label"], [])
        with pytest.raises(ValidationError):
            assemble([], [], ["bad,label"])

    def test_rendering_is_byte_stable(self):
        args = ([ActionPair("cut", "wood")], ["pressure cooker"], ["knife"])
        assert assemble(*args).text == assemble(*args).text

