"""Tests for correspondence inference (§5 future-work extension)."""

import pytest

from repro.core.compat import (
    CorrespondenceRegistry,
    declare_inferred,
    infer_correspondence,
)
from repro.errors import IncompatibleObjectsError
from repro.session import Session
from repro.toolkit.widgets import Label, Shell, TextField


class TestInference:
    def test_same_type_identity(self):
        mapping = infer_correspondence("textfield", "textfield")
        assert mapping == {"value": "value"}

    def test_label_to_textfield_by_kind(self):
        # label.text (text) has no same-named counterpart in textfield;
        # inference falls back to the relevant text-kind attribute: value.
        mapping = infer_correspondence("label", "textfield")
        assert mapping == {"text": "value"}

    def test_scale_to_scale_like(self):
        mapping = infer_correspondence("scale", "scale")
        assert mapping["value"] == "value"
        assert mapping["label"] == "label"

    def test_prefers_same_name(self):
        # togglebutton and scale both have 'label'; name match wins over
        # kind fallbacks.
        mapping = infer_correspondence("togglebutton", "scale")
        assert mapping is not None
        assert mapping["label"] == "label"

    def test_refuses_cross_kind_guess(self):
        # canvas.strokes is a list; a label offers no list-kind attribute.
        assert infer_correspondence("canvas", "label") is None

    def test_injective(self):
        # optionmenu has three relevant attrs (label, entries, selection);
        # whatever the target, no two may map to the same attribute.
        mapping = infer_correspondence("optionmenu", "listbox")
        if mapping is not None:
            values = list(mapping.values())
            assert len(values) == len(set(values))

    def test_declare_inferred_installs_both_directions(self):
        registry = CorrespondenceRegistry()
        mapping = declare_inferred("label", "textfield", registry)
        assert registry.lookup("label", "textfield") == mapping
        assert registry.lookup("textfield", "label") == {
            v: k for k, v in mapping.items()
        }

    def test_declare_inferred_raises_on_failure(self):
        with pytest.raises(IncompatibleObjectsError):
            declare_inferred("canvas", "label", CorrespondenceRegistry())

    def test_inferred_correspondence_end_to_end(self):
        """A cross-type copy works with zero manual declarations."""
        registry = CorrespondenceRegistry()
        declare_inferred("label", "textfield", registry)
        session = Session(correspondences=registry)
        try:
            a = session.create_instance("a", user="u1")
            b = session.create_instance("b", user="u2")
            src = a.add_root(Shell("src"))
            Label("msg", parent=src, text="auto-mapped")
            dst = b.add_root(Shell("dst"))
            TextField("msg", parent=dst)
            b.copy_from(dst.find("/dst/msg"), ("a", "/src/msg"))
            assert dst.find("/dst/msg").value == "auto-mapped"
        finally:
            session.close()
