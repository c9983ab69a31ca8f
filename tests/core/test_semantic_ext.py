"""Tests for the standard semantic-state extensions (§5)."""

import pytest

from repro.core.semantic_ext import DocumentModel, ListModel, ValueModel
from repro.session import Session
from repro.toolkit.widgets import Form, ListBox, Shell, TextArea, TextField


@pytest.fixture
def pair():
    session = Session()
    a = session.create_instance("a", user="alice")
    b = session.create_instance("b", user="bob")
    yield session, a, b
    session.close()


def forms(a, b):
    ta = a.add_root(Shell("ui"))
    form_a = Form("panel", parent=ta)
    tb = b.add_root(Shell("ui"))
    form_b = Form("panel", parent=tb)
    return form_a, form_b


class TestValueModel:
    def test_travels_with_state_copy(self, pair):
        session, a, b = pair
        form_a, form_b = forms(a, b)
        field_a = TextField("entry", parent=form_a)
        field_b = TextField("entry", parent=form_b)
        model_a = ValueModel(a, field_a, initial={"unit": "meters"})
        model_b = ValueModel(b, field_b)
        b.copy_from(form_b, ("a", "/ui/panel"))
        assert model_b.value == {"unit": "meters"}

    def test_on_load_callback(self, pair):
        session, a, b = pair
        form_a, form_b = forms(a, b)
        field_a = TextField("entry", parent=form_a)
        field_b = TextField("entry", parent=form_b)
        ValueModel(a, field_a, initial=42)
        landed = []
        ValueModel(b, field_b, on_load=landed.append)
        b.copy_from(form_b, ("a", "/ui/panel"))
        assert landed == [42]

    def test_mutation(self, pair):
        _, a, _ = pair
        ta = a.add_root(Shell("ui"))
        field = TextField("entry", parent=ta)
        model = ValueModel(a, field)
        model.value = [1, 2]
        assert model.value == [1, 2]


class TestListModel:
    def test_render_on_construction(self, pair):
        _, a, _ = pair
        ta = a.add_root(Shell("ui"))
        box = ListBox("rows", parent=ta)
        ListModel(a, box, rows=[{"name": "ada", "age": 36}])
        assert box.get("items") == ["ada | 36"]

    def test_custom_formatter(self, pair):
        _, a, _ = pair
        ta = a.add_root(Shell("ui"))
        box = ListBox("rows", parent=ta)
        model = ListModel(
            a, box, rows=[{"name": "ada"}],
            formatter=lambda r: r["name"].upper(),
        )
        assert box.get("items") == ["ADA"]

    def test_rows_copy_and_rerender_remotely(self, pair):
        session, a, b = pair
        form_a, form_b = forms(a, b)
        box_a = ListBox("rows", parent=form_a)
        box_b = ListBox("rows", parent=form_b)
        model_a = ListModel(a, box_a)
        model_b = ListModel(b, box_b)
        model_a.set_rows([{"name": "grace"}, {"name": "alan"}])
        a.copy_to(form_a, ("b", "/ui/panel"))
        session.pump()
        assert model_b.rows == [{"name": "grace"}, {"name": "alan"}]
        assert box_b.get("items") == box_a.get("items")

    def test_selected_rows(self, pair):
        _, a, _ = pair
        ta = a.add_root(Shell("ui"))
        box = ListBox("rows", parent=ta)
        model = ListModel(a, box, rows=[{"n": 1}, {"n": 2}, {"n": 3}])
        box.select_indices([2])
        assert model.selected_rows() == [{"n": 3}]

    def test_append(self, pair):
        _, a, _ = pair
        ta = a.add_root(Shell("ui"))
        box = ListBox("rows", parent=ta)
        model = ListModel(a, box)
        model.append({"n": 1})
        assert len(model) == 1
        assert len(box.get("items")) == 1

    def test_models_are_independent_copies(self, pair):
        session, a, b = pair
        form_a, form_b = forms(a, b)
        box_a = ListBox("rows", parent=form_a)
        box_b = ListBox("rows", parent=form_b)
        model_a = ListModel(a, box_a, rows=[{"n": 1}])
        model_b = ListModel(b, box_b)
        a.copy_to(form_a, ("b", "/ui/panel"))
        session.pump()
        model_b.rows[0]["n"] = 99  # mutating the accessor copy
        assert model_b.rows == [{"n": 1}]


class TestDocumentModel:
    def test_revision_bumps_on_edit(self, pair):
        _, a, _ = pair
        ta = a.add_root(Shell("ui"))
        area = TextArea("doc", parent=ta)
        doc = DocumentModel(a, area, title="Notes")
        assert doc.revision == 0
        doc.edit("first line")
        assert doc.revision == 1
        assert doc.text == "first line"

    def test_metadata_travels(self, pair):
        session, a, b = pair
        form_a, form_b = forms(a, b)
        area_a = TextArea("doc", parent=form_a)
        area_b = TextArea("doc", parent=form_b)
        doc_a = DocumentModel(a, area_a, title="Meeting minutes")
        doc_b = DocumentModel(b, area_b)
        doc_a.edit("agenda\nitems")
        b.copy_from(form_b, ("a", "/ui/panel"))
        assert doc_b.title == "Meeting minutes"
        assert doc_b.author == "alice"
        assert doc_b.revision == 1
        assert doc_b.text == "agenda\nitems"

    def test_revision_never_regresses(self, pair):
        session, a, b = pair
        form_a, form_b = forms(a, b)
        area_a = TextArea("doc", parent=form_a)
        area_b = TextArea("doc", parent=form_b)
        doc_a = DocumentModel(a, area_a)
        doc_b = DocumentModel(b, area_b)
        for i in range(5):
            doc_b.edit(f"local edit {i}")
        assert doc_b.revision == 5
        doc_a.edit("remote edit")
        b.copy_from(form_b, ("a", "/ui/panel"))
        assert doc_b.revision == 5  # 5 > incoming 1: no regression
        assert doc_b.text == "remote edit"

    def test_author_follows_edits_through_coupling(self, pair):
        session, a, b = pair
        form_a, form_b = forms(a, b)
        area_a = TextArea("doc", parent=form_a)
        area_b = TextArea("doc", parent=form_b)
        doc_a = DocumentModel(a, area_a)
        doc_b = DocumentModel(b, area_b)
        a.couple(area_a, ("b", "/ui/panel/doc"))
        session.pump()
        doc_a.edit("alice wrote this")
        session.pump()
        # The coupled commit re-executed at b; b's revision bumped and the
        # author attribution followed the event's user.
        assert doc_b.text == "alice wrote this"
        assert doc_b.revision == 1
        assert doc_b.author == "alice"
