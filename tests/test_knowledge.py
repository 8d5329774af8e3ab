import random

import pytest

from knowmatch.errors import DomainError, FormatError, OverlapError
from knowmatch.knowledge import (
    AnnotationStore,
    ColumnTypeAnnotation,
    DITTO_GENERAL_TYPES,
    DITTO_PRODUCT_SOURCE_TYPES,
    EntityMention,
    Gazetteer,
    ditto_inject,
    export_annotations,
    infer_column_types,
    ingest_annotations,
    link_entities,
)
from knowmatch.text import tokenize
from conftest import make_table


def column_table(values, name="t", column="c"):
    return make_table(name, (column,), [(v,) for v in values])


class TestInferColumnTypes:
    def test_year_column(self):
        anns = infer_column_types(column_table(["1999", "2001", "1987"]))
        assert anns[0].predicted_type == "year"
        assert anns[0].confidence == 1.0

    def test_price_column(self):
        anns = infer_column_types(column_table(["$9.99", "$12.00"]))
        assert anns[0].predicted_type == "price"

    def test_prose_falls_back_to_text(self):
        anns = infer_column_types(
            column_table(["a sentence about nothing in particular", "another one here"])
        )
        assert anns[0].predicted_type == "text"
        assert anns[0].confidence == 1.0

    def test_majority_required(self):
        # 2 of 5 are years: below the >50% bar, so text wins.
        anns = infer_column_types(
            column_table(["1999", "2001", "noise words", "more noise", "even more"])
        )
        assert anns[0].predicted_type == "text"
        anns = infer_column_types(
            column_table(["1999", "2001", "1987", "noise words", "more noise"])
        )
        assert anns[0].predicted_type == "year"
        assert anns[0].confidence == pytest.approx(0.6)

    def test_date_and_quantity_and_name(self):
        assert infer_column_types(column_table(["2020-01-02", "1999-12-31"]))[0].predicted_type == "date"
        assert infer_column_types(column_table(["5 kg", "12 kg"]))[0].predicted_type == "quantity"
        assert infer_column_types(column_table(["Taylor Swift", "Nina Simone"]))[0].predicted_type == "name"

    def test_empty_cells_ignored(self):
        anns = infer_column_types(column_table(["1999", "", ""]))
        assert anns[0].predicted_type == "year"
        assert anns[0].confidence == 1.0

    def test_permutation_invariant(self):
        values = ["1999", "2001", "free text", "1984", "$5.00"]
        base = infer_column_types(column_table(values))
        rng = random.Random(0)
        for _ in range(5):
            rng.shuffle(values)
            assert infer_column_types(column_table(values)) == base

    def test_one_annotation_per_column(self):
        table = make_table("t", ("a", "b"), [("1999", "x"), ("2001", "y")])
        anns = infer_column_types(table)
        assert [a.column for a in anns] == ["a", "b"]

    def test_empty_table_rejected(self):
        table = make_table("t", ("a",), [])
        with pytest.raises(DomainError):
            infer_column_types(table)


class TestLinkEntities:
    def gaz(self):
        return Gazetteer.from_pairs(
            [("apple iphone", "PRODUCT"), ("apple", "ORG"), ("samsung", "ORG")]
        )

    def test_longest_match_wins(self):
        table = column_table(["apple iphone 6s"], name="tableA", column="title")
        mentions = link_entities(table, self.gaz())
        assert len(mentions) == 1
        m = mentions[0]
        assert (m.start, m.end, m.entity_type) == (0, 2, "PRODUCT")
        assert m.surface == "apple iphone"

    def test_empty_gazetteer(self):
        table = column_table(["apple iphone"], name="tableA", column="title")
        assert link_entities(table, Gazetteer(entries={})) == []

    def test_two_disjoint_matches(self):
        table = column_table(["apple versus samsung"], name="tableA", column="title")
        mentions = link_entities(table, self.gaz())
        assert [(m.start, m.end) for m in mentions] == [(0, 1), (2, 3)]

    def test_case_insensitive(self):
        gaz = Gazetteer.from_pairs([("Apple iPhone", "PRODUCT")])
        table = column_table(["APPLE IPHONE 6s"], name="tableA", column="title")
        mentions = link_entities(table, gaz)
        assert len(mentions) == 1 and mentions[0].entity_type == "PRODUCT"

    def test_spans_never_overlap_and_surface_matches(self):
        rng = random.Random(1)
        words = ["apple", "iphone", "samsung", "6s", "case", "pro"]
        gaz = self.gaz()
        for _ in range(20):
            text = " ".join(rng.choice(words) for _ in range(rng.randint(0, 8)))
            table = column_table([text], name="tableA", column="title")
            mentions = link_entities(table, gaz)
            tokens = tokenize(text)
            last_end = 0
            for m in sorted(mentions, key=lambda m: m.start):
                assert m.start >= last_end
                assert m.surface == " ".join(tokens[m.start : m.end])
                last_end = m.end


class TestDittoInject:
    def mention(self, label):
        return EntityMention("tableA", "0", "c", 0, 1, "x", label)

    def test_product_relabels_gpe(self):
        out = ditto_inject([self.mention("GPE")], "Product")
        assert len(out) == 1 and out[0].entity_type == "PRODUCT"

    def test_general_keeps_date_unchanged(self):
        out = ditto_inject([self.mention("DATE")], "General")
        assert out == [self.mention("DATE")]

    def test_general_drops_unlisted(self):
        assert ditto_inject([self.mention("WORK_OF_ART")], "General") == []

    def test_unknown_mode(self):
        with pytest.raises(DomainError):
            ditto_inject([], "both")

    def test_general_properties(self):
        labels = list(DITTO_GENERAL_TYPES | DITTO_PRODUCT_SOURCE_TYPES) + [
            "WORK_OF_ART", "EVENT", "CARDINAL",
        ]
        mentions = [self.mention(label) for label in sorted(labels)]
        kept = ditto_inject(mentions, "general")
        assert all(m.entity_type in DITTO_GENERAL_TYPES for m in kept)
        assert len(kept) == len(DITTO_GENERAL_TYPES)
        for m in kept:  # labels pass through untouched
            assert m in mentions

    def test_product_properties(self):
        labels = list(DITTO_GENERAL_TYPES | DITTO_PRODUCT_SOURCE_TYPES) + ["EVENT"]
        mentions = [self.mention(label) for label in sorted(labels)]
        kept = ditto_inject(mentions, "product")
        assert len(kept) == len(DITTO_PRODUCT_SOURCE_TYPES)
        assert all(m.entity_type == "PRODUCT" for m in kept)


class TestAnnotationStore:
    def test_overlapping_mentions_rejected(self):
        store = AnnotationStore()
        store.add_mention(EntityMention("t", "0", "c", 0, 2, "a b", "X"))
        with pytest.raises(OverlapError):
            store.add_mention(EntityMention("t", "0", "c", 1, 3, "b c", "Y"))

    def test_disjoint_mentions_same_cell(self):
        store = AnnotationStore()
        store.add_mention(EntityMention("t", "0", "c", 2, 3, "c", "Y"))
        store.add_mention(EntityMention("t", "0", "c", 0, 1, "a", "X"))
        spans = [(m.start, m.end) for m in store.mentions_for("t", "0", "c")]
        assert spans == [(0, 1), (2, 3)]

    def test_column_type_override(self):
        store = AnnotationStore()
        store.add_column_type(ColumnTypeAnnotation("t", "c", "year", 0.9))
        store.add_column_type(ColumnTypeAnnotation("t", "c", "date", 0.8))
        assert store.column_type("t", "c").predicted_type == "date"

    def test_type_labels(self):
        store = AnnotationStore()
        store.add_column_type(ColumnTypeAnnotation("t", "c", "song", 0.9))
        store.add_mention(EntityMention("t", "0", "c", 0, 1, "a", "PRODUCT"))
        assert store.type_labels() == ["PRODUCT", "song"]


class TestIngestExport:
    def test_column_type_line(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text(
            '{"kind":"column_type","table":"A","column":"name","type":"song","confidence":0.9}\n'
        )
        store = ingest_annotations(path)
        ann = store.column_type("A", "name")
        assert ann.predicted_type == "song" and ann.confidence == 0.9

    def test_second_line_overrides(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text(
            '{"kind":"column_type","table":"A","column":"name","type":"song","confidence":0.9}\n'
            '{"kind":"column_type","table":"A","column":"name","type":"album","confidence":0.5}\n'
        )
        assert ingest_annotations(path).column_type("A", "name").predicted_type == "album"

    def test_bad_span_reports_line(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text(
            '{"kind":"mention","table":"A","row":"0","column":"c","start":2,"end":2,"surface":"x","type":"ORG"}\n'
        )
        with pytest.raises(FormatError, match="line 1"):
            ingest_annotations(path)

    def test_overlap_error(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text(
            '{"kind":"mention","table":"A","row":"0","column":"c","start":0,"end":2,"surface":"a b","type":"ORG"}\n'
            '{"kind":"mention","table":"A","row":"0","column":"c","start":1,"end":3,"surface":"b c","type":"LOC"}\n'
        )
        with pytest.raises(OverlapError):
            ingest_annotations(path)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text('{"kind":"column_type"\n')
        with pytest.raises(FormatError, match="line 1"):
            ingest_annotations(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text('{"kind":"row_type"}\n')
        with pytest.raises(FormatError):
            ingest_annotations(path)

    def test_export_ingest_identity(self, tmp_path):
        store = AnnotationStore()
        store.add_column_type(ColumnTypeAnnotation("A", "name", "song", 0.9))
        store.add_column_type(ColumnTypeAnnotation("B", "year", "year", 1.0))
        store.add_mention(EntityMention("A", "3", "name", 0, 2, "the band", "ORG"))
        store.add_mention(EntityMention("A", "3", "name", 4, 5, "tour", "EVENT"))
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        export_annotations(store, first)
        export_annotations(ingest_annotations(first), second)
        assert first.read_bytes() == second.read_bytes()


class TestGazetteer:
    def test_from_file(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_text("Apple iPhone\tPRODUCT\nparis\tGPE\n", encoding="utf-8")
        gaz = Gazetteer.from_file(path)
        assert gaz.lookup(("apple", "iphone")) == "PRODUCT"
        assert gaz.lookup(("paris",)) == "GPE"
        assert gaz.type_labels == ("GPE", "PRODUCT")

    def test_bad_line(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_text("no-tab-here\n", encoding="utf-8")
        with pytest.raises(FormatError):
            Gazetteer.from_file(path)

    def test_empty_surface_rejected(self):
        with pytest.raises(FormatError):
            Gazetteer(entries={"  ": "X"})
