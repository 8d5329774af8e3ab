import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knowmatch.errors import DomainError, FormatError, OverlapError
from knowmatch.knowledge import (
    AnnotationStore,
    ColumnTypeAnnotation,
    DITTO_GENERAL_TYPES,
    DITTO_PRODUCT_SOURCE_TYPES,
    EntityMention,
    Gazetteer,
    RULE_TYPE_LABELS,
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

    def test_every_emitted_label_is_a_rule_type_label(self):
        columns = {
            "year": ("1999", "2001"), "price": ("$9.99", "$12.00"),
            "date": ("2020-01-02", "1999-12-31"), "quantity": ("5 kg", "12 kg"),
            "name": ("Taylor Swift", "Nina Simone"), "text": ("free text", "more words"),
        }
        table = make_table("t", tuple(columns), list(zip(*columns.values())))
        emitted = [a.predicted_type for a in infer_column_types(table)]
        assert emitted == list(columns)
        assert tuple(emitted) == RULE_TYPE_LABELS

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
        return Gazetteer(
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
        gaz = Gazetteer([("Apple iPhone", "PRODUCT")])
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

    @staticmethod
    def width_scan(table, gazetteer):
        """Reference linker: every width from the longest surface's down to
        1, at every token."""
        mentions = []
        max_len = max((len(tokenize(s)) for s in gazetteer.entries), default=0)
        if max_len == 0:
            return mentions
        for rec in table.rows:
            for column, value in rec.columns:
                tokens = tokenize(value)
                i, n = 0, len(tokens)
                while i < n:
                    match_end = 0
                    match_label = None
                    for width in range(min(max_len, n - i), 0, -1):
                        label = gazetteer.lookup(tuple(tokens[i : i + width]))
                        if label is not None:
                            match_end, match_label = i + width, label
                            break
                    if match_label is None:
                        i += 1
                        continue
                    mentions.append(
                        EntityMention(
                            table=table.name, row=rec.entry_id, column=column,
                            start=i, end=match_end,
                            surface=" ".join(tokens[i:match_end]),
                            entity_type=match_label,
                        )
                    )
                    i = match_end
        return mentions

    WORDS = ("apple", "Apple", "iphone", "6s", "pro", "a/b", "case.", "(x)")

    @settings(max_examples=300, deadline=None)
    @given(
        surfaces=st.dictionaries(
            st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(" ".join),
            st.sampled_from(("ORG", "PRODUCT")),
            max_size=8,
        ),
        cells=st.lists(
            st.lists(st.sampled_from(WORDS + ("other",)), max_size=14).map(" ".join),
            min_size=1, max_size=4,
        ),
    )
    def test_matches_width_scan(self, surfaces, cells):
        # Surfaces with the same tokens ("apple", "Apple") must share a type:
        # give each its first drawn one, and a dict that differs is rejected.
        first = {}
        entries = {s: first.setdefault(tuple(tokenize(s)), t) for s, t in surfaces.items()}
        if entries != surfaces:
            with pytest.raises(FormatError, match="same tokens"):
                Gazetteer(entries=surfaces)
        gaz = Gazetteer(entries=entries)
        table = column_table(cells, name="tableA", column="title")
        assert link_entities(table, gaz) == self.width_scan(table, gaz)

    def test_widths_longest_first(self):
        gaz = Gazetteer(
            [("apple", "ORG"), ("apple iphone 6s", "PRODUCT"), ("apple iphone", "PRODUCT")]
        )
        assert gaz.widths("apple") == (3, 2, 1)
        assert gaz.widths("iphone") == ()


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

    @settings(max_examples=300, deadline=None)
    @given(
        inserts=st.lists(
            st.tuples(
                st.sampled_from(["0", "1"]),
                st.integers(min_value=0, max_value=30),
                st.integers(min_value=1, max_value=4),
            ),
            max_size=40,
        )
    )
    def test_add_mention_matches_scan_and_sort(self, inserts):
        # The oracle is the earlier store: check every mention of the cell,
        # then append and re-sort.
        cells = {}

        def scan_and_sort(mention):
            key = (mention.table, mention.row, mention.column)
            cell = cells.setdefault(key, [])
            for other in cell:
                if mention.start < other.end and other.start < mention.end:
                    raise OverlapError(
                        f"mention [{mention.start},{mention.end}) overlaps "
                        f"[{other.start},{other.end}) in cell {key}"
                    )
            cell.append(mention)
            cell.sort(key=lambda m: m.start)

        store = AnnotationStore()
        for n, (row, start, width) in enumerate(inserts):
            mention = EntityMention("t", row, "c", start, start + width, "s", f"T{n}")
            outcomes = []
            for add in (scan_and_sort, store.add_mention):
                try:
                    add(mention)
                    outcomes.append(None)
                except OverlapError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
        want = [m for key in sorted(cells) for m in cells[key]]
        assert store.all_mentions() == want

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
        with pytest.raises(OverlapError, match=r"ann\.jsonl: line 2: "):
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

    COLUMN_TYPE = {"kind": "column_type", "table": "A", "column": "c", "type": "song",
                   "confidence": 0.9}
    MENTION = {"kind": "mention", "table": "A", "row": "0", "column": "c", "start": 0,
               "end": 2, "surface": "a b", "type": "ORG"}

    @pytest.mark.parametrize(
        "line",
        [
            dict(MENTION, start=1.7), dict(MENTION, start=True), dict(MENTION, start="0"),
            dict(MENTION, end="3"), dict(MENTION, end=2.0), dict(MENTION, surface=None),
            dict(MENTION, type=["list"]), dict(MENTION, row=0), dict(MENTION, table=1),
            dict(MENTION, column=False),
            dict(COLUMN_TYPE, type=["list"]), dict(COLUMN_TYPE, column=None),
            dict(COLUMN_TYPE, confidence="0.9"), dict(COLUMN_TYPE, confidence=True),
        ],
    )
    def test_wrong_json_type_rejected(self, tmp_path, line):
        path = tmp_path / "ann.jsonl"
        path.write_text(json.dumps(self.MENTION) + "\n" + json.dumps(line) + "\n")
        with pytest.raises(FormatError, match=r"ann\.jsonl: line 2: \w+ must be "):
            ingest_annotations(path)

    @pytest.mark.parametrize(
        "key, value, kind",
        [("start", 1.5, "int"), ("surface", 3, "str"), ("confidence", "0.9", "float")],
    )
    def test_wrong_json_type_names_the_kind(self, tmp_path, key, value, kind):
        line = dict(self.COLUMN_TYPE if key == "confidence" else self.MENTION, **{key: value})
        path = tmp_path / "ann.jsonl"
        path.write_text(json.dumps(line) + "\n")
        with pytest.raises(FormatError, match=rf"line 1: {key} must be {kind}, got "):
            ingest_annotations(path)

    def test_integer_confidence_is_stored_as_float(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text(json.dumps(dict(self.COLUMN_TYPE, confidence=1)) + "\n")
        confidence = ingest_annotations(path).column_type("A", "c").confidence
        assert type(confidence) is float and confidence == 1.0

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

    @pytest.mark.parametrize("bad", ["no-tab-here", "a\tB\tC", "  \tX"])
    def test_bad_line_names_path_and_line(self, tmp_path, bad):
        path = tmp_path / "gaz.tsv"
        path.write_text(f"paris\tGPE\n\n{bad}\n", encoding="utf-8")
        with pytest.raises(FormatError, match="gaz.tsv: line 3: "):
            Gazetteer.from_file(path)

    def test_empty_surface_rejected(self):
        with pytest.raises(FormatError):
            Gazetteer(entries={"  ": "X"})

    def test_constructor_rejects_surfaces_with_same_tokens_and_other_types(self):
        with pytest.raises(FormatError) as err:
            Gazetteer(entries={"Apple": "ORG", "apple": "PRODUCT"})
        assert "'Apple'" in str(err.value) and "'apple'" in str(err.value)

    @pytest.mark.parametrize("other", ["Alpha", "alpha", "ALPHA  ", "alpha\u00a0"])
    def test_surfaces_with_same_tokens_and_other_types_rejected(self, other):
        with pytest.raises(FormatError) as err:
            Gazetteer([("alpha", "person"), (other, "org")])
        assert "'alpha'" in str(err.value) and repr(other) in str(err.value)
        assert "'person'" in str(err.value) and "'org'" in str(err.value)

    def test_conflict_in_file_names_both_lines(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_text("alpha\tperson\nparis\tGPE\nAlpha\torg\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            Gazetteer.from_file(path)
        message = str(err.value)
        assert "'alpha' (" in message and "gaz.tsv: line 1)" in message
        assert "'Alpha' (" in message and "gaz.tsv: line 3)" in message

    def test_duplicate_with_same_type_accepted(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_text("alpha\tperson\nAlpha\tperson\nalpha\tperson\n", encoding="utf-8")
        gaz = Gazetteer.from_file(path)
        assert len(gaz) == 1 and gaz.lookup(("alpha",)) == "person"
