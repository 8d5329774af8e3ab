import math
import random
from collections import Counter

import pytest

from knowmatch.errors import (
    DanglingReferenceError,
    DomainError,
    DuplicateIdError,
    FormatError,
)
from knowmatch.tabular import (
    LabeledPair,
    LabeledPairSet,
    Record,
    Table,
    json_object,
    load_pairs,
    load_table,
    make_dirty,
    read_lines,
    tsv_pair,
    write_table,
)

from conftest import make_table


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadTable:
    def test_basic_mapping(self, tmp_path):
        path = write(tmp_path / "t.csv", "id,title,price\n0,iphone 6s,99\n")
        table = load_table(path)
        assert table.schema == ("title", "price")
        assert table.rows[0] == Record("0", (("title", "iphone 6s"), ("price", "99")))

    def test_empty_cell_is_empty_string(self, tmp_path):
        path = write(tmp_path / "t.csv", "id,title,price,extra\n0,iphone,,\n")
        table = load_table(path)
        assert table.rows[0].value("price") == ""
        assert table.rows[0].value("extra") == ""

    def test_values_verbatim_no_coercion(self, tmp_path):
        path = write(tmp_path / "t.csv", "id,price\n0,007.50\n")
        assert load_table(path).rows[0].value("price") == "007.50"

    def test_missing_header(self, tmp_path):
        path = write(tmp_path / "t.csv", "")
        with pytest.raises(FormatError):
            load_table(path)

    def test_header_without_id(self, tmp_path):
        path = write(tmp_path / "t.csv", "title,price\na,1\n")
        with pytest.raises(FormatError):
            load_table(path)

    def test_duplicate_ids(self, tmp_path):
        path = write(tmp_path / "t.csv", "id,title\n0,a\n0,b\n")
        with pytest.raises(DuplicateIdError):
            load_table(path)

    def test_ragged_row_reports_row_number(self, tmp_path):
        path = write(tmp_path / "t.csv", "id,title,price\n0,a,1\n1,b\n")
        with pytest.raises(FormatError, match="row 3"):
            load_table(path)

    def test_embedded_newline_rejected(self, tmp_path):
        path = write(tmp_path / "t.csv", 'id,title\n0,"a\nb"\n')
        with pytest.raises(FormatError):
            load_table(path)

    def test_non_utf8_names_path_and_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"id,title\n0,a\n9,\xff\xfe\n")
        with pytest.raises(FormatError, match=r"t\.csv: line 3: not UTF-8"):
            load_table(path)

    def test_itunes_amazon_shape(self, tmp_path):
        # 539 rows, 8 attributes, like the small music benchmark table.
        header = "id," + ",".join(f"attr{i}" for i in range(8))
        lines = [header]
        for i in range(539):
            lines.append(f"{i}," + ",".join(f"v{i}_{j}" for j in range(8)))
        path = write(tmp_path / "tableA.csv", "\n".join(lines) + "\n")
        table = load_table(path)
        assert len(table.rows) == 539
        assert len(table.schema) == 8

    def test_roundtrip_bytes(self, tmp_path):
        original = "id,title,price\n0,iphone 6s,99\n1,\"a, b\",5\n"
        src = write(tmp_path / "in.csv", original)
        table = load_table(src)
        dst = tmp_path / "out.csv"
        write_table(table, dst)
        assert dst.read_text(encoding="utf-8") == original
        assert load_table(dst, name=table.name) == table


class TestLoadPairs:
    def make_tables(self):
        left = make_table("tableA", ("x",), [("a",), ("b",), ("c",), ("d",)])
        right = make_table("tableB", ("x",), [("e",), ("f",), ("g",), ("h",)])
        return left, right

    def test_direct_mapping(self, tmp_path):
        left, right = self.make_tables()
        path = write(tmp_path / "train.csv", "ltable_id,rtable_id,label\n3,2,1\n")
        pairs = load_pairs(path, left, right)
        assert pairs.pairs == (LabeledPair("3", "2", 1),)
        assert pairs.split == "train"

    def test_dangling_reference_names_id(self, tmp_path):
        left, right = self.make_tables()
        path = write(tmp_path / "test.csv", "ltable_id,rtable_id,label\n0,99,1\n")
        with pytest.raises(DanglingReferenceError, match="99"):
            load_pairs(path, left, right)

    def test_bad_label(self, tmp_path):
        left, right = self.make_tables()
        path = write(tmp_path / "test.csv", "ltable_id,rtable_id,label\n0,1,2\n")
        with pytest.raises(FormatError):
            load_pairs(path, left, right)

    def test_duplicate_pair(self, tmp_path):
        left, right = self.make_tables()
        path = write(
            tmp_path / "test.csv", "ltable_id,rtable_id,label\n0,1,1\n0,1,0\n"
        )
        with pytest.raises(DuplicateIdError):
            load_pairs(path, left, right)

    def test_positive_count_539_132(self, tmp_path):
        rows = [("r",)] * 539
        left = make_table("tableA", ("x",), rows)
        right = make_table("tableB", ("x",), rows)
        lines = ["ltable_id,rtable_id,label"]
        for i in range(539):
            lines.append(f"{i},{i},{1 if i < 132 else 0}")
        path = write(tmp_path / "train.csv", "\n".join(lines) + "\n")
        pairs = load_pairs(path, left, right)
        assert len(pairs) == 539
        assert pairs.positives == 132


class TestMakeDirty:
    def test_fraction_zero_is_identity(self):
        table = make_table("t", ("a", "b"), [("1", "2"), ("3", "4")])
        assert make_dirty(table, 0.0, seed=1) == table

    def test_hand_move_and_append(self):
        # Seed 0 shuffles [(0,0),(0,1)] so the title cell is the source; the
        # only possible target is price.
        table = make_table("t", ("title", "price"), [("iphone", "99")])
        dirty = make_dirty(table, 0.5, seed=0)
        assert dirty.rows[0].columns == (("title", ""), ("price", "99 iphone"))

    def test_deterministic(self):
        table = make_table(
            "t", ("a", "b", "c"), [(f"x{i}", f"y{i}", f"z{i}") for i in range(20)]
        )
        first = make_dirty(table, 0.4, seed=7)
        second = make_dirty(table, 0.4, seed=7)
        assert first == second
        assert make_dirty(table, 0.4, seed=8) != first

    def test_fraction_out_of_range(self):
        table = make_table("t", ("a", "b"), [("1", "2")])
        with pytest.raises(DomainError):
            make_dirty(table, 1.5, seed=0)
        with pytest.raises(DomainError):
            make_dirty(table, -0.1, seed=0)

    def test_requires_two_columns(self):
        table = make_table("t", ("a",), [("1",)])
        with pytest.raises(DomainError):
            make_dirty(table, 0.5, seed=0)

    def test_token_multiset_conserved_per_row(self):
        rng = random.Random(3)
        rows = [
            tuple(
                " ".join(rng.choice("abcdefg") for _ in range(rng.randint(0, 4)))
                for _ in range(4)
            )
            for _ in range(15)
        ]
        table = make_table("t", ("c1", "c2", "c3", "c4"), rows)
        for seed in range(5):
            dirty = make_dirty(table, 0.5, seed=seed)
            for before, after in zip(table.rows, dirty.rows):
                assert Counter(" ".join(before.values).split()) == Counter(
                    " ".join(after.values).split()
                )

    def test_emptied_cell_count(self):
        rows = [tuple(f"r{i}c{j}" for j in range(5)) for i in range(12)]
        table = make_table("t", tuple(f"c{j}" for j in range(5)), rows)
        for fraction in (0.1, 0.25, 0.5):
            dirty = make_dirty(table, fraction, seed=11)
            emptied = sum(
                1 for rec in dirty.rows for v in rec.values if v == ""
            )
            assert emptied == math.ceil(fraction * 12 * 5)


class TestPairSetInvariants:
    def test_unknown_split_rejected(self):
        with pytest.raises(DomainError):
            LabeledPairSet(pairs=(), split="dev")

    def test_label_domain(self):
        with pytest.raises(FormatError):
            LabeledPair("0", "1", 2)

    def test_schema_mismatch_rejected(self):
        rec = Record("0", (("a", "1"),))
        with pytest.raises(FormatError):
            Table(name="t", schema=("b",), rows=(rec,))


class TestReadLines:
    def test_skips_blank_lines_and_numbers_the_rest(self, tmp_path):
        path = write(tmp_path / "a.jsonl", '{"a": 1}\n\n  \n{"a": 2}\n')
        assert list(read_lines(path, json_object)) == [(1, {"a": 1}), (4, {"a": 2})]

    def test_tsv_pair_keeps_fields_verbatim(self, tmp_path):
        path = write(tmp_path / "a.tsv", "New York\tGPE\n x \t\n")
        assert list(read_lines(path, tsv_pair)) == [(1, ("New York", "GPE")), (2, (" x ", ""))]

    @pytest.mark.parametrize(
        "text, parse",
        [
            ('{"a": 1}\n{bad\n', json_object),
            ('{"a": 1}\n[1, 2]\n', json_object),
            ('{"a": 1}\n"text"\n', json_object),
            ("a\tb\nno-tab\n", tsv_pair),
            ("a\tb\na\tb\tc\n", tsv_pair),
        ],
    )
    def test_parse_failure_names_path_and_line(self, tmp_path, text, parse):
        path = write(tmp_path / "f.txt", text)
        with pytest.raises(FormatError, match=r"f\.txt: line 2: "):
            list(read_lines(path, parse))

    @pytest.mark.parametrize("line, parse", [(b'{"a": 1}', json_object), (b"a\tb", tsv_pair)])
    def test_non_utf8_names_path_and_line(self, tmp_path, line, parse):
        # Past the first block the text reader decodes at once.
        path = tmp_path / "f.txt"
        path.write_bytes((line + b"\n") * 3000 + line + b"\xff\n" + line + b"\n")
        with pytest.raises(FormatError, match=r"f\.txt: line 3001: not UTF-8"):
            list(read_lines(path, parse))
