import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knowmatch.errors import (
    AnnotationMismatchError,
    DomainError,
    SequenceOverflowError,
)
from knowmatch.harness import RunConfig
from knowmatch.injection import InjectionTree, flatten_with_soft_positions
from knowmatch.knowledge import AnnotationStore, ColumnTypeAnnotation, EntityMention
from knowmatch.serializer import (
    MIN_MAX_LEN,
    Branch,
    PromptMode,
    TokenSeq,
    _join_truncated,
    build_vocab,
    pair_to_json,
    read_batch_file,
    serialize_entry,
    serialize_pair,
    write_batch_file,
)
from knowmatch.text import CLS_ID, COL_ID, SEP_ID, VAL_ID, tokenize

from conftest import make_table


def decode(tokenizer, ids):
    return " ".join(tokenizer.decode(list(ids)))


@pytest.fixture
def song_setup():
    table = make_table("tableA", ("name",), [("thriller",)])
    tokenizer = build_vocab([table], extra_labels=["song"])
    store = AnnotationStore()
    store.add_column_type(ColumnTypeAnnotation("tableA", "name", "song", 1.0))
    return table.rows[0], tokenizer, store


class TestPromptMode:
    def test_aliases(self):
        assert PromptMode.from_string("Slash") is PromptMode.SLASH
        assert PromptMode.from_string("pct") is PromptMode.CONSTRAINED
        assert PromptMode.from_string("space") is PromptMode.SPACE

    def test_unknown(self):
        with pytest.raises(DomainError):
            PromptMode.from_string("dash")


class TestSerializeEntry:
    def test_slash_template(self, song_setup):
        record, tokenizer, store = song_setup
        seq = serialize_entry(record, store, PromptMode.SLASH, tokenizer)
        assert decode(tokenizer, seq.tokens) == "[COL] name / song [VAL] thriller"
        assert seq.sites == ()

    def test_space_template(self, song_setup):
        record, tokenizer, store = song_setup
        seq = serialize_entry(record, store, PromptMode.SPACE, tokenizer)
        assert decode(tokenizer, seq.tokens) == "[COL] name song [VAL] thriller"

    def test_constrained_marks_column_site(self, song_setup):
        record, tokenizer, store = song_setup
        seq = serialize_entry(record, store, PromptMode.CONSTRAINED, tokenizer)
        assert decode(tokenizer, seq.tokens) == "[COL] name [VAL] thriller"
        assert len(seq.sites) == 1
        site = seq.sites[0]
        assert site.kind == "column"
        assert site.head == (1, 2)
        assert tokenizer.decode(list(site.knowledge)) == ["song"]

    def test_constrained_marks_mention_site(self):
        table = make_table("tableA", ("title",), [("iphone 99",)])
        tokenizer = build_vocab([table])
        store = AnnotationStore()
        store.add_mention(
            EntityMention("tableA", "0", "title", 0, 1, "iphone", "PRODUCT")
        )
        seq = serialize_entry(table.rows[0], store, PromptMode.CONSTRAINED, tokenizer)
        assert decode(tokenizer, seq.tokens) == "[COL] title [VAL] iphone 99"
        site = seq.sites[0]
        assert site.kind == "entity"
        assert site.head == (3, 4)
        assert tokenizer.decode(list(site.knowledge)) == ["product"]

    def test_no_annotations_identity(self, song_setup):
        record, tokenizer, _ = song_setup
        empty = AnnotationStore()
        plain = serialize_entry(record, empty, PromptMode.SPACE, tokenizer)
        for mode in PromptMode:
            seq = serialize_entry(record, empty, mode, tokenizer)
            assert seq.tokens == plain.tokens
            assert seq.sites == ()

    def test_mention_type_after_span_inline(self):
        table = make_table("tableA", ("title",), [("apple iphone 6s case",)])
        tokenizer = build_vocab([table])
        store = AnnotationStore()
        store.add_mention(
            EntityMention("tableA", "0", "title", 1, 2, "iphone", "PRODUCT")
        )
        seq = serialize_entry(table.rows[0], store, PromptMode.SPACE, tokenizer)
        assert (
            decode(tokenizer, seq.tokens)
            == "[COL] title [VAL] apple iphone product 6s case"
        )
        slash = serialize_entry(table.rows[0], store, PromptMode.SLASH, tokenizer)
        assert (
            decode(tokenizer, slash.tokens)
            == "[COL] title [VAL] apple iphone / product 6s case"
        )

    def test_multi_token_label(self):
        table = make_table("tableA", ("title",), [("iphone",)])
        tokenizer = build_vocab([table], extra_labels=["mobile phone"])
        store = AnnotationStore()
        store.add_mention(
            EntityMention("tableA", "0", "title", 0, 1, "iphone", "mobile phone")
        )
        seq = serialize_entry(table.rows[0], store, PromptMode.CONSTRAINED, tokenizer)
        assert tokenizer.decode(list(seq.sites[0].knowledge)) == ["mobile", "phone"]

    def test_mention_out_of_bounds(self):
        table = make_table("tableA", ("title",), [("iphone",)])
        tokenizer = build_vocab([table])
        store = AnnotationStore()
        store.add_mention(EntityMention("tableA", "0", "title", 0, 5, "x", "PRODUCT"))
        with pytest.raises(AnnotationMismatchError):
            serialize_entry(table.rows[0], store, PromptMode.SPACE, tokenizer)

    def test_injection_is_additive(self, annotated_store, product_tables, tokenizer):
        # Splicing labels into the plain serialization by hand must reproduce
        # the template output exactly.
        left, _ = product_tables
        record = left.rows[0]
        plain = serialize_entry(record, AnnotationStore(), PromptMode.SPACE, tokenizer)
        spaced = serialize_entry(record, annotated_store, PromptMode.SPACE, tokenizer)

        expected = []
        for column, value in record.columns:
            expected.append(COL_ID)
            expected.extend(tokenizer.encode_text(column))
            ann = annotated_store.column_type("tableA", column)
            if ann:
                expected.extend(tokenizer.encode_text(ann.predicted_type))
            expected.append(VAL_ID)
            value_ids = tokenizer.encode_text(value)
            cursor = 0
            for m in annotated_store.mentions_for("tableA", record.entry_id, column):
                expected.extend(value_ids[cursor : m.end])
                expected.extend(tokenizer.encode_text(m.entity_type))
                cursor = m.end
            expected.extend(value_ids[cursor:])
        assert list(spaced.tokens) == expected
        # Constrained trunk is exactly the plain serialization.
        pct = serialize_entry(record, annotated_store, PromptMode.CONSTRAINED, tokenizer)
        assert pct.tokens == plain.tokens

    def test_slash_adds_one_token_per_injection(
        self, annotated_store, product_tables, tokenizer
    ):
        left, _ = product_tables
        record = left.rows[0]
        spaced = serialize_entry(record, annotated_store, PromptMode.SPACE, tokenizer)
        slashed = serialize_entry(record, annotated_store, PromptMode.SLASH, tokenizer)
        slash_id = tokenizer.vocab["/"]
        n_injections = 3  # two column types + one mention
        assert len(slashed.tokens) == len(spaced.tokens) + n_injections
        assert [t for t in slashed.tokens if t != slash_id] == list(spaced.tokens)

    def test_constrained_trunk_not_longer_than_templates(
        self, annotated_store, product_tables, tokenizer
    ):
        left, _ = product_tables
        for record in left.rows:
            pct = serialize_entry(record, annotated_store, PromptMode.CONSTRAINED, tokenizer)
            for mode in (PromptMode.SPACE, PromptMode.SLASH):
                templ = serialize_entry(record, annotated_store, mode, tokenizer)
                assert len(pct.tokens) <= len(templ.tokens)


# Labels and column names include texts that tokenize to nothing.
_LABELS = ["song", "mobile phone", "PRODUCT", "", "  "]


@st.composite
def annotated_records(draw):
    """(record, store): 1-3 columns with random column types and random
    disjoint mentions on each value."""
    columns = draw(
        st.lists(st.sampled_from(["title", "price", "brand name", "", " "]),
                 min_size=1, max_size=3, unique=True)
    )
    values = [
        " ".join(draw(st.lists(st.sampled_from(["a", "b", "c-d", "e/f"]), max_size=8)))
        for _ in columns
    ]
    record = make_table("tableA", columns, [values]).rows[0]
    store = AnnotationStore()
    for column, value in zip(columns, values):
        if draw(st.booleans()):
            store.add_column_type(
                ColumnTypeAnnotation("tableA", column, draw(st.sampled_from(_LABELS)), 1.0)
            )
        at, n_tokens = 0, len(tokenize(value))
        while at < n_tokens:
            at += draw(st.integers(min_value=0, max_value=2))
            end = at + draw(st.integers(min_value=1, max_value=3))
            if end <= n_tokens:
                store.add_mention(EntityMention(
                    "tableA", "0", column, at, end, "s", draw(st.sampled_from(_LABELS))
                ))
            at = end
    return record, store


def spliced(record, store, tokenizer, joiner):
    """The entry with each non-empty label, after ``joiner``, spliced in
    right after its head: the column name or the mention span."""
    out = []
    for column, value in record.columns:
        out += [COL_ID, *tokenizer.encode_text(column)]
        ann = store.column_type("tableA", column)
        if ann is not None and tokenize(ann.predicted_type):
            out += [*joiner, *tokenizer.encode_text(ann.predicted_type)]
        out.append(VAL_ID)
        value_ids, cursor = tokenizer.encode_text(value), 0
        for m in store.mentions_for("tableA", record.entry_id, column):
            out += value_ids[cursor : m.end]
            if tokenize(m.entity_type):
                out += [*joiner, *tokenizer.encode_text(m.entity_type)]
            cursor = m.end
        out += value_ids[cursor:]
    return out


class TestModesDifferOnlyInRendering:
    @settings(max_examples=300, deadline=None)
    @given(entry=annotated_records())
    def test_one_walk_three_renderings(self, entry):
        record, store = entry
        table = make_table("tableA", [c for c, _ in record.columns], [])
        tokenizer = build_vocab([table], extra_labels=_LABELS + ["a", "b", "c", "d", "e", "f"])
        space, slash, pct = (
            serialize_entry(record, store, mode, tokenizer)
            for mode in (PromptMode.SPACE, PromptMode.SLASH, PromptMode.CONSTRAINED)
        )
        assert list(space.tokens) == spliced(record, store, tokenizer, [])
        assert list(slash.tokens) == spliced(record, store, tokenizer, [tokenizer.vocab["/"]])
        assert space.sites == slash.sites == ()
        plain = serialize_entry(record, AnnotationStore(), PromptMode.CONSTRAINED, tokenizer)
        assert pct.tokens == plain.tokens
        assert all(s.knowledge and s.head[1] > s.head[0] for s in pct.sites)
        annotated = [c for c, _ in record.columns if store.column_type("tableA", c)]
        if all(tokenize(c) for c in annotated):
            flat = flatten_with_soft_positions(InjectionTree(pct.tokens, pct.sites))[0]
            assert space.tokens == flat


class TestSerializePair:
    def one_column_pair(self):
        table = make_table("tableA", ("a",), [("x",), ("y",)])
        tokenizer = build_vocab([table])
        return table.rows[0], table.rows[1], tokenizer

    def test_skeleton(self):
        e1, e2, tokenizer = self.one_column_pair()
        seq = serialize_pair(e1, e2, AnnotationStore(), PromptMode.SPACE, tokenizer, 64)
        assert (
            decode(tokenizer, seq.tokens)
            == "[CLS] [COL] a [VAL] x [SEP] [COL] a [VAL] y [SEP]"
        )
        assert seq.tokens.count(CLS_ID) == 1
        assert seq.tokens.count(SEP_ID) == 2

    def test_segments(self):
        e1, e2, tokenizer = self.one_column_pair()
        seq = serialize_pair(e1, e2, AnnotationStore(), PromptMode.SPACE, tokenizer, 64)
        first_sep = seq.tokens.index(SEP_ID)
        assert set(seq.segments[: first_sep + 1]) == {0}
        assert set(seq.segments[first_sep + 1 :]) == {1}

    def test_exact_fit_untruncated(self):
        e1, e2, tokenizer = self.one_column_pair()
        full = serialize_pair(e1, e2, AnnotationStore(), PromptMode.SPACE, tokenizer, 64)
        exact = serialize_pair(
            e1, e2, AnnotationStore(), PromptMode.SPACE, tokenizer, len(full.tokens)
        )
        assert exact.tokens == full.tokens

    def test_truncation_comes_from_longer_side(self):
        left = make_table("tableA", ("a",), [(" ".join(f"l{i}" for i in range(10)),)])
        right = make_table("tableB", ("a",), [("r0 r1",)])
        tokenizer = build_vocab([left, right])
        # Untruncated: 1 + (3 + 10) + 1 + (3 + 2) + 1 = 21 tokens.
        seq = serialize_pair(
            left.rows[0], right.rows[0], AnnotationStore(), PromptMode.SPACE,
            tokenizer, 18,
        )
        text = decode(tokenizer, seq.tokens)
        assert len(seq.tokens) == 18
        # All three removed tokens came from the left value tail.
        assert "l6" in text and "l7" not in text and "l9" not in text
        assert "r0" in text and "r1" in text

    def test_overflow_when_values_exhausted(self):
        left = make_table("tableA", ("a", "b", "c"), [("x", "y", "z")])
        right = make_table("tableB", ("a", "b", "c"), [("u", "v", "w")])
        tokenizer = build_vocab([left, right])
        with pytest.raises(SequenceOverflowError):
            serialize_pair(
                left.rows[0], right.rows[0], AnnotationStore(), PromptMode.SPACE,
                tokenizer, 8,
            )

    def test_max_len_minimum(self):
        e1, e2, tokenizer = self.one_column_pair()
        with pytest.raises(DomainError):
            serialize_pair(e1, e2, AnnotationStore(), PromptMode.SPACE, tokenizer, 7)

    def test_run_config_and_serialize_pair_share_the_least_max_len(self):
        e1, e2, tokenizer = self.one_column_pair()
        assert RunConfig(max_len=MIN_MAX_LEN).max_len == MIN_MAX_LEN
        with pytest.raises(DomainError, match="max_len"):
            RunConfig(max_len=MIN_MAX_LEN - 1)
        with pytest.raises(DomainError, match="max_len"):
            serialize_pair(
                e1, e2, AnnotationStore(), PromptMode.SPACE, tokenizer, MIN_MAX_LEN - 1
            )

    def test_sites_offsets_cover_both_sides(
        self, annotated_store, product_tables, tokenizer
    ):
        left, right = product_tables
        seq = serialize_pair(
            left.rows[0], right.rows[0], annotated_store, PromptMode.CONSTRAINED,
            tokenizer, 128,
        )
        first_sep = seq.tokens.index(SEP_ID)
        kinds = {"left": 0, "right": 0}
        for site in seq.sites:
            side = "left" if site.head[1] <= first_sep else "right"
            kinds[side] += 1
            start, end = site.head
            assert 0 < start < end <= len(seq.tokens)
        assert kinds["left"] == 3 and kinds["right"] == 3

    def test_truncation_shifts_and_drops_sites(self, tokenizer):
        left = make_table(
            "tableA", ("title",), [(" ".join(f"w{i}" for i in range(8)),)]
        )
        right = make_table("tableB", ("title",), [("apple iphone",)])
        tok = build_vocab([left, right])
        store = AnnotationStore()
        store.add_mention(
            EntityMention("tableB", "0", "title", 0, 2, "apple iphone", "PRODUCT")
        )
        # Left mention about to be clipped.
        store.add_mention(EntityMention("tableA", "0", "title", 6, 8, "w6 w7", "ORG"))
        full = serialize_pair(
            left.rows[0], right.rows[0], store, PromptMode.CONSTRAINED, tok, 128
        )
        assert len(full.sites) == 2
        # Remove three left-tail value tokens: clips the left mention away.
        seq = serialize_pair(
            left.rows[0], right.rows[0], store, PromptMode.CONSTRAINED, tok,
            len(full.tokens) - 3,
        )
        assert len(seq.sites) == 1
        site = seq.sites[0]
        start, end = site.head
        assert tok.decode(list(seq.tokens[start:end])) == ["apple", "iphone"]

    def test_determinism(self, annotated_store, product_tables, tokenizer):
        left, right = product_tables
        args = (left.rows[0], right.rows[0], annotated_store, PromptMode.SLASH, tokenizer, 64)
        assert serialize_pair(*args) == serialize_pair(*args)

    def test_label_carried(self):
        e1, e2, tokenizer = self.one_column_pair()
        seq = serialize_pair(
            e1, e2, AnnotationStore(), PromptMode.SPACE, tokenizer, 64, label=1
        )
        assert seq.label == 1


def _value_token_indices(tokens, lo, hi):
    """Indices in [lo, hi) that belong to a value region (after a [VAL])."""
    out = []
    in_value = False
    for i in range(lo, hi):
        tok = tokens[i]
        if tok == VAL_ID:
            in_value = True
        elif tok == COL_ID:
            in_value = False
        elif in_value:
            out.append(i)
    return out


def loop_truncate(left, right, max_len):
    """The original drop-one-token-per-iteration truncation, kept as the
    oracle for ``_join_truncated``."""
    tokens = [CLS_ID, *left.tokens, SEP_ID, *right.tokens, SEP_ID]
    sites = [
        Branch((s.head[0] + 1, s.head[1] + 1), s.knowledge, s.kind)
        for s in left.sites
    ]
    right_base = 1 + len(left.tokens) + 1
    sites += [
        Branch(
            (s.head[0] + right_base, s.head[1] + right_base), s.knowledge, s.kind
        )
        for s in right.sites
    ]
    while len(tokens) > max_len:
        first_sep = tokens.index(SEP_ID)
        left_len = first_sep - 1
        right_len = len(tokens) - first_sep - 2
        left_values = _value_token_indices(tokens, 1, first_sep)
        right_values = _value_token_indices(tokens, first_sep + 1, len(tokens) - 1)
        if left_len >= right_len:
            pool = left_values or right_values
        else:
            pool = right_values or left_values
        if not pool:
            raise SequenceOverflowError("values exhausted")
        drop = pool[-1]
        tokens.pop(drop)
        kept_sites = []
        for s in sites:
            start, end = s.head
            if start <= drop < end:
                continue
            if start > drop:
                start, end = start - 1, end - 1
            kept_sites.append(Branch((start, end), s.knowledge, s.kind))
        sites = kept_sites
    first_sep = tokens.index(SEP_ID)
    segments = [0] * (first_sep + 1) + [1] * (len(tokens) - first_sep - 1)
    return tuple(tokens), tuple(segments), tuple(sites)


@st.composite
def entries(draw):
    """A serialized entry: [COL] name.. [VAL] value.. per column, plus sites
    on arbitrary spans of it."""
    words = st.integers(min_value=6, max_value=40)
    tokens = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        tokens += [COL_ID, *draw(st.lists(words, min_size=1, max_size=2))]
        tokens += [VAL_ID, *draw(st.lists(words, max_size=12))]
    sites = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        start = draw(st.integers(min_value=0, max_value=len(tokens)))
        end = draw(st.integers(min_value=start, max_value=len(tokens)))
        sites.append(Branch((start, end), (7,), "entity"))
    return TokenSeq(tuple(tokens), tuple(sites))


@st.composite
def long_entries(draw):
    """Like ``entries``, at long-cell scale: value runs of up to 400 tokens,
    some of them with a [VAL] inside, so both sides reach level and one side
    runs out of values."""
    words = st.integers(min_value=6, max_value=40)
    tokens = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        tokens += [COL_ID, *draw(st.lists(words, min_size=1, max_size=2))]
        run_start = len(tokens) + 1
        n_values = draw(st.integers(min_value=0, max_value=400))
        tokens += [VAL_ID, *(6 + i % 35 for i in range(n_values))]
        if draw(st.booleans()):
            tokens.insert(draw(st.integers(run_start, len(tokens))), VAL_ID)
    sites = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        start = draw(st.integers(min_value=0, max_value=len(tokens)))
        end = draw(st.integers(min_value=start, max_value=min(len(tokens), start + 3)))
        sites.append(Branch((start, end), (7,), "entity"))
    return TokenSeq(tuple(tokens), tuple(sites))


class TestTruncation:
    @settings(max_examples=300, deadline=None)
    @given(left=entries(), right=entries(), cut=st.integers(min_value=-2, max_value=60))
    def test_matches_loop_oracle(self, left, right, cut):
        self.check_against_oracle(left, right, cut)

    @settings(max_examples=200, deadline=None)
    @given(
        left=long_entries(), right=long_entries(),
        cut=st.integers(min_value=-2, max_value=900),
    )
    def test_matches_loop_oracle_at_long_cell_scale(self, left, right, cut):
        self.check_against_oracle(left, right, cut)

    @staticmethod
    def check_against_oracle(left, right, cut):
        max_len = max(8, len(left.tokens) + len(right.tokens) + 3 - cut)
        try:
            want = loop_truncate(left, right, max_len)
        except SequenceOverflowError:
            with pytest.raises(SequenceOverflowError):
                _join_truncated(left, right, max_len)
            return
        assert _join_truncated(left, right, max_len) == want

    def test_long_cells_are_linear(self):
        # 2,000 value tokens a side: the per-token loop took about 0.9 s.
        left = make_table("tableA", ("a",), [(" ".join(f"l{i}" for i in range(2000)),)])
        right = make_table("tableB", ("a",), [(" ".join(f"r{i}" for i in range(2000)),)])
        tokenizer = build_vocab([left, right])
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            seq = serialize_pair(
                left.rows[0], right.rows[0], AnnotationStore(), PromptMode.SPACE,
                tokenizer, 512,
            )
            best = min(best, time.perf_counter() - start)
        assert len(seq.tokens) == 512
        assert best < 0.25, best


class TestBatchIO:
    def test_roundtrip(self, tmp_path, annotated_store, product_tables, tokenizer):
        left, right = product_tables
        seq = serialize_pair(
            left.rows[0], right.rows[0], annotated_store, PromptMode.CONSTRAINED,
            tokenizer, 128, label=1,
        )
        line = pair_to_json(seq)
        path = tmp_path / "batch.jsonl"
        write_batch_file(path, [line])
        assert read_batch_file(path) == [line]
        assert line["label"] == 1
        assert all(set(s) == {"head", "know", "kind"} for s in line["sites"])
