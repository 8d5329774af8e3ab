import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knowmatch.errors import FormatError
from knowmatch.serializer import build_vocab
from knowmatch.text import (
    CLS_ID,
    SPECIAL_TOKENS,
    Tokenizer,
    UNK_ID,
    tokenize,
)

from conftest import make_table


def loop_tokenize(text):
    """The per-character tokenizer, kept as the oracle for ``tokenize``."""
    punct = set(string.punctuation)
    tokens = []
    for chunk in text.lower().split():
        i, j = 0, len(chunk)
        lead = []
        while i < j and chunk[i] in punct and chunk[i] != "/":
            lead.append(chunk[i])
            i += 1
        trail = []
        while j > i and chunk[j - 1] in punct and chunk[j - 1] != "/":
            trail.append(chunk[j - 1])
            j -= 1
        tokens.extend(lead)
        core = chunk[i:j]
        for k, part in enumerate(core.split("/")):
            if k:
                tokens.append("/")
            if part:
                tokens.append(part)
        tokens.extend(reversed(trail))
    return tokens


# Letters, digits, every ASCII punctuation mark (the slash among them),
# non-ASCII letters ("İ" grows by a character when lowercased) and the
# whitespace ``str.split`` breaks on, Unicode spaces and separators too.
TEXT_ALPHABET = (
    string.ascii_letters + string.digits + string.punctuation
    + "éßİΣж" + " \t\n\u00a0\u2003\x1c"
)


class TestTokenize:
    @settings(max_examples=500, deadline=None)
    @given(text=st.text(alphabet=TEXT_ALPHABET, max_size=40))
    def test_matches_loop_oracle(self, text):
        assert tokenize(text) == loop_tokenize(text)

    def test_trailing_punctuation_split(self):
        assert tokenize("iPhone 6s,") == ["iphone", "6s", ","]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("   ") == []

    def test_internal_slash_split(self):
        assert tokenize("A/B") == ["a", "/", "b"]

    def test_leading_punctuation(self):
        assert tokenize("(iphone)") == ["(", "iphone", ")"]

    def test_internal_non_slash_punctuation_kept(self):
        assert tokenize("o'neill u.s.a") == ["o'neill", "u.s.a"]

    def test_specials_cannot_be_produced(self):
        for special in SPECIAL_TOKENS:
            assert special not in tokenize(f"text {special} more")


class TestBuildVocab:
    def test_frequency_then_lex_order(self):
        table = make_table("t", ("c",), [("a b a",)])
        tok = build_vocab([table], min_count=1)
        assert tok.vocab["a"] < tok.vocab["b"]
        assert tok.vocab["a"] >= 6  # after the reserved specials

    def test_knowledge_label_always_included(self):
        table = make_table("t", ("c",), [("plain words only",)])
        tok = build_vocab([table])
        assert "product" in tok.vocab
        assert "/" in tok.vocab

    def test_extra_labels_tokenized(self):
        table = make_table("t", ("c",), [("x",)])
        tok = build_vocab([table], extra_labels=["mobile phone"])
        assert "mobile" in tok.vocab and "phone" in tok.vocab

    def test_min_count_filters(self):
        table = make_table("t", ("c",), [("rare common common",)])
        tok = build_vocab([table], min_count=2)
        assert "common" in tok.vocab
        assert "rare" not in tok.vocab

    def test_deterministic(self):
        table = make_table("t", ("col a",), [("x y z",), ("y z",)])
        assert build_vocab([table]).vocab == build_vocab([table]).vocab

    def test_column_names_in_vocab(self):
        table = make_table("t", ("release year",), [("1999",)])
        tok = build_vocab([table])
        assert "release" in tok.vocab and "year" in tok.vocab


class TestTokenizer:
    def test_specials_have_reserved_ids(self, tokenizer):
        for i, special in enumerate(SPECIAL_TOKENS):
            assert tokenizer.vocab[special] == i

    def test_unknown_maps_to_unk(self, tokenizer):
        assert tokenizer.encode_text("zzzunseen") == [UNK_ID]

    def test_encode_decode(self, tokenizer):
        ids = tokenizer.encode_text("apple iphone 6s")
        assert tokenizer.decode(ids) == ["apple", "iphone", "6s"]

    def test_save_load_roundtrip(self, tokenizer, tmp_path):
        path = tmp_path / "vocab.tsv"
        tokenizer.save(path)
        loaded = Tokenizer.load(path)
        assert loaded.vocab == tokenizer.vocab
        assert loaded.vocab_hash == tokenizer.vocab_hash

    @pytest.mark.parametrize("bad", ["word", "word\tx", "word\t6\t7"])
    def test_bad_vocab_line_rejected(self, tokenizer, tmp_path, bad):
        path = tmp_path / "vocab.tsv"
        tokenizer.save(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(bad + "\n")
        n_lines = len(tokenizer) + 1
        with pytest.raises(FormatError, match=f"vocab.tsv: line {n_lines}: "):
            Tokenizer.load(path)

    def test_bad_special_ids_rejected(self):
        with pytest.raises(FormatError):
            Tokenizer(vocab={"[CLS]": 1, "[SEP]": 0})

    def test_non_dense_ids_rejected(self):
        vocab = {tok: i for i, tok in enumerate(SPECIAL_TOKENS)}
        vocab["word"] = 9
        with pytest.raises(FormatError):
            Tokenizer(vocab=vocab)

    def test_cls_id_is_zero(self):
        assert CLS_ID == 0
