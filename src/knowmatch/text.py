"""Plain-text tokenization and the integer-id tokenizer.

Tokenization is deliberately simple and reversible enough for record data:
lowercase, split on whitespace, peel leading/trailing punctuation into
single-character tokens, and split word-internal slashes (the slash doubles
as the template joiner, so it must always be its own token).
"""

from __future__ import annotations

import hashlib
import string
from dataclasses import dataclass, field
from pathlib import Path

from .errors import FormatError

CLS, SEP, COL, VAL, UNK, PAD = "[CLS]", "[SEP]", "[COL]", "[VAL]", "[UNK]", "[PAD]"
SPECIAL_TOKENS = (CLS, SEP, COL, VAL, UNK, PAD)
CLS_ID, SEP_ID, COL_ID, VAL_ID, UNK_ID, PAD_ID = range(6)

_PUNCT = set(string.punctuation)


def tokenize(text: str) -> list[str]:
    """Tokenize plain text: lowercase, whitespace split, edge punctuation
    and slashes as separate tokens.

    Special marker strings can never come out of this function: brackets are
    punctuation, so "[CLS]" in source text becomes ["[", "cls", "]"].
    """
    tokens: list[str] = []
    for chunk in text.lower().split():
        i, j = 0, len(chunk)
        lead = []
        while i < j and chunk[i] in _PUNCT and chunk[i] != "/":
            lead.append(chunk[i])
            i += 1
        trail = []
        while j > i and chunk[j - 1] in _PUNCT and chunk[j - 1] != "/":
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


@dataclass(frozen=True)
class Tokenizer:
    """Maps token text to dense integer ids; ids 0..5 are reserved specials."""

    vocab: dict[str, int]
    id_to_token: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for tok, want in zip(SPECIAL_TOKENS, range(6)):
            if self.vocab.get(tok) != want:
                raise FormatError(f"special token {tok} must have id {want}")
        ids = sorted(self.vocab.values())
        if ids != list(range(len(self.vocab))):
            raise FormatError("vocabulary ids must be dense 0..n-1")
        rev = [""] * len(self.vocab)
        for tok, idx in self.vocab.items():
            rev[idx] = tok
        object.__setattr__(self, "id_to_token", tuple(rev))

    def __len__(self) -> int:
        return len(self.vocab)

    def encode_tokens(self, tokens: list[str]) -> list[int]:
        """Map token texts to ids; unknown tokens map to [UNK]."""
        return [self.vocab.get(tok, UNK_ID) for tok in tokens]

    def encode_text(self, text: str) -> list[int]:
        return self.encode_tokens(tokenize(text))

    def decode(self, ids: list[int]) -> list[str]:
        return [self.id_to_token[i] for i in ids]

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self._dump())

    def _dump(self) -> str:
        lines = [f"{tok}\t{idx}" for idx, tok in enumerate(self.id_to_token)]
        return "\n".join(lines) + "\n"

    @property
    def vocab_hash(self) -> str:
        return hashlib.sha256(self._dump().encode("utf-8")).hexdigest()

    @classmethod
    def load(cls, path: str | Path) -> "Tokenizer":
        vocab: dict[str, int] = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise FormatError(f"{path}: bad vocab line {lineno}")
                tok, raw_id = parts
                try:
                    vocab[tok] = int(raw_id)
                except ValueError as exc:
                    raise FormatError(f"{path}: bad id on line {lineno}") from exc
        return cls(vocab=vocab)
