"""Constrained knowledge injection: injection trees, soft positions, and the
attention visibility matrix.

The serialized trunk stays untouched; every knowledge label becomes a branch
hanging off its head span. Flattening inserts branch tokens right after the
head, soft positions keep trunk tokens at their original indices, and the
visibility matrix confines each branch to its own head.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, FormatError, OverlapError, SequenceOverflowError
from .serializer import InputSequence, PromptMode, TokenSeq


@dataclass(frozen=True)
class Branch:
    """One injected knowledge subsequence attached to a trunk head span."""

    head: tuple[int, int]
    knowledge: tuple[int, ...]


@dataclass(frozen=True)
class InjectionTree:
    """A trunk token sequence with depth-1 knowledge branches."""

    trunk: tuple[int, ...]
    branches: tuple[Branch, ...]

    def __post_init__(self) -> None:
        spans = []
        for br in self.branches:
            start, end = br.head
            if not (0 <= start < end <= len(self.trunk)):
                raise DomainError(
                    f"branch head [{start},{end}) out of bounds for trunk "
                    f"of length {len(self.trunk)}"
                )
            spans.append((start, end))
        for (s1, e1) in spans:
            for (s2, e2) in spans:
                if (s1, e1) < (s2, e2) and s1 < e2 and s2 < e1:
                    raise OverlapError(
                        f"branch heads [{s1},{e1}) and [{s2},{e2}) overlap"
                    )


@dataclass(frozen=True, eq=False)
class InjectedSequence:
    """Flattened injected sequence ready for the encoder."""

    tokens: tuple[int, ...]
    soft_positions: tuple[int, ...]
    visible: np.ndarray  # (L, L) uint8, symmetric, all-ones diagonal
    segments: tuple[int, ...]
    trunk_mask: tuple[int, ...]


def build_injection_tree(seq: TokenSeq | InputSequence) -> InjectionTree:
    """Build the depth-1 tree for a constrained-mode token sequence."""
    return InjectionTree(
        trunk=tuple(seq.tokens),
        branches=tuple(Branch(site.head, site.knowledge) for site in seq.sites),
    )


class _Layout(NamedTuple):
    """Per flat token: its id, soft position, owning branch (-1 for trunk
    tokens) and anchor (its own trunk index, or its head's last one)."""

    tokens: list[int]
    soft: list[int]
    owner: list[int]
    anchor: list[int]


def _flat_layout(tree: InjectionTree) -> _Layout:
    """Walk the tree once in flat order.

    Branch tokens sit immediately after the last token of their head span;
    branches anchored at the same point (only possible with identical heads,
    which validation rejects) would keep declaration order.
    """
    by_anchor: dict[int, list[int]] = {}
    for bi, br in enumerate(tree.branches):
        by_anchor.setdefault(br.head[1] - 1, []).append(bi)
    layout = _Layout([], [], [], [])
    for i, tok in enumerate(tree.trunk):
        layout.tokens.append(tok)
        layout.soft.append(i)
        layout.owner.append(-1)
        layout.anchor.append(i)
        for bi in by_anchor.get(i, ()):
            know = tree.branches[bi].knowledge
            layout.tokens.extend(know)
            layout.soft.extend(range(i + 1, i + 1 + len(know)))
            layout.owner.extend([bi] * len(know))
            layout.anchor.extend([i] * len(know))
    return layout


def _trunk_mask(layout: _Layout) -> tuple[int, ...]:
    return tuple(int(b < 0) for b in layout.owner)


def flatten_with_soft_positions(
    tree: InjectionTree,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Flatten a tree to (tokens, soft_positions, trunk_mask).

    Trunk tokens keep their trunk index as position; the k-th token of a
    branch (k = 1, 2, ...) gets the position of its head's last token plus k.
    """
    layout = _flat_layout(tree)
    return tuple(layout.tokens), tuple(layout.soft), _trunk_mask(layout)


def _visible_matrix(tree: InjectionTree, layout: _Layout) -> np.ndarray:
    owner = np.asarray(layout.owner, dtype=np.intp)
    anchor = np.asarray(layout.anchor, dtype=np.intp)
    in_branch = owner >= 0
    # First trunk index of each token's head span; trunk tokens (owner -1)
    # read the trailing placeholder, which the in_branch test discards.
    head_start = np.asarray([br.head[0] for br in tree.branches] + [0], dtype=np.intp)[owner]
    # Branch token i sees trunk token j iff j lies in i's head span, which
    # ends at i's anchor.
    sees_head = (
        in_branch[:, None]
        & ~in_branch[None, :]
        & (head_start[:, None] <= anchor[None, :])
        & (anchor[None, :] <= anchor[:, None])
    )
    # Equal owners: both trunk, the same branch, or the diagonal.
    visible = (owner[:, None] == owner[None, :]) | sees_head | sees_head.T
    return visible.astype(np.uint8)


def build_visible_matrix(tree: InjectionTree, flat_len: int) -> np.ndarray:
    """Binary visibility matrix over the flattened sequence.

    Two tokens see each other iff they are both trunk tokens, belong to the
    same branch, or are a branch token and a token of that branch's head
    span. Every token sees itself.
    """
    layout = _flat_layout(tree)
    if len(layout.tokens) != flat_len:
        raise DomainError(
            f"flat_len {flat_len} does not match flattened length {len(layout.tokens)}"
        )
    return _visible_matrix(tree, layout)


def assemble(pair: InputSequence, max_len: int) -> InjectedSequence:
    """Expand a constrained-mode pair into its injected sequence.

    Branch tokens inherit the segment of their head's last token. Injection
    never truncates knowledge: an over-budget result is an error.
    """
    if pair.mode is not PromptMode.CONSTRAINED:
        raise DomainError(f"assemble requires constrained mode, got {pair.mode}")
    tree = build_injection_tree(pair)
    layout = _flat_layout(tree)
    if len(layout.tokens) > max_len:
        raise SequenceOverflowError(
            f"injected length {len(layout.tokens)} exceeds max_len {max_len}"
        )
    return InjectedSequence(
        tokens=tuple(layout.tokens),
        soft_positions=tuple(layout.soft),
        visible=_visible_matrix(tree, layout),
        segments=tuple(pair.segments[a] for a in layout.anchor),
        trunk_mask=_trunk_mask(layout),
    )


def pack_visible_rows(visible: np.ndarray) -> list[str]:
    """Encode each row as hex: bit j of row i (little-endian) is V[i][j]."""
    width = max(1, (visible.shape[0] + 3) // 4)
    packed = np.packbits(visible, axis=1, bitorder="little")
    return [format(int.from_bytes(row.tobytes(), "little"), f"0{width}x") for row in packed]


def unpack_visible_rows(rows: Sequence[str], n: int) -> np.ndarray:
    """Inverse of :func:`pack_visible_rows`. Raises ``FormatError`` unless
    there is exactly one row per token."""
    if len(rows) != n:
        raise FormatError(f"{len(rows)} visibility rows for {n} tokens")
    n_bytes = (n + 7) // 8
    mask = (1 << (8 * n_bytes)) - 1
    packed = np.frombuffer(
        b"".join((int(row, 16) & mask).to_bytes(n_bytes, "little") for row in rows),
        dtype=np.uint8,
    ).reshape(n, n_bytes)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little")


def injected_to_json(inj: InjectedSequence, sites_json: list[dict], label) -> dict:
    """Injected-batch line: the serialized line plus soft positions and
    visibility rows. ``tokens``/``segments`` describe the flat sequence."""
    return {
        "tokens": list(inj.tokens),
        "segments": list(inj.segments),
        "sites": sites_json,
        "label": label,
        "soft_pos": list(inj.soft_positions),
        "visible_rows": pack_visible_rows(inj.visible),
    }
