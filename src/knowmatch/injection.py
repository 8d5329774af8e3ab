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

from .errors import DomainError, OverlapError
from .serializer import Branch, InputSequence, PromptMode, check_length


@dataclass(frozen=True)
class InjectionTree:
    """A trunk token sequence with depth-1 knowledge branches. Only their
    ``head`` and ``knowledge`` are read."""

    trunk: tuple[int, ...]
    branches: tuple[Branch, ...]

    def __post_init__(self) -> None:
        for br in self.branches:
            start, end = br.head
            if not (0 <= start < end <= len(self.trunk)):
                raise DomainError(
                    f"branch head [{start},{end}) out of bounds for trunk "
                    f"of length {len(self.trunk)}"
                )
        # Sorted by start, any two intersecting heads make some adjacent pair
        # intersect; identical heads count as intersecting.
        spans = sorted(br.head for br in self.branches)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            if s2 < e1:
                raise OverlapError(f"branch heads [{s1},{e1}) and [{s2},{e2}) overlap")


@dataclass(frozen=True, eq=False)
class InjectedSequence:
    """Flattened injected sequence ready for the encoder."""

    tokens: tuple[int, ...]
    soft_positions: tuple[int, ...]
    visible: np.ndarray  # (L, L) bool, symmetric, all-True diagonal
    segments: tuple[int, ...]


class _Layout(NamedTuple):
    """Per flat token: its id, soft position, owning branch (-1 for trunk
    tokens) and anchor (its own trunk index, or its head's last one)."""

    tokens: list[int]
    soft: list[int]
    owner: list[int]
    anchor: list[int]


def _flat_layout(tree: InjectionTree) -> _Layout:
    """Lay the tree out in flat order, a block at a time: start from the
    trunk and splice each branch's block in right after the last token of
    its head span, last head first, so the trunk positions of the heads
    still to come do not shift.

    Validation rejects intersecting heads, so no two branches share that
    anchor.
    """
    trunk = tree.trunk
    n = len(trunk)
    layout = _Layout(list(trunk), list(range(n)), [-1] * n, list(range(n)))
    for end, bi in sorted(((br.head[1], bi) for bi, br in enumerate(tree.branches)), reverse=True):
        know = tree.branches[bi].knowledge
        k = len(know)
        layout.tokens[end:end] = know
        layout.soft[end:end] = range(end, end + k)
        layout.owner[end:end] = [bi] * k
        layout.anchor[end:end] = [end - 1] * k
    return layout


def flatten_with_soft_positions(
    tree: InjectionTree,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Flatten a tree to (tokens, soft_positions, trunk_mask).

    Trunk tokens keep their trunk index as position; the k-th token of a
    branch (k = 1, 2, ...) gets the position of its head's last token plus k.
    """
    layout = _flat_layout(tree)
    trunk_mask = tuple([1 if b < 0 else 0 for b in layout.owner])
    return tuple(layout.tokens), tuple(layout.soft), trunk_mask


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
    return (owner[:, None] == owner[None, :]) | sees_head | sees_head.T


def build_visible_matrix(tree: InjectionTree, flat_len: int) -> np.ndarray:
    """Bool visibility matrix over the flattened sequence.

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


def expand(tree: InjectionTree, segments: Sequence[int]) -> InjectedSequence:
    """Flatten a tree whose trunk has the given segment ids. Branch tokens
    inherit the segment of their head's last token."""
    layout = _flat_layout(tree)
    return InjectedSequence(
        tokens=tuple(layout.tokens),
        soft_positions=tuple(layout.soft),
        visible=_visible_matrix(tree, layout),
        segments=tuple([segments[a] for a in layout.anchor]),
    )


def assemble(pair: InputSequence, max_len: int) -> InjectedSequence:
    """Expand a constrained-mode pair into its injected sequence."""
    if pair.mode is not PromptMode.CONSTRAINED:
        raise DomainError(f"assemble requires constrained mode, got {pair.mode}")
    check_length(pair, max_len)
    return expand(InjectionTree(pair.tokens, pair.sites), pair.segments)
