import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knowmatch import injection, serializer
from knowmatch.errors import DomainError, OverlapError, SequenceOverflowError
from knowmatch.injection import (
    Branch,
    InjectionTree,
    assemble,
    build_visible_matrix,
    flatten_with_soft_positions,
)
from knowmatch.knowledge import AnnotationStore, ColumnTypeAnnotation, EntityMention
from knowmatch.serializer import (
    PromptMode,
    TokenSeq,
    build_vocab,
    serialize_pair,
)

from conftest import make_table, reference_flat_layout


def random_tree(rng, max_trunk=32, max_branches=4):
    trunk_len = rng.randint(2, max_trunk)
    trunk = tuple(rng.randint(6, 50) for _ in range(trunk_len))
    n_branches = rng.randint(0, max_branches)
    spans = []
    attempts = 0
    while len(spans) < n_branches and attempts < 50:
        attempts += 1
        start = rng.randint(0, trunk_len - 1)
        end = min(trunk_len, start + rng.randint(1, 3))
        if all(end <= s or e <= start for s, e in spans):
            spans.append((start, end))
    branches = tuple(
        Branch(span, tuple(rng.randint(51, 80) for _ in range(rng.randint(1, 3))))
        for span in sorted(spans)
    )
    return InjectionTree(trunk=trunk, branches=branches)


def oracle_visible(tree):
    """Brute-force pairwise application of the co-occurrence rule."""
    entries = []  # (is_trunk, trunk_pos or None, branch_id or None)
    for pos in range(len(tree.trunk)):
        entries.append((True, pos, None))
        for bi, br in enumerate(tree.branches):
            if br.head[1] - 1 == pos:
                for _ in br.knowledge:
                    entries.append((False, None, bi))
    n = len(entries)
    matrix = np.zeros((n, n), dtype=np.uint8)
    for i in range(n):
        for j in range(n):
            ti, pi, bi = entries[i]
            tj, pj, bj = entries[j]
            if i == j:
                ok = True
            elif ti and tj:
                ok = True
            elif not ti and not tj:
                ok = bi == bj
            else:
                branch = tree.branches[bi if not ti else bj]
                trunk_pos = pj if not ti else pi
                ok = branch.head[0] <= trunk_pos < branch.head[1]
            matrix[i, j] = 1 if ok else 0
    return matrix


class TestInjectionTree:
    def test_zero_sites(self):
        seq = TokenSeq(tokens=(1, 2, 3))
        tree = InjectionTree(seq.tokens, seq.sites)
        assert tree.branches == ()
        assert tree.trunk == (1, 2, 3)

    def test_branch_from_site(self):
        seq = TokenSeq(
            tokens=(2, 10, 3, 11, 12),
            sites=(Branch((3, 4), (42,), "entity"),),
        )
        tree = InjectionTree(seq.tokens, seq.sites)
        assert tree.branches == (Branch((3, 4), (42,), "entity"),)

    def test_two_sites_order_preserved(self):
        seq = TokenSeq(
            tokens=(2, 10, 3, 11, 12),
            sites=(
                Branch((1, 2), (40,), "column"),
                Branch((3, 4), (41,), "entity"),
            ),
        )
        tree = InjectionTree(seq.tokens, seq.sites)
        assert [b.head for b in tree.branches] == [(1, 2), (3, 4)]

    def test_one_branch_type(self):
        assert injection.Branch is serializer.Branch

    def test_constrained_sites_are_branches_with_kind(self):
        left = make_table("tableA", ("title",), [("iphone 99",)])
        right = make_table("tableB", ("title",), [("iphone 99 pro",)])
        store = AnnotationStore()
        store.add_column_type(ColumnTypeAnnotation("tableA", "title", "product", 1.0))
        store.add_mention(EntityMention("tableB", "0", "title", 0, 1, "iphone", "PRODUCT"))
        pair = serialize_pair(
            left.rows[0], right.rows[0], store, PromptMode.CONSTRAINED,
            build_vocab([left, right]), 64,
        )
        assert all(type(site) is Branch for site in pair.sites)
        assert [site.kind for site in pair.sites] == ["column", "entity"]

    def test_overlapping_heads_rejected(self):
        with pytest.raises(OverlapError):
            InjectionTree(trunk=(1, 2, 3, 4), branches=(Branch((0, 2), (9,)), Branch((1, 3), (9,))))

    def test_identical_heads_rejected(self):
        with pytest.raises(OverlapError):
            InjectionTree(trunk=(1, 2, 3, 4), branches=(Branch((1, 3), (9,)), Branch((1, 3), (8,))))

    def test_overlap_rule_matches_pairwise_check(self):
        # Heads declared in any order: rejected iff some two intersect.
        rng = random.Random(4)
        for _ in range(300):
            heads = []
            for _ in range(rng.randint(0, 4)):
                start = rng.randint(0, 9)
                heads.append((start, start + rng.randint(1, 3)))
            clash = any(
                s1 < e2 and s2 < e1
                for i, (s1, e1) in enumerate(heads)
                for (s2, e2) in heads[i + 1 :]
            )
            branches = tuple(Branch(h, (9,)) for h in heads)
            if clash:
                with pytest.raises(OverlapError):
                    InjectionTree(trunk=tuple(range(12)), branches=branches)
            else:
                InjectionTree(trunk=tuple(range(12)), branches=branches)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(DomainError):
            InjectionTree(trunk=(1, 2), branches=(Branch((1, 3), (9,)),))


class TestFlatten:
    def test_spec_example(self):
        # [CLS] [COL] title [VAL] iphone 99 [SEP] + branch on "iphone" (pos 4)
        tree = InjectionTree(
            trunk=(0, 2, 10, 3, 11, 12, 1), branches=(Branch((4, 5), (42,)),)
        )
        tokens, soft, mask = flatten_with_soft_positions(tree)
        assert tokens == (0, 2, 10, 3, 11, 42, 12, 1)
        assert soft == (0, 1, 2, 3, 4, 5, 5, 6)
        assert mask == (1, 1, 1, 1, 1, 0, 1, 1)

    def test_no_branches_hard_positions(self):
        tree = InjectionTree(trunk=(5, 6, 7), branches=())
        tokens, soft, mask = flatten_with_soft_positions(tree)
        assert tokens == (5, 6, 7)
        assert soft == (0, 1, 2)
        assert mask == (1, 1, 1)

    def test_two_token_knowledge_offsets(self):
        trunk = tuple(range(10, 17))
        tree = InjectionTree(trunk=trunk, branches=(Branch((4, 5), (51, 52)),))
        tokens, soft, _ = flatten_with_soft_positions(tree)
        k_positions = [soft[i] for i, t in enumerate(tokens) if t in (51, 52)]
        assert k_positions == [5, 6]

    def test_multi_token_head_anchors_at_last(self):
        trunk = tuple(range(10, 16))
        tree = InjectionTree(trunk=trunk, branches=(Branch((1, 3), (50,)),))
        tokens, soft, _ = flatten_with_soft_positions(tree)
        assert tokens.index(50) == 3  # right after trunk position 2
        assert soft[3] == 3


@st.composite
def injection_trees(draw):
    """Trees whose heads are 1 to 3 tokens long, 0 to 2 tokens apart (0:
    adjacent heads), may end on the last trunk token, carry 0 to 3 knowledge
    tokens, and are listed in any order."""
    n = draw(st.integers(1, 24))
    trunk = tuple(draw(st.lists(st.integers(0, 99), min_size=n, max_size=n)))
    branches = []
    start = draw(st.integers(0, n))
    while start < n and draw(st.booleans()):
        end = min(n, start + draw(st.integers(1, 3)))
        knowledge = tuple(draw(st.lists(st.integers(100, 120), max_size=3)))
        branches.append(Branch((start, end), knowledge))
        start = end + draw(st.integers(0, 2))
    order = draw(st.permutations(range(len(branches))))
    return InjectionTree(trunk, tuple(branches[i] for i in order))


class TestFlatLayout:
    @settings(max_examples=200, deadline=None)
    @given(tree=injection_trees())
    @example(tree=InjectionTree((5, 6, 7), ()))
    @example(tree=InjectionTree((5, 6, 7), (Branch((2, 3), (50, 51)),)))
    @example(tree=InjectionTree((5, 6, 7, 8), (Branch((2, 4), (50,)), Branch((0, 2), (51,)))))
    @example(tree=InjectionTree((5, 6, 7), (Branch((0, 1), ()), Branch((1, 3), (50,)))))
    def test_equals_token_walk(self, tree):
        assert injection._flat_layout(tree) == reference_flat_layout(tree)


class TestVisibleMatrix:
    def test_no_branches_all_ones(self):
        tree = InjectionTree(trunk=(1, 2, 3, 4), branches=())
        assert (build_visible_matrix(tree, 4) == 1).all()

    def test_spec_example_row(self):
        tree = InjectionTree(
            trunk=(0, 2, 10, 3, 11, 12, 1), branches=(Branch((4, 5), (42,)),)
        )
        visible = build_visible_matrix(tree, 8)
        assert visible[5].tolist() == [0, 0, 0, 0, 1, 1, 0, 0]

    def test_cross_branch_invisible(self):
        tree = InjectionTree(
            trunk=tuple(range(10, 18)),
            branches=(Branch((1, 2), (51,)), Branch((4, 6), (52, 53))),
        )
        tokens, _, mask = flatten_with_soft_positions(tree)
        visible = build_visible_matrix(tree, len(tokens))
        i = tokens.index(51)
        j = tokens.index(52)
        assert visible[i, j] == 0 and visible[j, i] == 0
        assert visible[j, tokens.index(53)] == 1  # same branch

    def test_matches_oracle_randomized(self):
        rng = random.Random(0)
        for _ in range(50):
            tree = random_tree(rng)
            tokens, _, _ = flatten_with_soft_positions(tree)
            got = build_visible_matrix(tree, len(tokens))
            assert (got == oracle_visible(tree)).all()

    def test_row_sums(self):
        rng = random.Random(1)
        for _ in range(20):
            tree = random_tree(rng)
            tokens, _, mask = flatten_with_soft_positions(tree)
            visible = build_visible_matrix(tree, len(tokens))
            layout_branch = []
            flat_i = 0
            for pos in range(len(tree.trunk)):
                layout_branch.append(None)
                flat_i += 1
                for bi, br in enumerate(tree.branches):
                    if br.head[1] - 1 == pos:
                        layout_branch.extend([bi] * len(br.knowledge))
                        flat_i += len(br.knowledge)
            n_trunk = len(tree.trunk)
            for i, bi in enumerate(layout_branch):
                if bi is None:
                    pos = sum(1 for x in layout_branch[: i + 1] if x is None) - 1
                    extra = sum(
                        len(br.knowledge)
                        for br in tree.branches
                        if br.head[0] <= pos < br.head[1]
                    )
                    assert visible[i].sum() == n_trunk + extra
                else:
                    br = tree.branches[bi]
                    head_size = br.head[1] - br.head[0]
                    assert visible[i].sum() == head_size + len(br.knowledge)

    def test_bool_mask(self):
        tree = random_tree(random.Random(2))
        tokens, _, _ = flatten_with_soft_positions(tree)
        assert build_visible_matrix(tree, len(tokens)).dtype == bool

    def test_flat_len_mismatch(self):
        tree = InjectionTree(trunk=(1, 2), branches=())
        with pytest.raises(DomainError):
            build_visible_matrix(tree, 5)


class TestAssemble:
    def build_pair(self, mode, max_len=64):
        left = make_table("tableA", ("title",), [("iphone 99",)])
        right = make_table("tableB", ("title",), [("iphone 99 pro",)])
        tokenizer = build_vocab([left, right])
        store = AnnotationStore()
        store.add_mention(
            EntityMention("tableB", "0", "title", 0, 1, "iphone", "PRODUCT")
        )
        pair = serialize_pair(
            left.rows[0], right.rows[0], store, mode, tokenizer, max_len
        )
        return pair, tokenizer

    def test_bool_mask(self):
        pair, _ = self.build_pair(PromptMode.CONSTRAINED)
        assert assemble(pair, 64).visible.dtype == bool

    def test_template_mode_rejected(self):
        pair, _ = self.build_pair(PromptMode.SLASH)
        with pytest.raises(DomainError):
            assemble(pair, 64)

    def test_no_sites_identity(self):
        left = make_table("tableA", ("a",), [("x",)])
        right = make_table("tableB", ("a",), [("y",)])
        tokenizer = build_vocab([left, right])
        pair = serialize_pair(
            left.rows[0], right.rows[0], AnnotationStore(), PromptMode.CONSTRAINED,
            tokenizer, 64,
        )
        inj = assemble(pair, 64)
        assert inj.tokens == pair.tokens
        assert inj.soft_positions == tuple(range(len(pair.tokens)))
        assert (inj.visible == 1).all()
        assert inj.segments == pair.segments
        assert flatten_with_soft_positions(InjectionTree(pair.tokens, pair.sites))[2] == (
            (1,) * len(pair.tokens)
        )

    def test_right_side_branch_inherits_segment_one(self):
        pair, tokenizer = self.build_pair(PromptMode.CONSTRAINED)
        inj = assemble(pair, 64)
        product_id = tokenizer.vocab["product"]
        idx = inj.tokens.index(product_id)
        assert inj.segments[idx] == 1
        assert flatten_with_soft_positions(InjectionTree(pair.tokens, pair.sites))[2][idx] == 0

    def test_overflow_rejected(self):
        pair, _ = self.build_pair(PromptMode.CONSTRAINED)
        with pytest.raises(SequenceOverflowError):
            assemble(pair, len(pair.tokens))  # no room for the branch token

    def test_trunk_recovery(self):
        pair, _ = self.build_pair(PromptMode.CONSTRAINED)
        inj = assemble(pair, 64)
        _, _, trunk_mask = flatten_with_soft_positions(InjectionTree(pair.tokens, pair.sites))
        recovered = [
            tok
            for _, tok in sorted(
                (
                    (soft, tok)
                    for tok, soft, is_trunk in zip(
                        inj.tokens, inj.soft_positions, trunk_mask
                    )
                    if is_trunk
                ),
                key=lambda pair: pair[0],
            )
        ]
        assert tuple(recovered) == pair.tokens
