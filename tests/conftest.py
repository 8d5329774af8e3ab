import numpy as np
import pytest

import knowmatch.encoder as enc
from knowmatch.errors import NumericalError
from knowmatch.injection import _Layout
from knowmatch.knowledge import AnnotationStore, ColumnTypeAnnotation, EntityMention
from knowmatch.serializer import build_vocab
from knowmatch.tabular import Record, Table


# Reference implementations of the training kernels: the plain forms that
# the shipped ones must match bit for bit.


def reference_scatter_rows(table, index, values):
    """The 2-D ``np.add.at`` that ``encoder._scatter_rows`` stands for."""
    np.add.at(table, index, values)


def reference_train_step(batch, params, state, lr, config, ws=None):
    """``encoder.train_step`` with Adam run parameter by parameter on
    ``state.m`` and ``state.v``, each with its own scratch."""
    rng = None
    if config.dropout_rate > 0.0:
        rng = np.random.default_rng(config.seed * 1_000_003 + state.step)
    loss_value, grads = enc.loss_and_gradients(batch, params, config, dropout_rng=rng, ws=ws)
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NumericalError(f"non-finite gradient in {name}, step aborted")
    t = state.step + 1
    bc1 = 1.0 - enc.ADAM_BETA1 ** t
    bc2 = 1.0 - enc.ADAM_BETA2 ** t
    for name, p in params.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        u, s = np.empty_like(g), np.empty_like(g)
        m *= enc.ADAM_BETA1
        m += np.multiply(g, 1.0 - enc.ADAM_BETA1, out=u)
        v *= enc.ADAM_BETA2
        np.multiply(g, g, out=u)
        u *= 1.0 - enc.ADAM_BETA2
        v += u
        np.divide(m, bc1, out=u)
        u *= lr
        np.sqrt(np.divide(v, bc2, out=s), out=s)
        s += enc.ADAM_EPS
        u /= s
        p -= u
    state.step = t
    return loss_value


def reference_flat_layout(tree):
    """``injection._flat_layout`` as a walk over the trunk, token by token."""
    by_anchor = {br.head[1] - 1: bi for bi, br in enumerate(tree.branches)}
    layout = _Layout([], [], [], [])
    for i, tok in enumerate(tree.trunk):
        layout.tokens.append(tok)
        layout.soft.append(i)
        layout.owner.append(-1)
        layout.anchor.append(i)
        bi = by_anchor.get(i)
        if bi is not None:
            know = tree.branches[bi].knowledge
            layout.tokens.extend(know)
            layout.soft.extend(range(i + 1, i + 1 + len(know)))
            layout.owner.extend([bi] * len(know))
            layout.anchor.extend([i] * len(know))
    return layout


def make_table(name, schema, rows):
    records = tuple(
        Record(entry_id=str(i), columns=tuple(zip(schema, values)))
        for i, values in enumerate(rows)
    )
    return Table(name=name, schema=tuple(schema), rows=records)


@pytest.fixture
def product_tables():
    left = make_table(
        "tableA",
        ("title", "price"),
        [("apple iphone 6s", "$199.00"), ("galaxy note", "$149.00")],
    )
    right = make_table(
        "tableB",
        ("title", "price"),
        [("apple iphone 6s plus", "$229.00"), ("galaxy note 4", "$150.00")],
    )
    return left, right


@pytest.fixture
def tokenizer(product_tables):
    left, right = product_tables
    return build_vocab([left, right], extra_labels=["song", "mobile phone"])


@pytest.fixture
def annotated_store():
    store = AnnotationStore()
    store.add_column_type(ColumnTypeAnnotation("tableA", "title", "name", 1.0))
    store.add_column_type(ColumnTypeAnnotation("tableA", "price", "price", 1.0))
    store.add_column_type(ColumnTypeAnnotation("tableB", "title", "name", 1.0))
    store.add_column_type(ColumnTypeAnnotation("tableB", "price", "price", 1.0))
    store.add_mention(
        EntityMention("tableA", "0", "title", 0, 2, "apple iphone", "PRODUCT")
    )
    store.add_mention(
        EntityMention("tableB", "0", "title", 0, 2, "apple iphone", "PRODUCT")
    )
    return store
