import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knowmatch.encoder as enc
from knowmatch import injection
from knowmatch.blas import blas_threads
from knowmatch.encoder import (
    AdamState,
    Batch,
    EncoderConfig,
    attention_weights,
    embed,
    forward,
    init_params,
    load_checkpoint,
    loss,
    loss_and_gradients,
    masked_attention,
    param_shapes,
    save_checkpoint,
    train_step,
)
from knowmatch.errors import DomainError, FormatError, NumericalError

from conftest import reference_scatter_rows, reference_train_step


def small_config(**kwargs):
    defaults = dict(
        vocab_size=32, d_model=16, n_heads=2, n_layers=2, d_ff=24,
        max_position=32, seed=0,
    )
    defaults.update(kwargs)
    return EncoderConfig(**defaults)


def random_batch(config, rng, b=3, l=8, visible=None, labels=None):
    ids = rng.integers(6, config.vocab_size, size=(b, l))
    ids[:, 0] = 0  # [CLS]
    soft = np.tile(np.arange(l), (b, 1))
    seg = np.zeros((b, l), dtype=np.int64)
    vis = np.ones((b, l, l)) if visible is None else visible
    lab = labels if labels is not None else rng.integers(0, 2, size=b)
    return Batch(ids, soft, seg, vis, lab)


def traced_peak(fn):
    """Peak bytes that tracemalloc sees while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def whole_batch_probs(batch, params, config):
    """The training walk's probabilities: ``_encode`` on the whole batch with
    a slot per layer, classified as ``loss_and_gradients`` does."""
    x, _ = enc._encode(batch, params, config, enc.Workspace())
    return enc._classify(x[:, 0, :], params)


class TestEmbed:
    def test_equal_soft_positions_share_position_embedding(self):
        config = small_config(use_segments=False)
        params = init_params(config)
        ids = np.array([[7, 7]])
        soft = np.array([[3, 3]])
        batch = Batch(ids, soft, np.zeros((1, 2), dtype=int), np.ones((1, 2, 2)), None)
        out = embed(batch, params, config)
        np.testing.assert_array_equal(out[0, 0], out[0, 1])

    def test_zero_tables_give_bias_only(self):
        config = small_config()
        params = init_params(config)
        for name in ("tok_emb", "pos_emb", "seg_emb"):
            params[name] = np.zeros_like(params[name])
        params["emb_ln_b"] = np.full_like(params["emb_ln_b"], 0.25)
        batch = random_batch(config, np.random.default_rng(0))
        out = embed(batch, params, config)
        np.testing.assert_allclose(out, 0.25)

    def test_position_overflow(self):
        config = small_config(max_position=4)
        params = init_params(config)
        batch = Batch(
            np.array([[0, 7]]), np.array([[0, 4]]), np.zeros((1, 2), dtype=int),
            np.ones((1, 2, 2)), None,
        )
        with pytest.raises(DomainError):
            embed(batch, params, config)

    def test_segments_can_be_disabled(self):
        config = small_config(use_segments=False)
        params = init_params(config)
        ids = np.array([[0, 7, 8]])
        soft = np.arange(3)[None, :]
        batch_a = Batch(ids, soft, np.zeros((1, 3), dtype=int), np.ones((1, 3, 3)), np.array([1]))
        batch_b = Batch(ids, soft, np.ones((1, 3), dtype=int), np.ones((1, 3, 3)), np.array([1]))
        np.testing.assert_array_equal(
            embed(batch_a, params, config), embed(batch_b, params, config)
        )
        grads = loss_and_gradients(batch_a, params, config)[1]
        assert np.all(grads["seg_emb"] == 0.0)


class TestMaskedAttention:
    def test_self_only_token_attends_to_itself_with_weight_one(self):
        config = small_config()
        params = init_params(config)
        rng = np.random.default_rng(1)
        l = 6
        hidden = rng.normal(size=(1, l, config.d_model))
        visible = np.ones((1, l, l))
        visible[0, 2, :] = 0
        visible[0, :, 2] = 0
        visible[0, 2, 2] = 1
        weights = attention_weights(hidden, visible, params, config)
        np.testing.assert_allclose(weights[0, :, 2, 2], 1.0, atol=1e-15)

    def test_rows_sum_to_one_and_masked_weights_vanish(self):
        config = small_config()
        params = init_params(config)
        rng = np.random.default_rng(2)
        l = 7
        hidden = rng.normal(size=(2, l, config.d_model))
        visible = np.ones((2, l, l))
        visible[0, 1, 4] = visible[0, 4, 1] = 0
        visible[1, 0, 3] = visible[1, 3, 0] = 0
        weights = attention_weights(hidden, visible, params, config)
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-12)
        assert (weights[0, :, 1, 4] < 1e-30).all()
        assert (weights[1, :, 0, 3] < 1e-30).all()

    def test_invisible_perturbation_changes_nothing_exactly(self):
        config = small_config(n_layers=1)
        params = init_params(config)
        rng = np.random.default_rng(3)
        l = 6
        hidden = rng.normal(size=(1, l, config.d_model))
        visible = np.ones((1, l, l))
        visible[0, 0, 4] = visible[0, 4, 0] = 0
        base = masked_attention(hidden, visible, params, config)
        perturbed = hidden.copy()
        perturbed[0, 4, :] += 1.0
        out = masked_attention(perturbed, visible, params, config)
        assert np.max(np.abs(out[0, 0] - base[0, 0])) == 0.0

    def test_visible_perturbation_changes_output(self):
        config = small_config(n_layers=1)
        params = init_params(config)
        rng = np.random.default_rng(4)
        l = 6
        hidden = rng.normal(size=(1, l, config.d_model))
        visible = np.ones((1, l, l))
        base = masked_attention(hidden, visible, params, config)
        perturbed = hidden.copy()
        perturbed[0, 4, :] += 1.0
        out = masked_attention(perturbed, visible, params, config)
        assert np.max(np.abs(out[0, 0] - base[0, 0])) > 1e-9

    def test_all_ones_equals_reference_attention(self):
        # Single head so the reference is easy to write out.
        config = small_config(n_heads=1, n_layers=1)
        params = init_params(config)
        rng = np.random.default_rng(5)
        l = 5
        x = rng.normal(size=(1, l, config.d_model))
        got = masked_attention(x, np.ones((1, l, l)), params, config)

        q = x[0] @ params["l0.wq"] + params["l0.bq"]
        k = x[0] @ params["l0.wk"] + params["l0.bk"]
        v = x[0] @ params["l0.wv"] + params["l0.bv"]
        scores = q @ k.T / math.sqrt(config.d_model)
        w = np.exp(scores - scores.max(axis=-1, keepdims=True))
        w /= w.sum(axis=-1, keepdims=True)
        attn = (w @ v) @ params["l0.wo"] + params["l0.bo"]
        z = x[0] + attn
        mu = z.mean(-1, keepdims=True)
        var = ((z - mu) ** 2).mean(-1, keepdims=True)
        ref = params["l0.ln1_g"] * (z - mu) / np.sqrt(var + 1e-5) + params["l0.ln1_b"]
        np.testing.assert_allclose(got[0], ref, atol=1e-12)


class TestForward:
    def test_rows_sum_to_one(self):
        config = small_config()
        params = init_params(config)
        batch = random_batch(config, np.random.default_rng(6))
        probs = forward(batch, params, config)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_zero_head_gives_uniform(self):
        config = small_config()
        params = init_params(config)
        params["cls_w"] = np.zeros_like(params["cls_w"])
        params["cls_b"] = np.zeros_like(params["cls_b"])
        batch = random_batch(config, np.random.default_rng(7))
        probs = forward(batch, params, config)
        np.testing.assert_array_equal(probs, 0.5)

    def test_duplicated_row_duplicated_probs(self):
        config = small_config()
        params = init_params(config)
        batch = random_batch(config, np.random.default_rng(8), b=2)
        dup = Batch(
            np.vstack([batch.token_ids, batch.token_ids[:1]]),
            np.vstack([batch.soft_positions, batch.soft_positions[:1]]),
            np.vstack([batch.segments, batch.segments[:1]]),
            np.vstack([batch.visible, batch.visible[:1]]),
            None,
        )
        probs = forward(dup, params, config)
        np.testing.assert_array_equal(probs[0], probs[2])

    def test_permutation_equivariance(self):
        config = small_config()
        params = init_params(config)
        batch = random_batch(config, np.random.default_rng(9), b=4)
        perm = [2, 0, 3, 1]
        permuted = Batch(
            batch.token_ids[perm], batch.soft_positions[perm],
            batch.segments[perm], batch.visible[perm], None,
        )
        probs = forward(batch, params, config)
        np.testing.assert_array_equal(forward(permuted, params, config), probs[perm])

    def test_nonfinite_raises(self):
        config = small_config()
        params = init_params(config)
        params["cls_w"] = params["cls_w"] * np.inf
        batch = random_batch(config, np.random.default_rng(10))
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
            forward(batch, params, config)


def bias_always(batch, dtype, ws):
    """``_mask_bias`` that builds the bias even when every cell is visible,
    from the batch's dense mask."""
    visible = batch.visible
    bias = np.subtract(1.0, visible, out=ws.get("bias", visible.shape, dtype))
    bias *= enc.MASK_VALUE
    return bias[:, None]


def scores_scaled_attention_block(
    x, bias, params, prefix, config, ws, attn_dropout_mask=None, slot=None, cls_only=False,
    score_bytes=None,
):
    """``_attention_block`` that adds the bias and scales the scores, not
    the queries: the reference walk for the encoder's. It ignores
    ``score_bytes`` and keeps every head in one score block."""
    slot = slot or prefix
    h = config.n_heads
    b, n, d = x.shape
    l = bias.shape[-1]
    lq = 1 if cls_only else n
    xq = x[:, :lq]
    scale = 1.0 / math.sqrt(config.head_dim)
    q = enc._linear(xq, params[f"{prefix}.wq"], params[f"{prefix}.bq"],
                    ws.get(f"{slot}.q", xq.shape, x.dtype))
    k, v = (ws.get(f"{slot}.{name}", (b, l, d), x.dtype) for name in "kv")
    for name, out in (("k", k), ("v", v)):
        enc._linear(x, params[f"{prefix}.w{name}"], params[f"{prefix}.b{name}"], out[:, :n])
        out[:, n:] = 0.0
    weights = np.matmul(
        enc._split_heads(q, h), enc._split_heads(k, h).transpose(0, 1, 3, 2),
        out=ws.get(f"{slot}.weights", (b, h, lq, l), x.dtype),
    )
    weights *= scale
    weights += bias[:, :, :lq]
    enc._softmax(weights)
    used = weights
    if attn_dropout_mask is not None:
        attn_dropout_mask = attn_dropout_mask[:, :, :lq]
        used = np.multiply(
            weights, attn_dropout_mask, out=ws.get(f"{slot}.used", weights.shape, x.dtype)
        )
    ctx = ws.get(f"{slot}.ctx", xq.shape, x.dtype)
    np.matmul(used, enc._split_heads(v, h), out=enc._split_heads(ctx, h))
    attn = enc._linear(ctx, params[f"{prefix}.wo"], params[f"{prefix}.bo"],
                       ws.get(f"{slot}.ln1", xq.shape, x.dtype))
    attn += xq
    out, ln_cache = enc._layer_norm(
        attn, params[f"{prefix}.ln1_g"], params[f"{prefix}.ln1_b"],
        ws.get(f"{slot}.x1", xq.shape, x.dtype), ws,
    )
    cache = {
        "x": x, "q": q, "k": k, "v": v, "weights": weights, "used": used,
        "ctx": ctx, "ln": ln_cache, "dropout": attn_dropout_mask,
    }
    return out, cache


def scores_scaled_attention_backward(dx1, cache, params, prefix, config, ws, grads):
    """``_attention_backward`` for ``scores_scaled_attention_block``'s
    unscaled queries: dq and dk both take the scale."""
    h = config.n_heads
    dtype = dx1.dtype
    scale = 1.0 / math.sqrt(config.head_dim)
    dz, dg, dbv = enc._layer_norm_backward(dx1, cache["ln"], params[f"{prefix}.ln1_g"], ws)
    grads[f"{prefix}.ln1_g"] = dg
    grads[f"{prefix}.ln1_b"] = dbv
    x, q, k, v = cache["x"], cache["q"], cache["k"], cache["v"]
    weights, used = cache["weights"], cache["used"]
    grads[f"{prefix}.wo"] = enc._rows(cache["ctx"]).T @ enc._rows(dz)
    grads[f"{prefix}.bo"] = dz.sum(axis=(0, 1))
    dctx = np.matmul(dz, params[f"{prefix}.wo"].T, out=dx1)
    dscores = np.matmul(
        enc._split_heads(dctx, h), enc._split_heads(v, h).transpose(0, 1, 3, 2),
        out=ws.get("dscores", weights.shape, dtype),
    )
    dq, dk, dv = dctx, k, v
    np.matmul(used.transpose(0, 1, 3, 2), enc._split_heads(dctx, h), out=enc._split_heads(dv, h))
    if cache["dropout"] is not None:
        dscores *= cache["dropout"]
    dscores -= np.multiply(
        dscores, weights, out=ws.get("tmp", weights.shape, dtype)
    ).sum(axis=-1, keepdims=True)
    dscores *= weights
    np.matmul(dscores, enc._split_heads(k, h), out=enc._split_heads(dq, h))
    np.matmul(
        dscores.transpose(0, 1, 3, 2), enc._split_heads(q, h), out=enc._split_heads(dk, h)
    )
    dq *= scale
    dk *= scale
    lq = q.shape[1]
    for n, rows, dn in (("q", x[:, :lq], dq), ("k", x, dk), ("v", x, dv)):
        grads[f"{prefix}.w{n}"] = enc._rows(rows).T @ enc._rows(dn)
        grads[f"{prefix}.b{n}"] = dn.sum(axis=(0, 1))
    dqx = np.matmul(dq, params[f"{prefix}.wq"].T, out=q)
    dqx += dz
    dx = np.matmul(dk, params[f"{prefix}.wk"].T, out=ws.get("dx", x.shape, dtype))
    dx[:, :lq] += dqx
    dx += np.matmul(dv, params[f"{prefix}.wv"].T, out=dk)
    return dx


class TestKernels:
    @staticmethod
    def pow_gelu(x):
        u = enc._GELU_C * (x + enc._GELU_A * x ** 3)
        return 0.5 * x * (1.0 + np.tanh(u))

    @staticmethod
    def pow_gelu_grad(x):
        t = np.tanh(enc._GELU_C * (x + enc._GELU_A * x ** 3))
        return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * enc._GELU_C * (
            1.0 + 3.0 * enc._GELU_A * x ** 2
        )

    def test_gelu_matches_pow_form(self):
        x = np.random.default_rng(20).normal(size=(50, 40, 50))
        t = enc._gelu_tanh(x, np.empty_like(x))
        gelu = enc._gelu(x, t, np.empty_like(x), np.empty_like(x))
        # The derivative kernel overwrites the t it is given.
        grad = enc._gelu_grad(x, t.copy(), np.empty_like(x), np.empty_like(x))
        np.testing.assert_allclose(gelu, self.pow_gelu(x), rtol=1e-12, atol=0)
        np.testing.assert_allclose(grad, self.pow_gelu_grad(x), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("mask", ["all_ones", "constrained"])
    def test_forward_equals_forward_cache_bitwise(self, mask):
        config = small_config()
        params = init_params(config)
        rng = np.random.default_rng(21)
        visible = None
        if mask == "constrained":
            visible = (rng.random((3, 8, 8)) < 0.6).astype(float)
            visible = np.maximum(visible, visible.transpose(0, 2, 1))
            visible[:, np.arange(8), np.arange(8)] = 1.0
            visible[2, 6:, :] = visible[2, :, 6:] = 0.0  # padding
        batch = random_batch(config, rng, visible=visible)
        probs = whole_batch_probs(batch, params, config)
        np.testing.assert_array_equal(forward(batch, params, config), probs)

    @staticmethod
    def visible(mask, rng, b=5, l=8):
        """A padded all-ones or a random symmetric (constrained) mask."""
        if mask == "all_ones_padded":
            visible = np.ones((b, l, l))
            for row, n in enumerate((8, 5, 3, 8, 6)):
                visible[row, n:, :] = visible[row, :, n:] = 0.0
        else:
            visible = (rng.random((b, l, l)) < 0.6).astype(float)
            visible = np.maximum(visible, visible.transpose(0, 2, 1))
            visible[:, np.arange(l), np.arange(l)] = 1.0
        return visible

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("mask", ["all_ones_padded", "constrained"])
    def test_cls_only_last_layer_equals_full_layer(self, mask, n_layers):
        config = small_config(n_layers=n_layers)
        params = init_params(config)
        rng = np.random.default_rng(25)
        batch = random_batch(config, rng, b=5, l=8, visible=self.visible(mask, rng))
        x, _ = enc._encode(batch, params, config, enc.Workspace())
        assert x.shape == (5, 1, config.d_model)

        # Reference: every layer, the last one too, over all rows.
        ws = enc.Workspace()
        full, _ = enc._embed_cache(batch, params, config, ws)
        bias = enc._mask_bias(batch, full.dtype, ws)
        for i in range(n_layers):
            full, _ = enc._attention_block(full, bias, params, f"l{i}", config, ws)
            full, _ = enc._ffn_block(full, params, f"l{i}", ws)
        assert full.shape == (5, 8, config.d_model)
        np.testing.assert_allclose(x[:, 0], full[:, 0], rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "mask, n_layers",
        [
            ("all_ones_padded", 2), ("constrained", 2),
            ("all_ones_padded", 1), ("constrained", 1),
            ("all_ones_padded", 3), ("constrained", 3),
        ],
        ids=[
            "all_ones_padded", "constrained",
            "all_ones_padded-1-layer", "constrained-1-layer",
            "all_ones_padded-3-layers", "constrained-3-layers",
        ],
    )
    def test_chunked_forward_equals_forward_cache_bitwise(self, mask, n_layers, monkeypatch):
        config = small_config(n_layers=n_layers)
        params = init_params(config)
        rng = np.random.default_rng(23)
        b, l = 5, 8
        batch = random_batch(config, rng, b=b, l=l, visible=self.visible(mask, rng, b, l))
        probs = whole_batch_probs(batch, params, config)

        # Room for two rows of scores: chunks of 2, 2 and 1 rows.
        monkeypatch.setattr(enc, "ATTN_CHUNK_BYTES", 2 * config.n_heads * l * l * 8)
        chunk_rows = []
        real_embed = enc._embed_cache

        def spy_embed(chunk, *args):
            chunk_rows.append(chunk.size)
            return real_embed(chunk, *args)

        monkeypatch.setattr(enc, "_embed_cache", spy_embed)
        np.testing.assert_array_equal(forward(batch, params, config), probs)
        assert chunk_rows == [2, 2, 1]

    @staticmethod
    def long_batch(config, rng, mask, lengths=(1, 73, 200, 300, 512)):
        """An L=512 ``from_sequences`` batch with these real lengths: odd
        ones, both sides of 128 and one past 384. Template rows are fully
        visible; constrained rows get a random symmetric mask."""
        seqs = []
        for n in lengths:
            tokens = rng.integers(6, config.vocab_size, size=n)
            tokens[0] = 0
            visible = None
            if mask == "constrained":
                visible = rng.random((n, n)) < 0.6
                visible |= visible.T
                visible[np.arange(n), np.arange(n)] = True
            seqs.append((tokens, None, rng.integers(0, 2, size=n), visible, 1))
        return Batch.from_sequences(seqs, pad_id=5)

    @pytest.mark.parametrize("chunk_rows", [1, 2])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("mask", ["template", "constrained"])
    def test_trimmed_forward_equals_training_walk_bitwise(
        self, mask, dtype, chunk_rows, monkeypatch
    ):
        # On one BLAS thread, as ``evaluate`` runs: OpenBLAS splits a
        # product's rows between threads by their count, so on more threads
        # n rows and L rows can be summed in different tiles.
        config = small_config(
            d_model=64, n_heads=4, d_ff=128, max_position=512, dtype=dtype
        )
        params = init_params(config)
        batch = self.long_batch(config, np.random.default_rng(26), mask)
        with blas_threads(1):
            probs = whole_batch_probs(batch, params, config)

        itemsize = np.dtype(config.np_dtype).itemsize
        monkeypatch.setattr(
            enc, "ATTN_CHUNK_BYTES", chunk_rows * config.n_heads * 512 * 512 * itemsize
        )
        scores = []
        real_block = enc._attention_block

        def spy_block(x, bias, params, prefix, *args, **kwargs):
            out, cache = real_block(x, bias, params, prefix, *args, **kwargs)
            scores.append((prefix, cache["weights"].shape))
            return out, cache

        monkeypatch.setattr(enc, "_attention_block", spy_block)
        with blas_threads(1):
            np.testing.assert_array_equal(forward(batch, params, config), probs)
        # Each chunk's longest real row, rounded up to a multiple of 48.
        n = {1: [48, 96, 240, 336, 512], 2: [96, 336, 512]}[chunk_rows]
        sizes = [min(chunk_rows, 5 - start) for start in range(0, 5, chunk_rows)]
        assert scores == [
            entry
            for rows, trimmed in zip(sizes, n)
            for entry in (("l0", (rows, 4, trimmed, 512)), ("l1", (rows, 4, 1, 512)))
        ]

    def test_forward_peak_memory_bounded_per_chunk(self):
        # The long-cell scoring shape: a whole-batch forward peaks at about
        # 218 MB here (scores and mask bias of all 16 rows), a chunked one
        # that scores one head group at a time at about 7 MB. One row's
        # scores for all 4 heads would take 8 MiB alone.
        config = small_config(d_model=64, n_heads=4, d_ff=128, max_position=512)
        params = init_params(config)
        batch = random_batch(config, np.random.default_rng(24), b=16, l=512)
        peak = traced_peak(lambda: forward(batch, params, config))
        assert peak < 64e6, peak / 1e6
        assert peak < config.n_heads * 512 * 512 * 8, peak / 1e6

    def test_forward_peak_memory_keeps_no_layer_caches(self):
        config = small_config(n_heads=4, max_position=256)
        params = init_params(config)
        b, l = 4, 256
        batch = random_batch(config, np.random.default_rng(22), b=b, l=l)
        one_weights = b * config.n_heads * l * l * 8
        peak = traced_peak(lambda: forward(batch, params, config))
        assert peak < 4 * one_weights, peak / one_weights

    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_key_bias_equals_dense_mask_bitwise(self, dtype, dropout):
        # A mask-free template batch masks its padding keys alone, so its
        # padding query rows attend to the real keys; no real row reads
        # them, and the gradients that reach them are zeros of either sign.
        # At L 200 ``forward`` runs row chunks of 1 (float64) or 3 (float32)
        # rows, some trimmed below L. The dense batch, built without lengths,
        # is full width, so its walk trims nothing.
        config = small_config(
            d_model=64, n_heads=4, d_ff=128, max_position=200, dtype=dtype,
            dropout_rate=dropout,
        )
        lengths = (200, 50, 96, 7)
        free = self.long_batch(config, np.random.default_rng(32), "template", lengths)
        assert free.mask is None
        dense = Batch(free.token_ids, free.soft_positions, free.segments, free.visible, free.labels)
        np.testing.assert_array_equal(dense.lengths, [200] * 4)
        results = []
        for batch in (free, dense):
            params = init_params(config)
            with blas_threads(1):
                probs = forward(batch, params, config)
                value, grads = loss_and_gradients(
                    batch, params, config, np.random.default_rng(5)
                )
                step_loss = train_step(batch, params, AdamState.init(params), 1e-3, config)
            results.append((probs, value, grads, step_loss, params))
        (probs, value, grads, step_loss, params), want = results
        assert probs.tobytes() == want[0].tobytes()
        assert value == want[1] and step_loss == want[3]
        for name in params:
            assert np.array_equal(grads[name], want[2][name]), name
            assert params[name].tobytes() == want[4][name].tobytes(), name

    def test_key_bias_saves_the_dense_bias(self):
        # A padded template batch at (16, 256): its dense mask's float64
        # (B, 1, L, L) bias alone takes 8.4 MB.
        config = small_config(n_layers=1, max_position=256)
        params = init_params(config)
        rng = np.random.default_rng(33)
        lengths = [256] + list(rng.integers(1, 256, size=15))
        free = Batch.from_sequences(
            [(rng.integers(6, 32, size=n), None, [0] * n, None, 1) for n in lengths], pad_id=5
        )
        dense = Batch(free.token_ids, free.soft_positions, free.segments, free.visible, free.labels)
        peaks = [
            traced_peak(lambda batch=batch: loss_and_gradients(batch, params, config))
            for batch in (free, dense)
        ]
        assert peaks[1] - peaks[0] >= 8e6, [p / 1e6 for p in peaks]

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("mask", ["all_visible", "padded", "constrained"])
    def test_unbiased_walk_equals_biased_scaled_scores_walk(self, mask, dtype, monkeypatch):
        # Head width 16, a power of 4: the scale is 1/4, so scaling q
        # instead of the scores changes no bit, and neither does a skipped
        # bias of zeros.
        config = small_config(
            d_model=64, n_heads=4, d_ff=128, max_position=96, dtype=dtype,
            dropout_rate=0.1,
        )
        lengths = (96, 50, 96, 7) if mask == "padded" else (96,) * 4
        batch = self.long_batch(
            config, np.random.default_rng(28),
            "constrained" if mask == "constrained" else "template", lengths,
        )
        bias = enc._mask_bias(batch, config.np_dtype, enc.Workspace())
        assert (bias is None) == (mask == "all_visible")

        def run():
            params = init_params(config)
            with blas_threads(1):
                probs = forward(batch, params, config)
                step_loss = train_step(batch, params, AdamState.init(params), 1e-3, config)
            return probs, step_loss, params

        probs, step_loss, params = run()
        monkeypatch.setattr(enc, "_mask_bias", bias_always)
        monkeypatch.setattr(enc, "_attention_block", scores_scaled_attention_block)
        monkeypatch.setattr(enc, "_attention_backward", scores_scaled_attention_backward)
        want_probs, want_loss, want_params = run()
        assert probs.tobytes() == want_probs.tobytes()
        assert step_loss == want_loss
        for name in params:
            assert params[name].tobytes() == want_params[name].tobytes(), name

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("mask", ["padded", "constrained"])
    def test_head_groups_equal_one_block_bitwise(self, mask, dtype, monkeypatch):
        # A budget of one head's (L, L) block forces one-row chunks and head
        # groups of one in ``forward``; an unbounded one, like the default at
        # this shape, keeps the batch in one chunk and every head in one block.
        config = small_config(
            d_model=64, n_heads=4, d_ff=128, max_position=96, dtype=dtype
        )
        l = 96
        lengths = (96, 50, 96, 7) if mask == "padded" else (l,) * 4
        batch = self.long_batch(
            config, np.random.default_rng(30),
            "constrained" if mask == "constrained" else "template", lengths,
        )
        params = init_params(config)
        groups = []
        real_groups = enc._head_groups

        def spy_groups(*args):
            out = real_groups(*args)
            groups.append(out[0].stop)
            return out

        monkeypatch.setattr(enc, "_head_groups", spy_groups)

        def run(score_bytes):
            monkeypatch.setattr(enc, "ATTN_CHUNK_BYTES", score_bytes)
            groups.clear()
            with blas_threads(1):
                probs = forward(batch, params, config)
            return probs, set(groups)

        probs, sizes = run(2**40)
        assert sizes == {config.n_heads}
        itemsize = np.dtype(config.np_dtype).itemsize
        want_probs, sizes = run(l * l * itemsize)
        assert 1 in sizes
        assert probs.tobytes() == want_probs.tobytes()


class TestLoss:
    def test_uniform_is_ln2(self):
        value = loss(np.array([[0.5, 0.5]]), np.array([1]))
        assert abs(value - math.log(2)) < 1e-12

    def test_perfect_prediction_is_zero(self):
        assert loss(np.array([[0.0, 1.0]]), np.array([1])) == 0.0

    def test_hand_computed_mean(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8]])
        labels = np.array([0, 1])
        expected = -(math.log(0.9) + math.log(0.8)) / 2
        assert abs(loss(probs, labels) - expected) < 1e-12
        assert abs(loss(probs, labels) - 0.164252033486018) < 1e-9

    def test_zero_probability_clamped_with_warning(self):
        with pytest.warns(RuntimeWarning):
            value = loss(np.array([[1.0, 0.0]]), np.array([1]))
        assert value == pytest.approx(-math.log(1e-12))


class TestGradients:
    @pytest.mark.parametrize("use_segments", [True, False])
    @pytest.mark.parametrize("n_layers", [0, 1, 2])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_one_gradient_per_parameter(self, n_layers, use_segments, dtype):
        config = small_config(n_layers=n_layers, use_segments=use_segments, dtype=dtype)
        params = init_params(config)
        batch = random_batch(config, np.random.default_rng(4))
        grads = loss_and_gradients(batch, params, config)[1]
        assert set(grads) == set(params)
        for name, arr in params.items():
            assert grads[name].shape == arr.shape, name
            assert grads[name].dtype == arr.dtype, name
        assert np.any(grads["seg_emb"]) == use_segments

    def test_unused_vocab_row_has_zero_gradient(self):
        config = small_config()
        params = init_params(config)
        rng = np.random.default_rng(11)
        unused = config.vocab_size - 1
        ids = rng.integers(6, unused, size=(3, 8))
        ids[:, 0] = 0
        batch = Batch(
            ids, np.tile(np.arange(8), (3, 1)), np.zeros((3, 8), dtype=int),
            np.ones((3, 8, 8)), rng.integers(0, 2, size=3),
        )
        grads = loss_and_gradients(batch, params, config)[1]
        assert np.all(grads["tok_emb"][unused] == 0.0)

    def test_token_invisible_to_cls_gets_no_gradient_one_layer(self):
        config = small_config(n_layers=1)
        params = init_params(config)
        l = 6
        ids = np.array([[0, 7, 8, 9, 10, 11]])
        soft = np.arange(l)[None, :]
        seg = np.zeros((1, l), dtype=int)
        visible = np.ones((1, l, l))
        # Token 3 invisible to everything but itself.
        visible[0, 3, :] = 0
        visible[0, :, 3] = 0
        visible[0, 3, 3] = 1
        batch = Batch(ids, soft, seg, visible, np.array([1]))
        grads = loss_and_gradients(batch, params, config)[1]
        # Unique token id 9 and position 3 feed only the dead token.
        assert np.all(grads["tok_emb"][9] == 0.0)
        assert np.all(grads["pos_emb"][3] == 0.0)
        assert np.any(grads["tok_emb"][7] != 0.0)

    def test_matches_finite_differences(self):
        config = small_config()
        params = init_params(config)
        rng = np.random.default_rng(12)
        visible = np.ones((2, 6, 6))
        visible[0, 1, 4] = visible[0, 4, 1] = 0
        batch = random_batch(config, rng, b=2, l=6, visible=visible)
        self.check_finite_differences(
            batch, params, config, ("l0.wq", "l1.w1", "cls_w", "emb_ln_g", "tok_emb"), rng
        )

    @pytest.mark.parametrize("n_layers", [1, 3])
    def test_matches_finite_differences_padded(self, n_layers):
        config = small_config(n_layers=n_layers)
        params = init_params(config)
        rng = np.random.default_rng(13)
        visible = np.ones((2, 6, 6))
        visible[1, 4:, :] = visible[1, :, 4:] = 0.0  # row 1 has 4 tokens
        batch = random_batch(config, rng, b=2, l=6, visible=visible)
        last = f"l{n_layers - 1}"
        names = ("l0.wq", "l0.wv", "l0.w1") + tuple(
            f"{last}.{suffix}" for suffix in ("wq", "bq", "wk", "wv", "bv", "wo", "ln1_g", "w2")
        ) + ("pos_emb", "tok_emb")
        self.check_finite_differences(batch, params, config, names, rng)

    def test_float32_matches_float64_at_the_same_parameters(self):
        # Row 0 carries a two-token branch at positions 6-7 on head token 2:
        # the branch sees itself and its head, and only the head sees it.
        # Row 1 is 5 tokens long, row 2 the full 8.
        config32 = small_config(dtype="float32")
        params32 = init_params(config32)
        params64 = {name: p.astype(np.float64) for name, p in params32.items()}
        b, l = 3, 8
        visible = np.zeros((b, l, l), dtype=bool)
        visible[0, :6, :6] = True
        visible[0, 6:, 6:] = visible[0, 6:, 2] = visible[0, 2, 6:] = True
        visible[1, :5, :5] = True
        visible[2] = True
        rng = np.random.default_rng(15)
        ids = rng.integers(6, config32.vocab_size, size=(b, l))
        ids[:, 0] = 0
        ids[1, 5:] = 1  # [PAD]
        soft = np.tile(np.arange(l), (b, 1))
        soft[0, 6:] = [3, 4]
        segments = (np.arange(l) >= 4).astype(np.int64)[None].repeat(b, axis=0)
        batch = Batch(ids, soft, segments, visible, np.array([1, 0, 1]))

        loss32, g32 = loss_and_gradients(batch, params32, config32)
        loss64, g64 = loss_and_gradients(batch, params64, small_config())
        assert loss32 == pytest.approx(loss64, rel=1e-5)
        largest = max(np.linalg.norm(g) for g in g64.values())
        for name, g in g64.items():
            assert g32[name].dtype == np.float32, name
            err = np.linalg.norm(g32[name] - g)
            if name.endswith(".bk"):
                # Softmax is shift-invariant, so the key bias's true gradient
                # is zero and both dtypes read rounding alone.
                assert err <= 1e-6 * largest, name
            else:
                assert err <= 1e-4 * np.linalg.norm(g), name

    @staticmethod
    def check_finite_differences(batch, params, config, names, rng):
        """Central differences of the eval loss at 8 random coordinates of
        each named parameter match the analytic gradient (rel 1e-4)."""
        _, grads = loss_and_gradients(batch, params, config)
        h = 1e-4
        for name in names:
            flat = params[name].reshape(-1)
            gflat = grads[name].reshape(-1)
            for i in rng.choice(flat.size, size=8, replace=False):
                orig = flat[i]
                flat[i] = orig + h
                up = loss(forward(batch, params, config), batch.labels)
                flat[i] = orig - h
                down = loss(forward(batch, params, config), batch.labels)
                flat[i] = orig
                numeric = (up - down) / (2 * h)
                rel = abs(numeric - gflat[i]) / max(abs(numeric), abs(gflat[i]), 1e-4)
                assert rel < 1e-4, f"{name}[{i}]: {numeric} vs {gflat[i]}"


def bits(a):
    """``a``'s values as same-width ints, so equality is bit for bit."""
    return a.view(f"i{a.itemsize}")


def template_batch(rng, vocab_size):
    """Rows of 3 to 9 tokens padded to 9: pads have soft position 0."""
    seqs = []
    for n in (9, 3, 6, 4):
        tokens = [0, *rng.integers(6, vocab_size, size=n - 1)]
        segments = [0] * (n // 2) + [1] * (n - n // 2)
        seqs.append((tokens, None, segments, None, int(rng.integers(0, 2))))
    return Batch.from_sequences(seqs, pad_id=1)


def constrained_batch(rng, vocab_size):
    """Injected rows: branch tokens share soft positions with the trunk."""
    seqs = []
    for n in (12, 7, 10):
        trunk = (0, *rng.integers(6, vocab_size, size=n - 1).tolist())
        branches = (
            injection.Branch((1, 3), (7, 8)),
            injection.Branch((4, 5), (9,)),
            injection.Branch((n - 1, n), (7,)),
        )
        segments = [0] * (n // 2) + [1] * (n - n // 2)
        inj = injection.expand(injection.InjectionTree(trunk, branches), segments)
        seqs.append(
            (inj.tokens, inj.soft_positions, inj.segments, inj.visible, int(rng.integers(0, 2)))
        )
    return Batch.from_sequences(seqs, pad_id=1)


class TestScatterRows:
    """``_scatter_rows`` equals the 2-D ``np.add.at`` bit for bit."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("use_segments", [True, False])
    @pytest.mark.parametrize("make_batch", [template_batch, constrained_batch])
    def test_lookups_equal_add_at(self, make_batch, use_segments, dtype):
        config = small_config(dtype=dtype, use_segments=use_segments)
        rng = np.random.default_rng(41)
        batch = make_batch(rng, config.vocab_size)
        # Magnitudes over 16 decades, so another summation order would show.
        values = rng.standard_normal(batch.token_ids.shape + (config.d_model,))
        values *= 10.0 ** rng.uniform(-8, 8, size=values.shape)
        values = values.astype(config.np_dtype)
        names = []
        for name, index in enc._lookups(batch, config):
            shape = param_shapes(config)[name]
            got, want = np.zeros(shape, config.np_dtype), np.zeros(shape, config.np_dtype)
            enc._scatter_rows(got, index, values)
            reference_scatter_rows(want, index, values)
            assert np.array_equal(bits(got), bits(want)), name
            names.append(name)
        assert names == ["tok_emb", "pos_emb", "seg_emb"][: 3 if use_segments else 2]

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("use_segments", [True, False])
    @pytest.mark.parametrize("make_batch", [template_batch, constrained_batch])
    def test_gradients_equal_add_at(self, make_batch, use_segments, dtype, monkeypatch):
        config = small_config(dtype=dtype, use_segments=use_segments)
        params = init_params(config)
        batch = make_batch(np.random.default_rng(42), config.vocab_size)
        _, got = loss_and_gradients(batch, params, config)
        monkeypatch.setattr(enc, "_scatter_rows", reference_scatter_rows)
        _, want = loss_and_gradients(batch, params, config)
        for name in ("tok_emb", "pos_emb", "seg_emb"):
            assert np.array_equal(bits(got[name]), bits(want[name])), name

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 6), cols=st.integers(1, 40), width=st.integers(1, 8),
        table=st.integers(1, 4), dtype=st.sampled_from(["float32", "float64"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_heavily_repeated_indices(self, rows, cols, width, table, dtype, seed):
        # At most 4 table rows for up to 240 lookups: each row is hit many
        # times, with values over 16 decades.
        rng = np.random.default_rng(seed)
        index = rng.integers(0, table, size=(rows, cols))
        values = rng.standard_normal((rows, cols, width)) * 10.0 ** rng.uniform(
            -8, 8, size=(rows, cols, width)
        )
        values = values.astype(dtype)
        got, want = np.zeros((table, width), dtype), np.zeros((table, width), dtype)
        enc._scatter_rows(got, index, values)
        reference_scatter_rows(want, index, values)
        assert np.array_equal(bits(got), bits(want))


class TestFlatAdam:
    """The flat Adam update equals the per-parameter loop bit for bit."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("lr", [0.0, 1e-3, 3e-2])
    def test_equals_per_parameter_loop(self, dtype, lr):
        config = small_config(dtype=dtype)
        rng = np.random.default_rng(43)
        batches = [constrained_batch(rng, config.vocab_size) for _ in range(3)]
        runs = []
        for step in (train_step, reference_train_step):
            params = init_params(config)
            state = AdamState.init(params)
            ws = enc.Workspace()
            history = []
            for batch in batches:
                value = step(batch, params, state, lr, config, ws)
                history.append(
                    (value, state.step, *(
                        {k: bits(a).copy() for k, a in arrays.items()}
                        for arrays in (params, state.m, state.v)
                    ))
                )
            runs.append(history)
        for (value, t, params, m, v), ref in zip(*runs):
            assert (value, t) == ref[:2]
            for got, want in zip((params, m, v), ref[2:]):
                for name in want:
                    assert np.array_equal(got[name], want[name]), name

    def test_moments_are_views_of_one_array(self):
        params = init_params(small_config(dtype="float32"))
        state = AdamState.init(params)
        assert state.moments.shape == (2, sum(p.size for p in params.values()))
        assert state.moments.dtype == np.float32
        for row, moments in zip(state.moments, (state.m, state.v)):
            assert list(moments) == list(params)
            for name, p in params.items():
                assert moments[name].shape == p.shape
                assert np.shares_memory(moments[name], row)


class TestTrainStep:
    def test_lr_zero_keeps_params(self):
        config = small_config()
        params = init_params(config)
        before = {k: v.copy() for k, v in params.items()}
        batch = random_batch(config, np.random.default_rng(13))
        state = AdamState.init(params)
        train_step(batch, params, state, 0.0, config)
        for name in params:
            np.testing.assert_array_equal(params[name], before[name])
        assert state.step == 1

    def test_deterministic(self):
        config = small_config()
        batch = random_batch(config, np.random.default_rng(14))
        results = []
        for _ in range(2):
            params = init_params(config)
            state = AdamState.init(params)
            for _ in range(3):
                train_step(batch, params, state, 1e-3, config)
            results.append(params)
        for name in results[0]:
            np.testing.assert_array_equal(results[0][name], results[1][name])

    def test_nan_gradient_aborts(self, monkeypatch):
        config = small_config()
        params = init_params(config)
        state = AdamState.init(params)
        # Moments as after some steps, so an update would change them.
        for moments in (state.m, state.v):
            for k in moments:
                moments[k] += 0.5
        before = [
            {k: v.copy() for k, v in arrays.items()} for arrays in (params, state.m, state.v)
        ]
        batch = random_batch(config, np.random.default_rng(15))

        def bad_grads(*args, **kwargs):
            grads = {k: np.zeros_like(v) for k, v in params.items()}
            grads["cls_w"][0, 0] = np.nan
            return 1.0, grads

        monkeypatch.setattr(enc, "loss_and_gradients", bad_grads)
        with pytest.raises(NumericalError, match="in cls_w,"):
            train_step(batch, params, state, 1e-3, config)
        for arrays, saved in zip((params, state.m, state.v), before):
            for name in params:
                np.testing.assert_array_equal(arrays[name], saved[name])

    def test_loss_decreases_on_separable_toy_set(self):
        # Label = whether token 7 appears; 20 sequences, 50 steps.
        config = small_config(n_layers=1, d_model=16, d_ff=16)
        params = init_params(config)
        rng = np.random.default_rng(16)
        b, l = 20, 6
        ids = rng.integers(8, 20, size=(b, l))
        ids[:, 0] = 0
        labels = np.zeros(b, dtype=np.int64)
        for i in range(0, b, 2):
            ids[i, 1 + (i % (l - 1))] = 7
            labels[i] = 1
        batch = Batch(
            ids, np.tile(np.arange(l), (b, 1)), np.zeros((b, l), dtype=int),
            np.ones((b, l, l)), labels,
        )
        state = AdamState.init(params)
        losses = []
        for _ in range(50):
            value = train_step(batch, params, state, 1e-2, config)
            losses.append(value)
        assert np.mean(losses[-10:]) < np.mean(losses[:10])
        assert losses[-1] < losses[0]

    def test_dropout_training_is_seeded(self):
        config = small_config(dropout_rate=0.1)
        batch = random_batch(config, np.random.default_rng(17))
        outs = []
        for _ in range(2):
            params = init_params(config)
            state = AdamState.init(params)
            value = train_step(batch, params, state, 1e-3, config)
            outs.append((value, params))
        assert outs[0][0] == outs[1][0]
        for name in outs[0][1]:
            np.testing.assert_array_equal(outs[0][1][name], outs[1][1][name])

    def test_each_step_draws_its_own_dropout_masks(self, monkeypatch):
        # The stream is seeded by config.seed and state.step, so two steps
        # on one state draw different masks, and a failed step keeps the count.
        config = small_config(dropout_rate=0.1)
        batch = random_batch(config, np.random.default_rng(19))
        params = init_params(config)
        state = AdamState.init(params)
        real_mask = enc._dropout_mask
        masks = []

        def spy(*args):
            out = real_mask(*args)
            masks.append(out.copy())
            return out

        monkeypatch.setattr(enc, "_dropout_mask", spy)
        steps = []
        for _ in range(2):
            train_step(batch, params, state, 1e-3, config)
            steps.append(state.step)
        assert steps == [1, 2]
        first, second = masks[: len(masks) // 2], masks[len(masks) // 2 :]
        assert not any(np.array_equal(a, b) for a, b in zip(first, second))

        def bad_grads(*args, **kwargs):
            return 1.0, {k: np.full_like(v, np.nan) for k, v in params.items()}

        monkeypatch.setattr(enc, "loss_and_gradients", bad_grads)
        with pytest.raises(NumericalError):
            train_step(batch, params, state, 1e-3, config)
        assert state.step == 2

    @pytest.mark.parametrize("n_layers", [0, 1, 3])
    def test_dropout_draws_full_attention_masks(self, n_layers):
        config = small_config(n_layers=n_layers, dropout_rate=0.1)
        b, l = 3, 8
        batch = random_batch(config, np.random.default_rng(18), b=b, l=l)
        rng = np.random.default_rng(99)
        loss_and_gradients(batch, init_params(config), config, dropout_rng=rng)
        # The embedding mask, then each layer's (B, H, L, L) mask, the last
        # layer's too although it queries [CLS] only.
        expected = np.random.default_rng(99)
        expected.random((b, l, config.d_model))
        for _ in range(n_layers):
            expected.random((b, config.n_heads, l, l))
        assert rng.bit_generator.state == expected.bit_generator.state


class TestWorkspace:
    # An epoch's full batches, its short last batch, then a shorter length.
    SHAPES = ((16, 53), (8, 53), (16, 21))

    @staticmethod
    def batches(config, seed):
        rng = np.random.default_rng(seed)
        out = []
        for b, l in TestWorkspace.SHAPES:
            batch = random_batch(config, rng, b=b, l=l)
            visible = (rng.random((b, l, l)) < 0.7).astype(config.np_dtype)
            visible[:, np.arange(l), np.arange(l)] = 1.0
            segments = rng.integers(0, 2, size=(b, l))
            out.append(
                Batch(batch.token_ids, batch.soft_positions, segments, visible, batch.labels)
            )
        return out

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("use_segments", [True, False])
    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    @pytest.mark.parametrize("n_layers", [0, 1, 2])
    def test_reused_workspace_is_bitwise_fresh(self, n_layers, dropout, use_segments, dtype):
        config = small_config(
            n_layers=n_layers, dropout_rate=dropout, use_segments=use_segments,
            dtype=dtype, max_position=64,
        )
        results = []
        for ws in (None, enc.Workspace()):
            params = init_params(config)
            state = AdamState.init(params)
            losses = []
            for batch in self.batches(config, 31):
                value = train_step(batch, params, state, 1e-3, config, ws)
                losses.append(value)
            results.append((losses, params))
        assert results[0][0] == results[1][0]
        for name, value in results[0][1].items():
            assert value.tobytes() == results[1][1][name].tobytes(), name

    def test_reused_workspace_forward_is_bitwise_fresh(self, monkeypatch):
        # Two rows per chunk, so chunks and layers share one slot.
        monkeypatch.setattr(enc, "ATTN_CHUNK_BYTES", 2 * 2 * 53 * 53 * 8)
        config = small_config(max_position=64)
        params = init_params(config)
        ws = enc.Workspace()
        for batch in self.batches(config, 34):
            np.testing.assert_array_equal(
                forward(batch, params, config, ws), forward(batch, params, config)
            )
            probs = whole_batch_probs(batch, params, config)
            np.testing.assert_array_equal(forward(batch, params, config, ws), probs)

    def test_warm_step_allocates_little(self):
        # The constrained workload's step shape. Without a workspace a step
        # allocates about 28 MB of fresh temporaries here.
        config = small_config(
            vocab_size=500, d_model=64, n_heads=4, d_ff=128, max_position=64
        )
        params = init_params(config)
        state = AdamState.init(params)
        batch = self.batches(config, 32)[0]
        ws = enc.Workspace()
        train_step(batch, params, state, 1e-3, config, ws=ws)
        tracemalloc.start()
        try:
            train_step(batch, params, state, 1e-3, config, ws=ws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_gradients_do_not_alias_the_workspace(self):
        config = small_config(max_position=64, dropout_rate=0.1)
        params = init_params(config)
        first, second = self.batches(config, 33)[:2]
        ws = enc.Workspace()
        _, grads = loss_and_gradients(first, params, config, np.random.default_rng(1), ws)
        kept = {name: g.copy() for name, g in grads.items()}
        loss_and_gradients(second, params, config, np.random.default_rng(2), ws)
        for name, g in grads.items():
            np.testing.assert_array_equal(g, kept[name])

    def test_grown_buffer_leaves_handed_out_arrays_intact(self):
        ws = enc.Workspace()
        small = ws.get("x", (2, 3), np.float64)
        small[...] = 1.0
        big = ws.get("x", (4, 5), np.float64)
        big[...] = 2.0
        assert (small == 1.0).all()
        # A smaller request is a prefix view of the grown buffer.
        assert np.shares_memory(ws.get("x", (3, 2), np.float64), big)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        config = small_config()
        params = init_params(config)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, params, config, seed=42, vocab_hash="abc")
        loaded, loaded_config, seed, header = load_checkpoint(path)
        assert loaded_config == config
        assert seed == 42
        assert header["vocab_hash"] == "abc"
        assert header["version"] == 1
        for name in param_shapes(config):
            np.testing.assert_array_equal(loaded[name], params[name])

    def test_truncated_rejected(self, tmp_path):
        config = small_config()
        params = init_params(config)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, params, config, seed=0)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 100])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_float64_bytes_unchanged(self, tmp_path):
        # The sha256 that this float64 checkpoint has had since format
        # version 1, when every checkpoint was written in float64.
        config = small_config()
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, init_params(config), config, seed=42, vocab_hash="abc")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "4504e33da0a06de1ce9cafdf4d2f0d05981cea97088d81cf7189a69ed4b4b554"
        )

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("damage", ["truncated", "trailing"])
    def test_size_checked_in_the_header_dtype(self, tmp_path, dtype, damage):
        config = small_config(dtype=dtype)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, init_params(config), config, seed=0)
        data = path.read_bytes()
        path.write_bytes(data[:-1] if damage == "truncated" else data + b"\x00")
        with pytest.raises(FormatError, match=damage):
            load_checkpoint(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        path.write_bytes(b"\x00\x01\x02\n")
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @staticmethod
    def _rewrite(path, edit_header=None, tail=b""):
        header_line, body = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        if edit_header is not None:
            edit_header(header)
        path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + body + tail)

    @pytest.mark.parametrize(
        "edit_header, tail",
        [
            (None, b"\x00"),
            (lambda h: h["params"].pop(), b""),
            (lambda h: h["params"].reverse(), b""),
            (lambda h: h["params"][0].update(shape=[16, 32]), b""),
            (lambda h: h["config"].update(colour="blue"), b""),
            (lambda h: h["config"].pop("vocab_size"), b""),
            (lambda h: h.pop("seed"), b""),
            (lambda h: h["config"].update(n_heads=0), b""),
            (lambda h: h["config"].update(dropout_rate=-1.0), b""),
        ],
        ids=[
            "trailing-bytes", "missing-param", "reordered-params", "wrong-shape",
            "unknown-config-key", "missing-config-key", "missing-seed",
            "zero-heads", "negative-dropout",
        ],
    )
    def test_malformed_rejected(self, tmp_path, edit_header, tail):
        config = small_config()
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, init_params(config), config, seed=0)
        self._rewrite(path, edit_header, tail)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit_header, key",
        [
            (lambda h: h["config"].update(n_layers=1.5), "n_layers"),
            # The parameter list still matches: 16.0 == 16.
            (lambda h: h["config"].update(d_model=16.0), "d_model"),
            (lambda h: h["config"].update(use_segments="no"), "use_segments"),
            (lambda h: h.update(seed="7"), "seed"),
        ],
        ids=["fractional-layers", "float-width", "string-segments", "string-seed"],
    )
    def test_header_value_of_the_wrong_type_rejected(self, tmp_path, edit_header, key):
        config = small_config()
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, init_params(config), config, seed=0)
        self._rewrite(path, edit_header)
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value) and f"key {key} must be" in str(err.value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_header_dropout_not_finite_rejected(self, tmp_path, value):
        config = small_config()
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, init_params(config), config, seed=0)
        self._rewrite(path, lambda h: h["config"].update(dropout_rate=value))
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value) and "dropout_rate must be finite" in str(err.value)

    def test_integer_and_float_dropout_rates_write_the_same_bytes(self, tmp_path):
        paths = []
        for rate in (0, 0.0):
            config = small_config(dropout_rate=rate)
            assert type(config.dropout_rate) is float
            paths.append(tmp_path / f"ckpt_{rate!r}.bin")
            save_checkpoint(paths[-1], init_params(config), config, seed=0)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestBatch:
    def test_mask_free_batch_without_lengths_is_full_width(self):
        config = small_config()
        params = init_params(config)
        dense = random_batch(config, np.random.default_rng(41), b=3, l=9)
        assert dense.mask.all()
        bare = Batch(dense.token_ids, dense.soft_positions, dense.segments, None, dense.labels)
        np.testing.assert_array_equal(bare.lengths, [9, 9, 9])
        with blas_threads(1):
            probs = [forward(batch, params, config) for batch in (bare, dense)]
        np.testing.assert_array_equal(probs[0], probs[1])

    def test_padding_masks_rows_and_cols(self):
        batch = Batch.from_sequences(
            [
                ([0, 7, 8], [0, 1, 2], [0, 0, 0], None, 1),
                ([0, 9], [0, 1], [0, 1], None, 0),
            ],
            pad_id=5,
        )
        assert batch.token_ids[1, 2] == 5
        assert batch.visible[1, 2].sum() == 0
        assert batch.visible[1, :, 2].sum() == 0
        assert batch.visible[0].sum() == 9
        np.testing.assert_array_equal(batch.labels, [1, 0])

    def test_mask_is_bool_whatever_the_dtype(self):
        visible = np.array([[1, 0, 1], [0, 1, 0], [1, 0, 1]], dtype=np.uint8)
        batch = Batch.from_sequences(
            [([0, 7, 8], None, [0, 0, 0], visible, 1), ([0, 9], None, [0, 1], None, 0)],
            pad_id=5, dtype=np.float32,
        )
        assert batch.visible.dtype == bool
        assert batch.visible.nbytes == 2 * 3 * 3
        np.testing.assert_array_equal(batch.visible[0], visible == 1)
        assert batch.visible[1].sum() == 4

    def test_template_batch_holds_no_dense_mask(self):
        # A (16, 512, 512) bool mask would take 4.2 MB.
        lengths = [512] + list(np.random.default_rng(34).integers(1, 512, size=15))
        seqs = [(list(range(n)), None, [0] * n, None, 1) for n in lengths]
        batch = None

        def build():
            nonlocal batch
            batch = Batch.from_sequences(seqs, pad_id=5)

        peak = traced_peak(build)
        assert peak < 0.5e6, peak / 1e6
        assert batch.mask is None
        np.testing.assert_array_equal(batch.lengths, lengths)

    def test_long_cells_batch_memory(self):
        # A (16, 512, 512) float64 mask alone took 33.5 MB; the bool one is 4.2 MB.
        seqs = [(list(range(512)), None, [0] * 512, None, 1) for _ in range(16)]
        tracemalloc.start()
        try:
            Batch.from_sequences(seqs, pad_id=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5e6, peak / 1e6

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_bool_and_float_masks_give_the_same_bits(self, dtype):
        config = small_config(dtype=dtype, dropout_rate=0.1)
        rng = np.random.default_rng(27)
        b, l = 4, 12
        visible = rng.random((b, l, l)) < 0.6
        visible |= visible.transpose(0, 2, 1)
        visible[:, np.arange(l), np.arange(l)] = True
        visible[1, 9:, :] = visible[1, :, 9:] = False  # padding
        visible[3, 5:, :] = visible[3, :, 5:] = False
        base = random_batch(config, rng, b=b, l=l)
        hidden = rng.normal(size=(b, l, config.d_model)).astype(config.np_dtype)
        results = []
        for mask in (visible, visible.astype(config.np_dtype)):
            batch = Batch(base.token_ids, base.soft_positions, base.segments, mask, base.labels)
            params = init_params(config)
            probs = forward(batch, params, config)
            value, grads = loss_and_gradients(batch, params, config)
            attended = masked_attention(hidden, mask, params, config)
            step_loss = train_step(batch, params, AdamState.init(params), 1e-3, config)
            results.append((probs, value, grads, attended, step_loss, params))
        (probs, value, grads, attended, step_loss, params), other = results
        np.testing.assert_array_equal(probs, other[0])
        assert value == other[1] and step_loss == other[4]
        for name in params:
            assert grads[name].tobytes() == other[2][name].tobytes(), name
            assert params[name].tobytes() == other[5][name].tobytes(), name
        assert attended.dtype == config.np_dtype
        assert attended.tobytes() == other[3].tobytes()

    def test_config_validation(self):
        with pytest.raises(DomainError):
            EncoderConfig(vocab_size=10, d_model=10, n_heads=3)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("vocab_size", 0), ("d_model", 0), ("n_heads", 0), ("n_heads", -2),
            ("d_ff", 0), ("max_position", 0), ("n_layers", -1),
            ("dropout_rate", -1.0), ("dropout_rate", 1.0), ("dropout_rate", float("nan")),
            ("dropout_rate", float("inf")), ("dropout_rate", float("-inf")), ("seed", -1),
        ],
    )
    def test_config_out_of_range_rejected(self, field, value):
        with pytest.raises(DomainError, match=field):
            small_config(**{field: value})
