"""A small transformer encoder classifier with visibility-masked attention.

Runs on plain numpy in the config's dtype: runs train in float32, and the
float64 default is the reference that the gradient checks use. Positions
are looked up from the soft-position vector, attention logits are masked
with -1e9 where the visibility matrix is 0, and the [CLS] hidden state
feeds a two-way classification head. Backpropagation is written out
analytically so it can be checked against finite differences.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DomainError, FormatError, NumericalError
from .tabular import check_fields, json_object

MASK_VALUE = -1e9
LN_EPS = 1e-5
CHECKPOINT_VERSION = 1
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# The bound on one attention score block in evaluation, in bytes. It sets
# two sizes: the row chunks, whose (rows, H, L, L) scores must fit (1 row at
# L=512, the whole batch at short lengths), and the head groups, run one at a
# time within a chunk. 2 MiB is one head's (512, 512) float64 block and a
# typical per-core L2, so a float32 run scores 2 heads per group there. The
# chunk size depends on L and the dtype alone; the padding that ``forward``
# then drops only makes a chunk's buffers smaller. Blocks of up to
# (16, 4, 53, 53) float64 fit whole, so short inputs run in one group.
# Training is not bounded: it scores every head in one block.
ATTN_CHUNK_BYTES = 2 * 2**20
# ``forward`` runs a chunk's hidden layers on its real query rows, rounded up
# to a multiple of this. OpenBLAS computes rows past its last whole tile in
# remainder kernels whose sums can differ in the last bit, so the exact count
# (73, say) breaks bit-identity with the training walk, which runs all L rows.
# Multiples of 16 keep float64 identical under the Sandybridge, Haswell and
# SkylakeX kernels, but float32 under Haswell (and Zen) tiles rows by 12;
# 48 covers both. This holds on one BLAS thread, as ``evaluate`` runs: on
# more, OpenBLAS splits the rows between threads by their count.
QUERY_ROW_MULTIPLE = 48


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 128
    max_position: int = 128
    dropout_rate: float = 0.0
    seed: int = 0
    use_segments: bool = True
    dtype: str = "float64"

    def __post_init__(self) -> None:
        check_fields(
            self, vocab_size=1, d_model=1, n_heads=1, n_layers=0, d_ff=1, max_position=1, seed=0
        )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise DomainError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        # One form in a checkpoint header: a rate of 0 is written as 0.0.
        object.__setattr__(self, "dropout_rate", float(self.dropout_rate))
        if self.d_model % self.n_heads != 0:
            raise DomainError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if self.dtype not in ("float64", "float32"):
            raise DomainError(f"dtype must be float64 or float32, got {self.dtype!r}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32


def param_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Declared parameter order and shapes (used by init and checkpoints)."""
    d, ff = config.d_model, config.d_ff
    shapes = {
        "tok_emb": (config.vocab_size, d),
        "pos_emb": (config.max_position, d),
        "seg_emb": (2, d),
        "emb_ln_g": (d,),
        "emb_ln_b": (d,),
    }
    layer = {
        "wq": (d, d), "bq": (d,), "wk": (d, d), "bk": (d,),
        "wv": (d, d), "bv": (d,), "wo": (d, d), "bo": (d,),
        "ln1_g": (d,), "ln1_b": (d,), "w1": (d, ff), "b1": (ff,),
        "w2": (ff, d), "b2": (d,), "ln2_g": (d,), "ln2_b": (d,),
    }
    for i in range(config.n_layers):
        shapes.update({f"l{i}.{suffix}": shape for suffix, shape in layer.items()})
    shapes["cls_w"] = (d, 2)
    shapes["cls_b"] = (2,)
    return shapes


def init_params(config: EncoderConfig) -> dict[str, np.ndarray]:
    """Seeded init, drawn in declared order: 0.02-std embedding tables (the
    embedding layer-norm rescales them anyway), Glorot-scaled projection,
    FFN and head weights, layer-norm gains 1, biases 0."""
    rng = np.random.default_rng(config.seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        if name.endswith("_emb"):
            arr = rng.normal(0.0, 0.02, size=shape)
        elif name.endswith("_g"):
            arr = np.ones(shape)
        elif len(shape) == 2:
            arr = rng.normal(0.0, math.sqrt(2.0 / sum(shape)), size=shape)
        else:
            arr = np.zeros(shape)
        params[name] = arr.astype(config.np_dtype)
    return params


@dataclass(frozen=True, eq=False)
class Batch:
    """Padded model input: row i's first ``lengths[i]`` tokens are real, the
    rest [PAD].

    ``mask`` is the dense visibility, rows the query rows and columns the
    keys, [PAD] rows and columns False: bool, or 0/1 floats, which give
    bit-identical results. It is None when every row is fully visible
    within its length, as ``from_sequences`` builds template batches; then
    no (B, L, L) array exists (4.2 MB of bool at (16, 512)), and
    ``_mask_bias`` masks the padding keys alone. ``visible`` reads either
    as a dense mask.

    ``forward`` hands ``_encode`` chunks with the trailing padding rows
    dropped: (rows, n) tokens against ``keys`` = L key columns. Without
    ``lengths`` every row is full width.
    """

    token_ids: np.ndarray      # (B, n) int64
    soft_positions: np.ndarray  # (B, n) int64
    segments: np.ndarray       # (B, n) int64
    mask: np.ndarray | None    # (B, n, L) bool or 0/1 float; None: see above
    labels: np.ndarray | None  # (B,) int64; None in forward's row chunks
    lengths: np.ndarray | None = None  # (B,) int64
    keys: int | None = None            # L; the mask's or tokens' width if None

    def __post_init__(self) -> None:
        if self.keys is None:
            width = self.token_ids if self.mask is None else self.mask
            object.__setattr__(self, "keys", width.shape[-1])
        if self.lengths is None:
            full = np.full(self.size, self.token_ids.shape[1], dtype=np.int64)
            object.__setattr__(self, "lengths", full)

    @classmethod
    def from_sequences(
        cls,
        seqs: Sequence[tuple],
        pad_id: int,
        dtype=None,
    ) -> "Batch":
        """Pad (tokens, soft_positions, segments, visible-or-None, label)
        tuples into one batch. ``visible=None`` means fully visible; every
        tuple needs its int label. Each row's length is its token count, and
        a dense mask is built only when some tuple brings one.

        ``dtype`` is ignored: the mask is bool whatever the model dtype. The
        keyword stays because callers written when the mask took the model
        dtype still pass it."""
        b = len(seqs)
        lengths = [len(s[0]) for s in seqs]
        max_len = max(lengths)
        ids = np.full((b, max_len), pad_id, dtype=np.int64)
        soft = np.zeros((b, max_len), dtype=np.int64)
        seg = np.zeros((b, max_len), dtype=np.int64)
        vis = None
        if any(s[3] is not None for s in seqs):
            vis = np.zeros((b, max_len, max_len), dtype=bool)
        labels = np.zeros(b, dtype=np.int64)
        for i, (tokens, soft_pos, segments, visible, label) in enumerate(seqs):
            n = len(tokens)
            ids[i, :n] = tokens
            soft[i, :n] = soft_pos if soft_pos is not None else np.arange(n)
            seg[i, :n] = segments
            if vis is not None:
                vis[i, :n, :n] = True if visible is None else visible
            labels[i] = label
        return cls(ids, soft, seg, vis, labels, np.array(lengths, dtype=np.int64))

    @property
    def size(self) -> int:
        return self.token_ids.shape[0]

    @property
    def visible(self) -> np.ndarray:
        """The dense (B, n, L) mask: ``mask``, or for a mask-free batch a
        bool one built on each read, where row i's first ``lengths[i]``
        tokens see each other. The encoder never reads it."""
        if self.mask is not None:
            return self.mask
        real = _real_keys(self)
        return real[:, : self.token_ids.shape[1], None] & real[:, None, :]


def _real_keys(batch: Batch) -> np.ndarray:
    """(B, L) bool: key j of row i is a real token, ``j < lengths[i]``."""
    return np.arange(batch.keys) < batch.lengths[:, None]


class Workspace:
    """Named scratch arrays that the forward and backward passes write their
    large (B, L, d), (B, L, ff) and (B, H, L, L) temporaries into.

    ``run_train`` keeps one for the whole run, so a step reuses the previous
    step's memory instead of mapping fresh pages. Each name holds one flat
    buffer that grows to the largest size asked for; a smaller shape gets a
    reshaped prefix of it, so an epoch's short last batch needs no buffer of
    its own. An array handed out stays valid when its name's buffer later
    grows. Callers that pass no workspace get a fresh one per call.
    """

    def __init__(self) -> None:
        self._flat: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size or flat.dtype != dtype:
            flat = self._flat[name] = np.empty(size, dtype=dtype)
        return flat[:size].reshape(shape)


# The kernels below write into given buffers and keep the operation order of
# the plain expressions in their docstrings, so results are bit-identical to
# them.


def _layer_norm(x, gain, bias, out, ws):
    """gain·x̂ + bias into ``out``. Normalizes ``x`` in place: it becomes the
    x̂ that the backward pass keeps."""
    x -= x.mean(axis=-1, keepdims=True)
    sq = np.multiply(x, x, out=ws.get("tmp", x.shape, x.dtype))
    inv = 1.0 / np.sqrt(sq.mean(axis=-1, keepdims=True) + LN_EPS)
    x *= inv
    np.multiply(x, gain, out=out)
    out += bias
    return out, (x, inv)


def _layer_norm_backward(dy, cache, gain, ws):
    """(dx, dgain, dbias); dx goes into the workspace's one "dln" buffer."""
    xhat, inv = cache
    axes = tuple(range(dy.ndim - 1))
    tmp = ws.get("tmp", dy.shape, dy.dtype)
    dgain = np.multiply(dy, xhat, out=tmp).sum(axis=axes)
    dbias = dy.sum(axis=axes)
    dx = np.multiply(dy, gain, out=ws.get("dln", dy.shape, dy.dtype))  # dx̂
    dmean = dx.mean(axis=-1, keepdims=True)
    dproj = np.multiply(dx, xhat, out=tmp).mean(axis=-1, keepdims=True)
    # inv · (dx̂ - dmean - x̂·dproj)
    dx -= dmean
    dx -= np.multiply(xhat, dproj, out=tmp)
    dx *= inv
    return dx, dgain, dbias


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _gelu_tanh(x, out):
    """tanh(C·(x + A·x³)) into ``out``, the term the GELU backward pass reuses.

    The cube is two multiplies, not ``x ** 3`` (libm ``pow``, about 14x
    slower on these arrays).
    """
    np.multiply(x, x, out=out)
    out *= x
    out *= _GELU_A
    out += x
    out *= _GELU_C
    return np.tanh(out, out=out)


def _gelu(x, t, out, tmp):
    """Tanh-approximate GELU (Hendrycks & Gimpel, arXiv 1606.08415),
    0.5·x·(1 + t) into ``out``; ``t`` is ``_gelu_tanh`` of ``x``."""
    np.multiply(x, 0.5, out=out)
    out *= np.add(t, 1.0, out=tmp)
    return out


def _gelu_grad(x, t, out, tmp):
    """dGELU/dx = 0.5·(1 + t) + 0.5·x·(1 - t²)·C·(1 + 3A·x²) into ``out``;
    ``t`` is ``_gelu_tanh`` of ``x``. Overwrites ``t`` and ``tmp``."""
    np.multiply(t, t, out=tmp)
    np.subtract(1.0, tmp, out=tmp)
    np.multiply(x, 0.5, out=out)
    out *= tmp
    out *= _GELU_C
    np.multiply(x, x, out=tmp)
    tmp *= 3.0 * _GELU_A
    tmp += 1.0
    out *= tmp
    t += 1.0
    t *= 0.5
    out += t
    return out


def _softmax(x):
    """Softmax over the last axis, in place."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _split_heads(x, n_heads):
    """(B, H, L, d/H) view of a (B, L, d) array."""
    b, l, d = x.shape
    return x.reshape(b, l, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _rows(x):
    """(B·L, d) view of a (B, L, d) array."""
    return x.reshape(-1, x.shape[-1])


def _linear(x, w, b, out):
    """x·w + b into ``out``."""
    np.matmul(x, w, out=out)
    out += b
    return out


def embed(batch: Batch, params: dict, config: EncoderConfig) -> np.ndarray:
    """Token + soft-position + segment embedding, layer-normed. (B, L, d)."""
    out, _ = _embed_cache(batch, params, config, Workspace())
    return out


def _lookups(batch, config):
    """The (table, index) pairs that the embedding sums, in summation order."""
    segments = [("seg_emb", batch.segments)] if config.use_segments else []
    return [("tok_emb", batch.token_ids), ("pos_emb", batch.soft_positions), *segments]


def _embed_cache(batch, params, config, ws):
    shape = batch.token_ids.shape + (config.d_model,)
    dtype = params["tok_emb"].dtype
    total = ws.get("emb_ln", shape, dtype)
    for i, (name, index) in enumerate(_lookups(batch, config)):
        n = len(params[name])
        if index.size and not 0 <= index.min() <= index.max() < n:
            raise DomainError(
                f"{name} index outside [0, {n}): min {index.min()}, max {index.max()}"
            )
        # After that check mode="clip" changes nothing, and it lets take
        # write into its out buffer directly ("raise" fills a copy first).
        rows = np.take(
            params[name], index, axis=0, mode="clip",
            out=total if i == 0 else ws.get("tmp", shape, dtype),
        )
        if i:
            total += rows
    return _layer_norm(
        total, params["emb_ln_g"], params["emb_ln_b"], ws.get("emb", shape, dtype), ws
    )


def _mask_bias(batch, dtype, ws):
    """Additive attention bias of a batch or row chunk, in ``dtype``: 0 where
    a query sees a key, MASK_VALUE where not. None when nothing is masked: a
    bias of zeros changes no score, so the walk skips it.

    A dense ``mask`` gives (B, 1, n, L). A mask-free batch gives a key-only
    (B, 1, 1, L) bias from ``lengths``. Its real query rows get the values a
    dense mask would give them; its padding query rows attend to the real
    keys instead of to nothing, and nothing reads them: every layer masks
    them as keys, the last layer queries [CLS] alone, ``forward`` drops
    them, and the gradients that reach them are zeros."""
    visible = batch.mask
    if visible is None:
        visible = _real_keys(batch)[:, None]
    return _visible_bias(visible, dtype, ws)


def _visible_bias(visible, dtype, ws):
    """``_mask_bias`` of a (B, Lq, L) mask: (B, 1, Lq, L), or None."""
    if visible.all():
        return None
    bias = np.subtract(1.0, visible, out=ws.get("bias", visible.shape, dtype))
    bias *= MASK_VALUE
    return bias[:, None]


def _head_groups(n_heads, rows, lq, l, itemsize, score_bytes):
    """Head slices in the largest groups that divide ``n_heads`` and whose
    (rows, group, lq, l) scores fit in ``score_bytes``, one head at least;
    all heads in one group when ``score_bytes`` is None."""
    size = max((
        g for g in range(1, n_heads + 1) if n_heads % g == 0
        and (score_bytes is None or rows * g * lq * l * itemsize <= score_bytes)
    ), default=1)
    return [slice(j, j + size) for j in range(0, n_heads, size)]


def _attention_block(
    x, bias, params, prefix, config, ws, attn_dropout_mask=None, slot=None, cls_only=False,
    score_bytes=None,
):
    """One attention sub-block: projections, masked softmax, residual, LN.

    ``bias`` is ``_mask_bias(batch)``, built once per forward pass (once
    per row chunk in ``forward``), and broadcasts over the heads and, when
    key-only, the queries; None means every cell is visible, and then the
    keys are ``x``'s rows. ``attn_dropout_mask`` is a full (B, H, L, L)
    mask. With ``cls_only`` only row 0 ([CLS]) queries: K and V
    are still projected for every row, but the scores are (B, H, 1, L) and
    the output is (B, 1, d). The arrays go into ``ws`` under ``slot``, which
    defaults to the layer's ``prefix``: training keeps each layer's arrays
    for the backward pass.

    With ``score_bytes`` the masked softmax runs per head group (see
    ``_head_groups``), each group writing its slice of ``ctx``, and the
    cache's ``weights`` and ``used`` hold the last group only: such a call
    is forward-only. Training passes None: one (B, H, lq, L) block, which
    the backward pass reads. A group makes the same per-(row, head)
    products and the softmax is row-wise, so grouping changes no bit.

    ``bias`` may have more key columns L than ``x`` has rows n, as in
    ``forward``'s trimmed chunks. K and V are then (B, L, d) with zero rows
    past n, so every score row still spans all L keys in the same order;
    the bias gives those keys exactly zero weight.

    The queries are scaled by 1/√d_h before the score matmul, and the cache
    keeps them scaled. For a head width that is a power of 4 the scale is a
    power of 2, and the scores equal scaled products bit for bit; for other
    widths they can differ in the last ulp.
    """
    slot = slot or prefix
    h = config.n_heads
    b, n, d = x.shape
    l = n if bias is None else bias.shape[-1]
    lq = 1 if cls_only else n
    xq = x[:, :lq]
    q = _linear(xq, params[f"{prefix}.wq"], params[f"{prefix}.bq"],
                ws.get(f"{slot}.q", xq.shape, x.dtype))
    q *= 1.0 / math.sqrt(config.head_dim)
    k, v = (ws.get(f"{slot}.{name}", (b, l, d), x.dtype) for name in "kv")
    for name, out in (("k", k), ("v", v)):
        _linear(x, params[f"{prefix}.w{name}"], params[f"{prefix}.b{name}"], out[:, :n])
        out[:, n:] = 0.0
    if attn_dropout_mask is not None:
        attn_dropout_mask = attn_dropout_mask[:, :, :lq]
    # The heads' contexts are written straight into merged (B, lq, d) layout.
    ctx = ws.get(f"{slot}.ctx", xq.shape, x.dtype)
    qh, kh, vh, ctxh = (_split_heads(a, h) for a in (q, k, v, ctx))
    for hs in _head_groups(h, b, lq, l, x.itemsize, score_bytes):
        # Masked softmax in the one (B, group, lq, L) buffer the scores come in.
        weights = np.matmul(
            qh[:, hs], kh[:, hs].transpose(0, 1, 3, 2),
            out=ws.get(f"{slot}.weights", (b, hs.stop - hs.start, lq, l), x.dtype),
        )
        if bias is not None:
            weights += bias[:, :, :lq]
        _softmax(weights)
        used = weights
        if attn_dropout_mask is not None:
            used = np.multiply(
                weights, attn_dropout_mask[:, hs],
                out=ws.get(f"{slot}.used", weights.shape, x.dtype),
            )
        np.matmul(used, vh[:, hs], out=ctxh[:, hs])
    attn = _linear(ctx, params[f"{prefix}.wo"], params[f"{prefix}.bo"],
                   ws.get(f"{slot}.ln1", xq.shape, x.dtype))
    attn += xq
    out, ln_cache = _layer_norm(
        attn, params[f"{prefix}.ln1_g"], params[f"{prefix}.ln1_b"],
        ws.get(f"{slot}.x1", xq.shape, x.dtype), ws,
    )
    cache = {
        "x": x, "q": q, "k": k, "v": v, "weights": weights, "used": used,
        "ctx": ctx, "ln": ln_cache, "dropout": attn_dropout_mask,
    }
    return out, cache


def _one_attention(hidden, visible, params, config, layer):
    """(output, cache) of one layer's attention block, in a fresh workspace."""
    ws = Workspace()
    bias = _visible_bias(visible, hidden.dtype, ws)
    return _attention_block(hidden, bias, params, f"l{layer}", config, ws)


def masked_attention(
    hidden: np.ndarray,
    visible: np.ndarray,
    params: dict,
    config: EncoderConfig,
    layer: int = 0,
) -> np.ndarray:
    """Apply one layer's masked attention block to hidden states."""
    return _one_attention(hidden, visible, params, config, layer)[0]


def attention_weights(
    hidden: np.ndarray,
    visible: np.ndarray,
    params: dict,
    config: EncoderConfig,
    layer: int = 0,
) -> np.ndarray:
    """Post-softmax attention weights (B, H, L, L) of one layer, for inspection."""
    return _one_attention(hidden, visible, params, config, layer)[1]["weights"]


def _ffn_block(x, params, prefix, ws, slot=None):
    """One FFN sub-block; ``ws`` and ``slot`` as in ``_attention_block``."""
    slot = slot or prefix
    w1 = params[f"{prefix}.w1"]
    wide = x.shape[:-1] + w1.shape[1:]
    h1 = _linear(x, w1, params[f"{prefix}.b1"], ws.get(f"{slot}.h1", wide, x.dtype))
    t = _gelu_tanh(h1, ws.get(f"{slot}.t", wide, x.dtype))
    a = _gelu(h1, t, ws.get(f"{slot}.a", wide, x.dtype), ws.get("tmp", wide, x.dtype))
    f = _linear(a, params[f"{prefix}.w2"], params[f"{prefix}.b2"],
                ws.get(f"{slot}.ln2", x.shape, x.dtype))
    f += x
    out, ln_cache = _layer_norm(
        f, params[f"{prefix}.ln2_g"], params[f"{prefix}.ln2_b"],
        ws.get(f"{slot}.x2", x.shape, x.dtype), ws,
    )
    return out, {"x": x, "h1": h1, "t": t, "a": a, "ln": ln_cache}


def _classify(h_cls, params):
    """Class probabilities (B, 2) of the final layer's [CLS] states (B, d)."""
    probs = _softmax(h_cls @ params["cls_w"] + params["cls_b"])
    if not np.isfinite(probs).all():
        raise NumericalError("non-finite activations in forward pass")
    return probs


def _dropout_mask(rng, rate, ws, name, shape, dtype):
    """Inverted-dropout mask into ``ws[name]``: 1/keep where a uniform draw
    is below keep = 1 - rate, else 0. None (no dropout) without a rng or at
    rate 0."""
    if rng is None or not rate > 0.0:
        return None
    keep = 1.0 - rate
    out = ws.get(name, shape, dtype)
    np.less(rng.random(out=ws.get("rand", shape, np.float64)), keep, out=out)
    out /= keep
    return out


def _encode(batch, params, config, ws, dropout_rng=None, slot=None, score_bytes=None):
    """Embedding, dropout (at ``config.dropout_rate``, iff ``dropout_rng`` is
    given), mask bias and the layer stack: the final hidden states and the
    caches that the backward pass reads. ``slot`` and ``score_bytes`` as in
    ``_attention_block``.

    Only the [CLS] state feeds the classifier, so the last layer computes
    row 0 alone and the states are (B, 1, d); they are the embedding's
    (B, L, d) when there are no layers. Each layer still draws a full
    (B, H, L, L) dropout mask, so the rng stream does not depend on that."""
    rate = config.dropout_rate
    x, emb_ln_cache = _embed_cache(batch, params, config, ws)
    emb_mask = _dropout_mask(dropout_rng, rate, ws, "emb_drop", x.shape, x.dtype)
    if emb_mask is not None:
        x *= emb_mask

    bias = _mask_bias(batch, x.dtype, ws)
    b, l = batch.token_ids.shape
    layer_caches = []
    for i in range(config.n_layers):
        attn_mask = _dropout_mask(
            dropout_rng, rate, ws, f"l{i}.drop", (b, config.n_heads, l, l), x.dtype
        )
        x, attn_cache = _attention_block(
            x, bias, params, f"l{i}", config, ws, attn_mask, slot,
            cls_only=i == config.n_layers - 1, score_bytes=score_bytes,
        )
        x, ffn_cache = _ffn_block(x, params, f"l{i}", ws, slot)
        layer_caches.append((attn_cache, ffn_cache))
    return x, {"emb_ln": emb_ln_cache, "emb_mask": emb_mask, "layers": layer_caches}


def forward(
    batch: Batch, params: dict, config: EncoderConfig, ws: Workspace | None = None
) -> np.ndarray:
    """Class probabilities (B, 2); rows sum to 1. Evaluation mode.

    Runs ``_encode`` on row chunks of the batch sized by
    ``ATTN_CHUNK_BYTES``, and every layer of every chunk writes into one set
    of buffers in ``ws`` (a fresh ``Workspace`` if None; ``evaluate`` keeps
    one per call): only one chunk's mask bias and one head group's attention
    scores exist at a time, not the batch's, each layer's or each head's.
    The groups are sized by the same constant (see ``_head_groups``), so
    the returned caches hold the last group's scores only; this walk is
    forward-only. Pairs never attend across rows, so this is exact.

    A chunk's hidden layers run on its first n rows only, where n is its
    longest row's ``lengths`` entry, rounded up to a multiple of
    ``QUERY_ROW_MULTIPLE`` and capped at L: the embedding,
    projections, (rows, H, n, L) scores, softmax, context, LN1, FFN and LN2
    skip the padding after it. K and V keep all L rows, zero past n (see
    ``_attention_block``), and the padding keys have weight exactly 0 in
    both walks, so the real rows are bit-identical. The last layer computes
    only the [CLS] rows, each in its own matmul, and the chunks' [CLS]
    states are gathered and classified in one matmul, so the result does not
    depend on the chunk size and, on one BLAS thread, equals the training
    walk's bit for bit.
    """
    ws = ws or Workspace()
    b, l = batch.token_ids.shape
    itemsize = np.dtype(config.np_dtype).itemsize
    rows = max(1, ATTN_CHUNK_BYTES // (config.n_heads * l * l * itemsize))
    h_cls = np.empty((b, config.d_model), dtype=config.np_dtype)
    for start in range(0, b, rows):
        part = slice(start, start + rows)
        n = max(1, int(batch.lengths[part].max()))
        n = min(l, -(-n // QUERY_ROW_MULTIPLE) * QUERY_ROW_MULTIPLE)
        mask = None if batch.mask is None else batch.mask[part, :n]
        chunk = Batch(
            batch.token_ids[part, :n], batch.soft_positions[part, :n],
            batch.segments[part, :n], mask, None, batch.lengths[part], l,
        )
        # One slot for all layers: each block reads the other block's output.
        x, _ = _encode(chunk, params, config, ws, slot="layer", score_bytes=ATTN_CHUNK_BYTES)
        h_cls[part] = x[:, 0, :]
    return _classify(h_cls, params)


def loss(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of the true labels (natural log)."""
    picked = probs[np.arange(len(labels)), labels]
    if (picked < 1e-12).any():
        warnings.warn("probability clamped at 1e-12 in loss", RuntimeWarning)
        picked = np.maximum(picked, 1e-12)
    return float(-np.log(picked).mean())


def loss_and_gradients(
    batch: Batch,
    params: dict,
    config: EncoderConfig,
    dropout_rng=None,
    ws: Workspace | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss plus exact analytic gradients for every parameter. Dropout
    (at ``config.dropout_rate``) is applied iff ``dropout_rng`` is given.

    The forward caches and the backward scratch live in ``ws`` (a fresh
    ``Workspace`` if None). The returned gradients are new arrays, never
    workspace buffers.
    """
    if batch.labels is None:
        raise DomainError("gradients require a labeled batch")
    ws = ws or Workspace()
    x, cache = _encode(batch, params, config, ws, dropout_rng)
    h_cls = x[:, 0, :]
    probs = _classify(h_cls, params)
    loss_value = loss(probs, batch.labels)

    b = batch.size
    # Each gradient is assigned once below; _scatter_rows accumulates the embeddings'.
    grads = {name: np.zeros_like(params[name]) for name in ("tok_emb", "pos_emb", "seg_emb")}

    dlogits = probs.copy()
    dlogits[np.arange(b), batch.labels] -= 1.0
    dlogits /= b

    grads["cls_w"] = h_cls.T @ dlogits
    grads["cls_b"] = dlogits.sum(axis=0)
    dtype = params["cls_w"].dtype
    dx = ws.get("dx", x.shape, dtype)
    dx.fill(0.0)
    dx[:, 0, :] = dlogits @ params["cls_w"].T

    for i in reversed(range(config.n_layers)):
        prefix = f"l{i}"
        attn_cache, ffn_cache = cache["layers"][i]

        # FFN block: out = LN2(x1 + w2·gelu(w1·x1 + b1) + b2)
        dz, dg, dbv = _layer_norm_backward(dx, ffn_cache["ln"], params[f"{prefix}.ln2_g"], ws)
        grads[f"{prefix}.ln2_g"] = dg
        grads[f"{prefix}.ln2_b"] = dbv
        x1, h1, t, a = ffn_cache["x"], ffn_cache["h1"], ffn_cache["t"], ffn_cache["a"]
        grads[f"{prefix}.w2"] = _rows(a).T @ _rows(dz)
        grads[f"{prefix}.b2"] = dz.sum(axis=(0, 1))
        # a and t are dead now: the GELU derivative goes into a, da into t.
        dgelu = _gelu_grad(h1, t, a, ws.get("tmp", h1.shape, dtype))
        dh1 = np.matmul(dz, params[f"{prefix}.w2"].T, out=t)
        dh1 *= dgelu
        grads[f"{prefix}.w1"] = _rows(x1).T @ _rows(dh1)
        grads[f"{prefix}.b1"] = dh1.sum(axis=(0, 1))
        dx1 = np.matmul(dh1, params[f"{prefix}.w1"].T, out=ws.get("dx", dz.shape, dtype))
        dx1 += dz

        dx = _attention_backward(dx1, attn_cache, params, prefix, config, ws, grads)

    if cache["emb_mask"] is not None:
        dx *= cache["emb_mask"]
    dsum, dg, dbv = _layer_norm_backward(dx, cache["emb_ln"], params["emb_ln_g"], ws)
    grads["emb_ln_g"] = dg
    grads["emb_ln_b"] = dbv
    for name, index in _lookups(batch, config):
        _scatter_rows(grads[name], index, dsum)

    return loss_value, grads


def _scatter_rows(table, index, values):
    """``np.add.at(table, index, values)`` for a contiguous (V, d) ``table``
    and ``values`` of shape ``index.shape + (d,)``, as 1-D ``add.at`` calls
    over element indices, which numpy runs about 3x faster than the 2-D
    form. Each element receives the same additions in the same row order,
    so the result is bit-identical. A sorted ``reduceat`` or a one-hot
    matmul would not be: both add in another order. One call per batch row
    keeps the int64 element indices to (L, d), not (B, L, d)."""
    d = table.shape[1]
    flat = table.reshape(-1)
    columns = np.arange(d)
    for row, vals in zip(index, values):
        np.add.at(flat, (row[:, None] * d + columns).reshape(-1), vals.reshape(-1))


def _attention_backward(dx1, cache, params, prefix, config, ws, grads):
    """Backward pass of ``_attention_block``: x1 = LN1(x + attn(x)). Puts
    the block's parameter gradients into ``grads`` and returns dx, which is
    the workspace's "dx" buffer; ``dx1`` and the cache's buffers are used as
    scratch."""
    h = config.n_heads
    dtype = dx1.dtype
    dz, dg, dbv = _layer_norm_backward(dx1, cache["ln"], params[f"{prefix}.ln1_g"], ws)
    grads[f"{prefix}.ln1_g"] = dg
    grads[f"{prefix}.ln1_b"] = dbv
    x, q, k, v = cache["x"], cache["q"], cache["k"], cache["v"]
    weights, used = cache["weights"], cache["used"]
    grads[f"{prefix}.wo"] = _rows(cache["ctx"]).T @ _rows(dz)
    grads[f"{prefix}.bo"] = dz.sum(axis=(0, 1))
    # dctx goes into dx1's buffer; dv then lands in v's, dq in dctx's and
    # dk in k's, each once its last reader is done.
    dctx = np.matmul(dz, params[f"{prefix}.wo"].T, out=dx1)
    dscores = np.matmul(
        _split_heads(dctx, h), _split_heads(v, h).transpose(0, 1, 3, 2),
        out=ws.get("dscores", weights.shape, dtype),
    )
    dq, dk, dv = dctx, k, v
    np.matmul(used.transpose(0, 1, 3, 2), _split_heads(dctx, h), out=_split_heads(dv, h))
    if cache["dropout"] is not None:
        dscores *= cache["dropout"]
    dscores -= np.multiply(
        dscores, weights, out=ws.get("tmp", weights.shape, dtype)
    ).sum(axis=-1, keepdims=True)
    dscores *= weights
    # The cached q is already scaled, so dk needs no scale of its own.
    np.matmul(dscores, _split_heads(k, h), out=_split_heads(dq, h))
    np.matmul(dscores.transpose(0, 1, 3, 2), _split_heads(q, h), out=_split_heads(dk, h))
    dq *= 1.0 / math.sqrt(config.head_dim)

    lq = q.shape[1]
    for n, rows, dn in (("q", x[:, :lq], dq), ("k", x, dk), ("v", x, dv)):
        grads[f"{prefix}.w{n}"] = _rows(rows).T @ _rows(dn)
        grads[f"{prefix}.b{n}"] = dn.sum(axis=(0, 1))
    # dx = dk·wkᵀ + (dq·wqᵀ + dz) + dv·wvᵀ, where dq and dz cover the lq
    # query rows only; dq·wqᵀ goes into q's buffer, dx into "dx".
    dqx = np.matmul(dq, params[f"{prefix}.wq"].T, out=q)
    dqx += dz
    dx = np.matmul(dk, params[f"{prefix}.wk"].T, out=ws.get("dx", x.shape, dtype))
    dx[:, :lq] += dqx
    dx += np.matmul(dv, params[f"{prefix}.wv"].T, out=dk)
    return dx


@dataclass
class AdamState:
    """Adam's step count and moments. ``moments`` is one (2, n) array over
    the n parameter values in ``params`` order, so ``train_step`` updates
    every moment in one pass; ``m`` and ``v`` are dicts keyed like
    ``params`` whose values are views of its two rows."""

    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    moments: np.ndarray

    @classmethod
    def init(cls, params: dict) -> "AdamState":
        n = sum(p.size for p in params.values())
        moments = np.zeros((2, n), dtype=np.result_type(*params.values()))
        m, v = (
            {name: row[part].reshape(params[name].shape) for name, part in _flat_views(params)}
            for row in moments
        )
        return cls(step=0, m=m, v=v, moments=moments)


def _flat_views(params: dict) -> list[tuple[str, slice]]:
    """Each parameter's slice of a flat array over ``params`` in order."""
    views, start = [], 0
    for name, p in params.items():
        views.append((name, slice(start, start + p.size)))
        start += p.size
    return views


def train_step(
    batch: Batch,
    params: dict,
    state: AdamState,
    lr: float,
    config: EncoderConfig,
    ws: Workspace | None = None,
) -> float:
    """One Adam update: updates ``params``, ``state.m`` and ``state.v`` in
    place, advances ``state.step`` and returns the loss. On non-finite
    gradients it raises before touching any of them. Dropout draws from a
    stream seeded by ``config.seed`` and the step. ``ws`` holds the step's
    temporaries; a run passes the same one to every step."""
    ws = ws or Workspace()
    rng = None
    if config.dropout_rate > 0.0:
        rng = np.random.default_rng(config.seed * 1_000_003 + state.step)
    loss_value, grads = loss_and_gradients(batch, params, config, dropout_rng=rng, ws=ws)
    m, v = state.moments
    views = _flat_views(params)
    # The update runs once over flat arrays in params order. Its two buffers
    # are backward-pass scratch, dead once the gradients are out; "dscores"
    # and "tmp" hold (B, H, L, L) scores, so a step's memory grows only where
    # the parameter values outnumber those. The gradients are gathered and
    # checked at once; the first non-finite one is named.
    g = ws.get("dscores", m.shape, m.dtype)
    for name, part in views:
        g[part] = grads[name].reshape(-1)
    if not np.isfinite(g).all():
        bad = next(name for name, _ in views if not np.isfinite(grads[name]).all())
        raise NumericalError(f"non-finite gradient in {bad}, step aborted")

    t = state.step + 1
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    u = ws.get("tmp", m.shape, m.dtype)
    # m = b1·m + (1 - b1)·g
    m *= ADAM_BETA1
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=u)
    # v = b2·v + (1 - b2)·g²
    v *= ADAM_BETA2
    np.multiply(g, g, out=u)
    u *= 1.0 - ADAM_BETA2
    v += u
    # p -= lr·(m / bc1) / (sqrt(v / bc2) + eps); g is dead now and takes
    # the denominator.
    np.divide(m, bc1, out=u)
    u *= lr
    np.sqrt(np.divide(v, bc2, out=g), out=g)
    g += ADAM_EPS
    u /= g
    for name, part in views:
        p = params[name]
        p -= u[part].reshape(p.shape)
    state.step = t
    return loss_value


def save_checkpoint(
    path: str | Path,
    params: dict,
    config: EncoderConfig,
    seed: int,
    vocab_hash: str | None = None,
) -> None:
    """Write a self-describing checkpoint: JSON header line + raw arrays,
    little-endian in the config's dtype."""
    order = param_shapes(config)
    item = np.dtype(config.np_dtype).newbyteorder("<")
    header = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(config),
        "seed": seed,
        "vocab_hash": vocab_hash,
        "params": [{"name": n, "shape": list(params[n].shape)} for n in order],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for name in order:
            fh.write(np.ascontiguousarray(params[name], dtype=item).tobytes())


def load_checkpoint(path: str | Path) -> tuple[dict, EncoderConfig, int, dict]:
    """Read a checkpoint back: (params, config, seed, header). The header's
    parameter list must be exactly the config's, and no bytes may follow
    the last array."""
    with open(path, "rb") as fh:
        try:
            header = json_object(fh.readline().decode("utf-8"))
        except ValueError as exc:
            raise FormatError(f"{path}: bad checkpoint header: {exc}") from exc
        if header.get("version") != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version")
        try:
            config = EncoderConfig(**header["config"])
            seed = header["seed"]
            if type(seed) is not int:
                raise FormatError(f"header key seed must be int, got {seed!r}")
        except (KeyError, TypeError, DomainError, FormatError) as exc:
            raise FormatError(f"{path}: bad checkpoint config: {exc}") from exc
        shapes = param_shapes(config)
        if header.get("params") != [
            {"name": name, "shape": list(shape)} for name, shape in shapes.items()
        ]:
            raise FormatError(f"{path}: parameter list does not match the config")
        item = np.dtype(config.np_dtype).newbyteorder("<")
        params = {}
        for name, shape in shapes.items():
            size = math.prod(shape) * item.itemsize
            buf = fh.read(size)
            if len(buf) != size:
                raise FormatError(f"{path}: truncated checkpoint")
            params[name] = np.frombuffer(buf, dtype=item).reshape(shape).astype(config.np_dtype)
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after the last array")
    return params, config, seed, header
