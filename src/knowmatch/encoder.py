"""A small transformer encoder classifier with visibility-masked attention.

Runs on plain numpy in 64-bit floats by default. Positions are looked up
from the soft-position vector, attention logits are masked with -1e9 where
the visibility matrix is 0, and the [CLS] hidden state feeds a two-way
classification head. Backpropagation is written out analytically so it can
be checked against finite differences.
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
from .tabular import json_object

MASK_VALUE = -1e9
LN_EPS = 1e-5
CHECKPOINT_VERSION = 1
# Evaluation runs the layer stack on row chunks of the batch whose
# (rows, H, L, L) attention scores fit in this many bytes: 2 rows at
# L=512 with 4 heads in float64, the whole batch at short lengths.
ATTN_CHUNK_BYTES = 16 * 2**20


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

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EncoderConfig":
        return cls(**d)


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
    """Padded model input. [PAD] rows and columns of ``visible`` are zero."""

    token_ids: np.ndarray      # (B, L) int64
    soft_positions: np.ndarray  # (B, L) int64
    segments: np.ndarray       # (B, L) int64
    visible: np.ndarray        # (B, L, L) model dtype, binary
    labels: np.ndarray | None  # (B,) int64

    @classmethod
    def from_sequences(
        cls,
        seqs: Sequence[tuple],
        pad_id: int,
        dtype=np.float64,
    ) -> "Batch":
        """Pad (tokens, soft_positions, segments, visible-or-None, label)
        tuples into one batch. ``visible=None`` means fully visible."""
        b = len(seqs)
        max_len = max(len(s[0]) for s in seqs)
        ids = np.full((b, max_len), pad_id, dtype=np.int64)
        soft = np.zeros((b, max_len), dtype=np.int64)
        seg = np.zeros((b, max_len), dtype=np.int64)
        vis = np.zeros((b, max_len, max_len), dtype=dtype)
        labels = np.zeros(b, dtype=np.int64)
        has_labels = True
        for i, (tokens, soft_pos, segments, visible, label) in enumerate(seqs):
            n = len(tokens)
            ids[i, :n] = tokens
            soft[i, :n] = soft_pos if soft_pos is not None else np.arange(n)
            seg[i, :n] = segments
            if visible is None:
                vis[i, :n, :n] = 1.0
            else:
                vis[i, :n, :n] = np.asarray(visible, dtype=dtype)
            if label is None:
                has_labels = False
            else:
                labels[i] = label
        return cls(ids, soft, seg, vis, labels if has_labels else None)

    @property
    def size(self) -> int:
        return self.token_ids.shape[0]


def _layer_norm(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return gain * xhat + bias, (xhat, inv)


def _layer_norm_backward(dy, cache, gain):
    xhat, inv = cache
    axes = tuple(range(dy.ndim - 1))
    dgain = (dy * xhat).sum(axis=axes)
    dbias = dy.sum(axis=axes)
    dxhat = dy * gain
    dmean = dxhat.mean(axis=-1, keepdims=True)
    dproj = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv * (dxhat - dmean - xhat * dproj)
    return dx, dgain, dbias


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _gelu_tanh(x, x2):
    """tanh(C·(x + A·x³)), the term the GELU backward pass reuses.

    ``x2`` is ``x*x``; the cube is two multiplies, not ``x ** 3`` (libm
    ``pow``, about 14x slower on these arrays).
    """
    u = x2 * x
    u *= _GELU_A
    u += x
    u *= _GELU_C
    return np.tanh(u, out=u)


def _gelu(x, t=None):
    """Tanh-approximate GELU (Hendrycks & Gimpel, arXiv 1606.08415); ``t``
    is ``_gelu_tanh`` of ``x`` if already computed."""
    if t is None:
        t = _gelu_tanh(x, x * x)
    return 0.5 * x * (1.0 + t)


def _gelu_grad(x, t=None):
    """dGELU/dx; ``t`` is the forward pass's ``_gelu_tanh`` of ``x`` if kept."""
    x2 = x * x
    if t is None:
        t = _gelu_tanh(x, x2)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_A * x2)


def _softmax(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _split_heads(x, n_heads):
    b, l, d = x.shape
    return x.reshape(b, l, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, l, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, l, h * dh)


def embed(batch: Batch, params: dict, config: EncoderConfig) -> np.ndarray:
    """Token + soft-position + segment embedding, layer-normed. (B, L, d)."""
    out, _ = _embed_cache(batch, params, config)
    return out


def _embed_cache(batch, params, config):
    if int(batch.soft_positions.max(initial=0)) >= config.max_position:
        raise DomainError(
            f"soft position {int(batch.soft_positions.max())} >= "
            f"max_position {config.max_position}"
        )
    total = params["tok_emb"][batch.token_ids] + params["pos_emb"][batch.soft_positions]
    if config.use_segments:
        total = total + params["seg_emb"][batch.segments]
    normed, ln_cache = _layer_norm(total, params["emb_ln_g"], params["emb_ln_b"])
    return normed, ln_cache


def _mask_bias(visible):
    """Additive attention bias (B, 1, L, L): 0 where visible, MASK_VALUE where not."""
    return ((1.0 - visible) * MASK_VALUE)[:, None]


def _attention_block(x, bias, params, prefix, config, attn_dropout_mask=None):
    """One attention sub-block: projections, masked softmax, residual, LN.

    ``bias`` is ``_mask_bias(visible)``, built once per forward pass (once
    per row chunk in ``forward``).
    """
    h = config.n_heads
    scale = 1.0 / math.sqrt(config.head_dim)
    q = x @ params[f"{prefix}.wq"] + params[f"{prefix}.bq"]
    k = x @ params[f"{prefix}.wk"] + params[f"{prefix}.bk"]
    v = x @ params[f"{prefix}.wv"] + params[f"{prefix}.bv"]
    qh, kh, vh = _split_heads(q, h), _split_heads(k, h), _split_heads(v, h)
    # Masked softmax in the one (B, H, L, L) buffer the scores come in.
    weights = qh @ kh.transpose(0, 1, 3, 2)
    weights *= scale
    weights += bias
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    used = weights if attn_dropout_mask is None else weights * attn_dropout_mask
    ctx = _merge_heads(used @ vh)
    attn = ctx @ params[f"{prefix}.wo"] + params[f"{prefix}.bo"]
    out, ln_cache = _layer_norm(x + attn, params[f"{prefix}.ln1_g"], params[f"{prefix}.ln1_b"])
    cache = {
        "x": x, "qh": qh, "kh": kh, "vh": vh, "weights": weights, "used": used,
        "ctx": ctx, "ln": ln_cache, "dropout": attn_dropout_mask,
    }
    return out, cache


def masked_attention(
    hidden: np.ndarray,
    visible: np.ndarray,
    params: dict,
    config: EncoderConfig,
    layer: int = 0,
) -> np.ndarray:
    """Apply one layer's masked attention block to hidden states."""
    out, _ = _attention_block(hidden, _mask_bias(visible), params, f"l{layer}", config)
    return out


def attention_weights(
    hidden: np.ndarray,
    visible: np.ndarray,
    params: dict,
    config: EncoderConfig,
    layer: int = 0,
) -> np.ndarray:
    """Post-softmax attention weights (B, H, L, L) of one layer, for inspection."""
    _, cache = _attention_block(hidden, _mask_bias(visible), params, f"l{layer}", config)
    return cache["weights"]


def _ffn_block(x, params, prefix):
    h1 = x @ params[f"{prefix}.w1"] + params[f"{prefix}.b1"]
    t = _gelu_tanh(h1, h1 * h1)
    a = _gelu(h1, t)
    f = a @ params[f"{prefix}.w2"] + params[f"{prefix}.b2"]
    out, ln_cache = _layer_norm(x + f, params[f"{prefix}.ln2_g"], params[f"{prefix}.ln2_b"])
    return out, {"x": x, "h1": h1, "t": t, "a": a, "ln": ln_cache}


def _classify(h_cls, params):
    """Class probabilities (B, 2) of the final layer's [CLS] states (B, d)."""
    probs = _softmax(h_cls @ params["cls_w"] + params["cls_b"])
    if not np.isfinite(probs).all():
        raise NumericalError("non-finite activations in forward pass")
    return probs


def _forward_cache(batch, params, config, dropout_rng=None):
    # Dropout is on iff a rng is passed (training).
    rate = config.dropout_rate if dropout_rng is not None else 0.0
    keep = 1.0 - rate

    x, emb_ln_cache = _embed_cache(batch, params, config)
    emb_mask = None
    if rate > 0.0:
        emb_mask = (dropout_rng.random(x.shape) < keep).astype(x.dtype) / keep
        x = x * emb_mask

    bias = _mask_bias(batch.visible)
    layer_caches = []
    for i in range(config.n_layers):
        attn_mask = None
        if rate > 0.0:
            b, l = batch.token_ids.shape
            attn_mask = (
                dropout_rng.random((b, config.n_heads, l, l)) < keep
            ).astype(x.dtype) / keep
        x, attn_cache = _attention_block(
            x, bias, params, f"l{i}", config, attn_dropout_mask=attn_mask
        )
        x, ffn_cache = _ffn_block(x, params, f"l{i}")
        layer_caches.append((attn_cache, ffn_cache))

    h_cls = x[:, 0, :]
    probs = _classify(h_cls, params)
    cache = {
        "emb_ln": emb_ln_cache, "emb_mask": emb_mask, "layers": layer_caches,
        "h_cls": h_cls, "probs": probs,
    }
    return probs, cache


def forward(batch: Batch, params: dict, config: EncoderConfig) -> np.ndarray:
    """Class probabilities (B, 2); rows sum to 1. Evaluation mode.

    Keeps no backward caches, and runs the embedding and the layer stack on
    row chunks of the batch sized by ``ATTN_CHUNK_BYTES``: only one chunk's
    (rows, H, L, L) attention scores and mask bias are alive at a time, not
    the batch's. Pairs never attend across rows, so this is exact. The
    chunks' [CLS] states are gathered and classified in one matmul, so the
    result does not depend on the chunk size.
    """
    b, l = batch.token_ids.shape
    itemsize = np.dtype(config.np_dtype).itemsize
    rows = max(1, ATTN_CHUNK_BYTES // (config.n_heads * l * l * itemsize))
    h_cls = np.empty((b, config.d_model), dtype=config.np_dtype)
    for start in range(0, b, rows):
        part = slice(start, start + rows)
        chunk = Batch(
            batch.token_ids[part], batch.soft_positions[part],
            batch.segments[part], batch.visible[part], None,
        )
        x, _ = _embed_cache(chunk, params, config)
        bias = _mask_bias(chunk.visible)
        for i in range(config.n_layers):
            # [0]: the block's cache is dropped at once, not held through the next block.
            x = _attention_block(x, bias, params, f"l{i}", config)[0]
            x = _ffn_block(x, params, f"l{i}")[0]
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
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss plus exact analytic gradients for every parameter. Dropout
    (at ``config.dropout_rate``) is applied iff ``dropout_rng`` is given."""
    if batch.labels is None:
        raise DomainError("gradients require a labeled batch")
    probs, cache = _forward_cache(batch, params, config, dropout_rng)
    loss_value = loss(probs, batch.labels)

    b = batch.size
    # Each gradient is assigned once below; np.add.at accumulates the embeddings'.
    grads = {name: np.zeros_like(params[name]) for name in ("tok_emb", "pos_emb", "seg_emb")}

    dlogits = probs.copy()
    dlogits[np.arange(b), batch.labels] -= 1.0
    dlogits /= b

    grads["cls_w"] = cache["h_cls"].T @ dlogits
    grads["cls_b"] = dlogits.sum(axis=0)
    b_, l_ = batch.token_ids.shape
    dx = np.zeros((b_, l_, config.d_model), dtype=params["cls_w"].dtype)
    dx[:, 0, :] = dlogits @ params["cls_w"].T

    scale = 1.0 / math.sqrt(config.head_dim)
    for i in reversed(range(config.n_layers)):
        prefix = f"l{i}"
        attn_cache, ffn_cache = cache["layers"][i]

        # FFN block: out = LN2(x1 + w2·gelu(w1·x1 + b1) + b2)
        dz, dg, dbv = _layer_norm_backward(dx, ffn_cache["ln"], params[f"{prefix}.ln2_g"])
        grads[f"{prefix}.ln2_g"] = dg
        grads[f"{prefix}.ln2_b"] = dbv
        x1, h1, a = ffn_cache["x"], ffn_cache["h1"], ffn_cache["a"]
        df = dz
        grads[f"{prefix}.w2"] = a.reshape(-1, a.shape[-1]).T @ df.reshape(-1, df.shape[-1])
        grads[f"{prefix}.b2"] = df.sum(axis=(0, 1))
        da = df @ params[f"{prefix}.w2"].T
        dh1 = da * _gelu_grad(h1, ffn_cache["t"])
        grads[f"{prefix}.w1"] = x1.reshape(-1, x1.shape[-1]).T @ dh1.reshape(-1, dh1.shape[-1])
        grads[f"{prefix}.b1"] = dh1.sum(axis=(0, 1))
        dx1 = dz + dh1 @ params[f"{prefix}.w1"].T

        # Attention block: x1 = LN1(x + attn(x))
        dz, dg, dbv = _layer_norm_backward(dx1, attn_cache["ln"], params[f"{prefix}.ln1_g"])
        grads[f"{prefix}.ln1_g"] = dg
        grads[f"{prefix}.ln1_b"] = dbv
        x = attn_cache["x"]
        dattn = dz
        ctx = attn_cache["ctx"]
        grads[f"{prefix}.wo"] = ctx.reshape(-1, ctx.shape[-1]).T @ dattn.reshape(-1, dattn.shape[-1])
        grads[f"{prefix}.bo"] = dattn.sum(axis=(0, 1))
        dctx = _split_heads(dattn @ params[f"{prefix}.wo"].T, config.n_heads)

        used, weights, vh = attn_cache["used"], attn_cache["weights"], attn_cache["vh"]
        dused = dctx @ vh.transpose(0, 1, 3, 2)
        dvh = used.transpose(0, 1, 3, 2) @ dctx
        dweights = dused if attn_cache["dropout"] is None else dused * attn_cache["dropout"]
        # dweights is a fresh array here, so the softmax backward reuses it.
        dscores = dweights
        dscores -= (dweights * weights).sum(axis=-1, keepdims=True)
        dscores *= weights
        dqh = (dscores @ attn_cache["kh"]) * scale
        dkh = (dscores.transpose(0, 1, 3, 2) @ attn_cache["qh"]) * scale

        dq, dk, dv = _merge_heads(dqh), _merge_heads(dkh), _merge_heads(dvh)
        x_flat = x.reshape(-1, x.shape[-1])
        grads[f"{prefix}.wq"] = x_flat.T @ dq.reshape(-1, dq.shape[-1])
        grads[f"{prefix}.bq"] = dq.sum(axis=(0, 1))
        grads[f"{prefix}.wk"] = x_flat.T @ dk.reshape(-1, dk.shape[-1])
        grads[f"{prefix}.bk"] = dk.sum(axis=(0, 1))
        grads[f"{prefix}.wv"] = x_flat.T @ dv.reshape(-1, dv.shape[-1])
        grads[f"{prefix}.bv"] = dv.sum(axis=(0, 1))
        dx = (
            dz
            + dq @ params[f"{prefix}.wq"].T
            + dk @ params[f"{prefix}.wk"].T
            + dv @ params[f"{prefix}.wv"].T
        )

    if cache["emb_mask"] is not None:
        dx = dx * cache["emb_mask"]
    dsum, dg, dbv = _layer_norm_backward(dx, cache["emb_ln"], params["emb_ln_g"])
    grads["emb_ln_g"] = dg
    grads["emb_ln_b"] = dbv
    np.add.at(grads["tok_emb"], batch.token_ids, dsum)
    np.add.at(grads["pos_emb"], batch.soft_positions, dsum)
    if config.use_segments:
        np.add.at(grads["seg_emb"], batch.segments, dsum)

    return loss_value, grads


def gradients(batch: Batch, params: dict, config: EncoderConfig) -> dict[str, np.ndarray]:
    """Analytic gradients of the mean classification loss."""
    _, grads = loss_and_gradients(batch, params, config)
    return grads


@dataclass
class AdamState:
    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    @classmethod
    def init(cls, params: dict) -> "AdamState":
        return cls(
            step=0,
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def train_step(
    batch: Batch,
    params: dict,
    state: AdamState,
    lr: float,
    config: EncoderConfig,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    dropout_seed: int | None = None,
) -> tuple[dict[str, np.ndarray], AdamState, float]:
    """One Adam update. Aborts (params untouched) on non-finite gradients."""
    rng = None
    if config.dropout_rate > 0.0:
        rng = np.random.default_rng(dropout_seed if dropout_seed is not None else 0)
    loss_value, grads = loss_and_gradients(batch, params, config, dropout_rng=rng)
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NumericalError(f"non-finite gradient in {name}, step aborted")

    t = state.step + 1
    new_params, new_m, new_v = {}, {}, {}
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = grads[name]
        m = beta1 * state.m[name] + (1.0 - beta1) * g
        v = beta2 * state.v[name] + (1.0 - beta2) * (g * g)
        update = lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
        new_params[name] = p - update
        new_m[name] = m
        new_v[name] = v
    return new_params, AdamState(step=t, m=new_m, v=new_v), loss_value


def save_checkpoint(
    path: str | Path,
    params: dict,
    config: EncoderConfig,
    seed: int,
    vocab_hash: str | None = None,
) -> None:
    """Write a self-describing checkpoint: JSON header line + raw arrays."""
    order = param_shapes(config)
    header = {
        "version": CHECKPOINT_VERSION,
        "config": config.to_dict(),
        "seed": seed,
        "vocab_hash": vocab_hash,
        "params": [{"name": n, "shape": list(params[n].shape)} for n in order],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for name in order:
            fh.write(np.ascontiguousarray(params[name], dtype="<f8").tobytes())


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
            config = EncoderConfig.from_dict(header["config"])
            seed = int(header["seed"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: bad checkpoint config: {exc}") from exc
        shapes = param_shapes(config)
        if header.get("params") != [
            {"name": name, "shape": list(shape)} for name, shape in shapes.items()
        ]:
            raise FormatError(f"{path}: parameter list does not match the config")
        params = {}
        for name, shape in shapes.items():
            count = math.prod(shape)
            buf = fh.read(count * 8)
            if len(buf) != count * 8:
                raise FormatError(f"{path}: truncated checkpoint")
            params[name] = np.frombuffer(buf, dtype="<f8").reshape(shape).astype(config.np_dtype)
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after the last array")
    return params, config, seed, header
