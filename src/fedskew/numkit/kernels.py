"""Plain-array forward and backward passes: what a training step and an evaluation run.

No graph and no gradient wrappers: a forward pass returns its output and, for the
backward pass, a cache of the arrays it reads.  Tests compare each model's step built
from them with its op chain in `autograd` under `backward`.
"""

import functools
import itertools
import math
import threading

import numpy as np

from .tensor import ContractError, NumericError, ShapeError

ENCODER_LAYER_KEYS = ("ln1.gain", "ln1.bias", "attn.wq", "attn.bq", "attn.wk", "attn.bk",
                      "attn.wv", "attn.bv", "attn.wo", "attn.bo", "ln2.gain", "ln2.bias",
                      "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2")
ENCODER_ADAPTER_KEYS = ("attn.q_lora.A", "attn.q_lora.B", "attn.v_lora.A", "attn.v_lora.B")
LAYERNORM_EPS = 1e-5


def finite(op: str, value):
    """`value`, if every element is finite; else `NumericError` naming `op`, the autodiff node
    or the model output (`textcnn_logits`, `loraformer_logits`) that made it."""
    if not np.isfinite(value).all():
        raise NumericError(f"non-finite output from op {op!r}")
    return value


def check_ids(ids, vocab: int) -> np.ndarray:
    """Integer ids, each a row of a table of `vocab` rows."""
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu":
        raise ContractError("embedding ids must be integers")
    if ids.min(initial=0) < 0 or ids.max(initial=0) >= vocab:
        raise ShapeError("embedding id out of range")
    return ids


def check_labels(labels, classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= classes:
        raise ContractError("label out of range")
    return labels


def row_sums(ids, g, shape) -> np.ndarray:
    """The gradient of table[ids] for a table of `shape`: the rows of g summed into their
    ids' rows in id order, as np.add.at(zeros, ids, g rows) adds them."""
    slots = (ids.reshape(-1, 1) * shape[1] + np.arange(shape[1])).reshape(-1)
    return np.bincount(slots, weights=g.reshape(-1), minlength=shape[0] * shape[1]).reshape(shape)


_scratch = threading.local()  # the arrays of `zeros`, one set per thread


def zeros(name, shape) -> np.ndarray:
    """The first shape[0] rows of grow-only scratch array `name`, zero when made and kept for
    its thread's life.  Callers leave zero what they expect zero, and keep nothing past a call."""
    buf = _scratch.__dict__.get(name)
    if buf is None or buf.shape[1:] != shape[1:] or len(buf) < shape[0]:
        buf = _scratch.__dict__[name] = np.zeros(shape)
    return buf[: shape[0]]


def fresh(name, shape) -> np.ndarray:
    """A new array to write, for callers that keep their results (an autodiff node does)."""
    return np.empty(shape)


def scratch(slot):
    """(name, shape) -> the `zeros` array `name` of `slot`, to overwrite: intermediates that
    live only until a step's backward pass ends reuse their memory step after step."""
    return lambda name, shape: zeros(f"{slot}/{name}", shape)


# ---------------------------------------------------------------------------
# elementwise and normalization pieces
# ---------------------------------------------------------------------------

GELU_C = math.sqrt(2.0 / math.pi)  # tanh approximation constant


# The in-place functions below write into arrays from `buf(name, shape)` (`fresh` or a
# `scratch` slot), in the order and association of the expression each one documents.


def gelu(x, buf=fresh):
    """(0.5 x (1 + t), t) for t = tanh(c (x + 0.044715 (x x x))): gelu(x) and the tanh
    its derivative reuses."""
    t = np.multiply(x, x, out=buf("gelu.t", x.shape))
    t *= x
    t *= 0.044715
    t += x
    t *= GELU_C
    np.tanh(t, out=t)
    act = np.multiply(x, 0.5, out=buf("gelu.act", x.shape))
    act *= np.add(t, 1.0, out=buf("gelu.work", x.shape))
    return act, t


def gelu_dx(x, t, buf=fresh):
    """0.5 (1 + t) + 0.5 x (1 - t t) (c (1 + 3 0.044715 (x x))), gelu's derivative."""
    dinner = np.multiply(x, x, out=buf("gelu_dx.dinner", x.shape))
    dinner *= 3 * 0.044715
    dinner += 1.0
    dinner *= GELU_C
    out = np.multiply(t, t, out=buf("gelu_dx", x.shape))
    np.subtract(1.0, out, out=out)
    rest = np.multiply(x, 0.5, out=buf("gelu_dx.rest", x.shape))
    rest *= out
    rest *= dinner
    np.add(t, 1.0, out=out)
    out *= 0.5
    out += rest
    return out


def layernorm(xv, gain, bias, eps=LAYERNORM_EPS):
    """(output, xhat, 1/std) of a layernorm of `xv` over its last axis.  The
    variance sums the squares of the centred input, as np.var does, bitwise."""
    xc = xv - xv.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).sum(axis=-1, keepdims=True) / xv.shape[-1] + eps)
    xhat = xc * inv
    return xhat * gain + bias, xhat, inv


def layernorm_dx(g, gain, xhat, inv):
    gh = g * gain
    return inv * (gh - gh.mean(axis=-1, keepdims=True)
                  - xhat * (gh * xhat).mean(axis=-1, keepdims=True))


def softmax(logits, out=None):
    """e / e.sum(-1) for e = exp(logits - logits.max(-1)), over the last axis; `out` may be
    `logits` itself."""
    out = np.subtract(logits, logits.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def softmax_dx(g, y, out=None):
    """y (g - (g y).sum(-1)), the gradient through a softmax of output y; `out` must not
    be `g`."""
    out = np.multiply(g, y, out=out)
    np.subtract(g, out.sum(axis=-1, keepdims=True), out=out)
    out *= y
    return out


def cross_entropy(logits, labels):
    """(mean cross-entropy of (batch, classes) logits against integer labels, its gradient
    with respect to the logits).  Labels must be in range.  The gradient is
    (softmax - onehot) / batch, the floats `softmax_cross_entropy`'s node computes."""
    n, classes = logits.shape
    m = logits.max(axis=1, keepdims=True)
    e = logits - m
    np.exp(e, out=e)
    lse = m[:, 0] + np.log(e.sum(axis=1))
    picks = np.arange(n) * classes + labels
    loss = np.add.reduce(lse - logits.reshape(-1)[picks]) / n  # what .mean() computes
    probs = np.subtract(logits, lse[:, None], out=e)
    np.exp(probs, out=probs)
    probs.reshape(-1)[picks] -= 1.0
    probs *= 1.0 / n
    return loss, probs


# ---------------------------------------------------------------------------
# TextCNN
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def pool_indices(n, seq, widths, cols):
    """Shared, read-only: (position, filter)s past each width's range, row offsets, filters."""
    arrays = (np.arange(seq)[:, None] > seq - np.repeat(widths, np.diff(cols)),
              np.arange(n)[:, None] * seq, np.arange(cols[-1]))
    for a in arrays:
        a.setflags(write=False)
    return arrays


def textcnn_forward(table, ids, pad_id, kernels, biases, weight, bias, keep_prob=1.0,
                    rng=None, train=False):
    """TextCNN's logits and the cache `textcnn_backward` reads: x = table[ids] zeroed where
    ids == pad_id, features = concat over widths of max_over_time(relu(conv1d_valid(x,
    kernel) + bias)), logits = dropout(features) @ weight + bias.

    The filter banks are one gemm of the window matrix, row (document, position) holding the
    next max-width positions zero-padded past the end, against the kernels stacked with zero
    rows below each width; positions past a width's range never win the max, and ties go to
    the first position.  Operands are arrays of consistent shapes and ids are in range."""
    (n, seq), ch, widths = ids.shape, table.shape[1], tuple(len(k) for k in kernels)
    cols = (0, *itertools.accumulate(k.shape[2] for k in kernels))
    span, total = max(widths), cols[-1]
    keep = (ids != pad_id)[:, :, None]
    x = table[ids] * keep
    past, rows, filters = pool_indices(n, seq, widths, cols)
    windows = zeros("windows", (n, seq, span, ch))
    for s in range(span):
        windows[:, : seq - s, s] = x[:, s:]
    stacked = np.zeros((span * ch, total))
    for w, k, lo, hi in zip(widths, kernels, cols, cols[1:]):
        stacked[: w * ch, lo:hi] = k.reshape(w * ch, hi - lo)
    act = np.matmul(windows.reshape(n * seq, span * ch), stacked,
                    out=zeros("act", (n * seq, total))).reshape(n, seq, total)
    act += np.concatenate(biases)
    act *= act > 0
    np.copyto(act, -1.0, where=past)  # below every relu output
    flat = (rows + act.argmax(axis=1)) * total + filters  # each (document, filter)'s first max
    features = act.reshape(-1)[flat]
    alive = features > 0  # the relu mask at the winning position
    mask = None
    if train and keep_prob < 1.0:
        mask = (rng.random(features.shape) < keep_prob) / keep_prob
        features *= mask
    logits = features @ weight + bias
    return logits, (ids, table.shape, keep, x, stacked, widths, cols, flat, features, alive,
                    mask, weight)


def textcnn_backward(cache, g) -> list:
    """The gradients of every `textcnn_forward` operand but ids, in its order: the table,
    the kernels, the biases, the head weight and bias.  The kernel and input gradients
    take one gemm each."""
    ids, table_shape, keep, x, stacked, widths, cols, flat, features, alive, mask, weight = cache
    (n, seq), ch, span, total = ids.shape, table_shape[1], max(widths), cols[-1]
    gpre = ((g @ weight.T) * mask if mask is not None else g @ weight.T) * alive
    scattered = zeros("scattered", (n, seq, total))
    scattered.reshape(-1)[flat] = gpre
    # the gradient of window (document, p - s) at row (document, p), shift s
    shifted = zeros("shifted", (n, seq, span, total))
    for s in range(span):
        shifted[:, s:, s] = scattered[:, : seq - s]
    scattered.reshape(-1)[flat] = 0.0
    shifted = shifted.reshape(n * seq, span * total)
    gstacked = (x.reshape(n * seq, ch).T @ shifted).reshape(ch, span, total)
    by_shift = stacked.reshape(span, ch, total).transpose(0, 2, 1).reshape(span * total, ch)
    gx = (shifted @ by_shift).reshape(n, seq, ch)
    bounds = list(zip(widths, cols, cols[1:]))
    return [row_sums(ids, gx * keep, table_shape),
            *(gstacked[:, :w, lo:hi].transpose(1, 0, 2) for w, lo, hi in bounds),
            *(gpre[:, lo:hi].sum(axis=0) for _, lo, hi in bounds),
            features.T @ g, g.sum(axis=0)]


# ---------------------------------------------------------------------------
# LoRA encoder layer
# ---------------------------------------------------------------------------


def key_mask_bias(key_mask) -> np.ndarray:
    """The additive attention mask of a boolean (batch, seq) key mask, broadcast over heads
    and queries: 0 where a key counts, -1e30 where it is excluded."""
    return np.where(key_mask, 0.0, -1e30)[:, None, None, :]


def encoder_layer_forward(x, val: dict, heads: int, mask_bias, scaling, keep_prob, rng, train,
                          buf):
    """One pre-LN transformer encoder layer with LoRA on q and v (see
    `autograd.encoder_layer_ops`), on arrays: (output, cache for `encoder_layer_backward`).
    `val` maps the layer's keys to arrays; an adapter is there when its A is.
    `mask_bias` is `key_mask_bias` of the batch's key mask.  The attention scores and the
    FFN's hidden activations, the largest arrays of both passes, and their gradients are
    written into arrays from `buf`, a `scratch` slot, which the cache keeps until the
    backward pass."""
    n, s, d = x.shape
    adapters = [p for p in "qv" if f"attn.{p}_lora.A" in val]
    drop = train and keep_prob < 1.0
    dh = d // heads
    c = 1.0 / math.sqrt(dh)

    def split(t):  # (n, s, d) -> (n, heads, s, dh)
        return t.reshape(n, s, heads, dh).transpose(0, 2, 1, 3)

    a, xhat1, inv1 = layernorm(x, val["ln1.gain"], val["ln1.bias"])
    proj, masks, paths, lows = {}, {}, {}, {}
    for p in "qkv":
        proj[p] = a @ val[f"attn.w{p}"] + val[f"attn.b{p}"]
        if p in adapters:
            if drop:
                masks[p] = (rng.random(a.shape) < keep_prob) / keep_prob
            paths[p] = a * masks[p] if drop else a
            lows[p] = paths[p] @ val[f"attn.{p}_lora.A"].T
            proj[p] = proj[p] + (lows[p] @ val[f"attn.{p}_lora.B"].T) * scaling
    qh, kh, vh = split(proj["q"]), split(proj["k"]), split(proj["v"])
    y = np.matmul(qh, kh.transpose(0, 1, 3, 2), out=buf("scores", (n, heads, s, s)))
    y *= c
    y += mask_bias
    softmax(y, out=y)
    merged = (y @ vh).transpose(0, 2, 1, 3).reshape(n, s, d)
    h = x + (merged @ val["attn.wo"] + val["attn.bo"])
    fin, xhat2, inv2 = layernorm(h, val["ln2.gain"], val["ln2.bias"])
    z = np.matmul(fin, val["ffn.w1"], out=buf("z", (n, s, len(val["ffn.b1"]))))
    z += val["ffn.b1"]
    act, t = gelu(z, buf)
    out = h + (act @ val["ffn.w2"] + val["ffn.b2"])
    return out, (val, heads, scaling, adapters, masks, paths, lows, a, xhat1, inv1,
                 qh, kh, vh, y, merged, xhat2, inv2, fin, z, t, act, buf)


def encoder_layer_backward(cache, g, trains, need_x: bool):
    """(gradient of the layer's input or None, {key: gradient}) for output gradient `g`;
    `trains(key)` says whether a weight needs its gradient, and only what some trained
    weight or, with `need_x`, the input needs is computed.  Each weight gradient is one
    gemm over all (batch, seq) rows."""
    (val, heads, scaling, adapters, masks, paths, lows, a, xhat1, inv1,
     qh, kh, vh, y, merged, xhat2, inv2, fin, z, t, act, buf) = cache
    n, s, d = g.shape
    dh = d // heads
    c = 1.0 / math.sqrt(dh)
    grads = {}

    def split(m):
        return m.reshape(n, s, heads, dh).transpose(0, 2, 1, 3)

    def merge(m):
        return m.transpose(0, 2, 1, 3).reshape(n, s, d)

    def rows(m):
        return m.reshape(-1, m.shape[-1])

    def linear(weight, bias, inp, gout):  # out = inp @ weight + bias
        if trains(weight):
            grads[weight] = rows(inp).T @ rows(gout)
        if trains(bias):
            grads[bias] = gout.sum(axis=(0, 1))

    def affine(ln, gout, xhat):
        if trains(f"{ln}.gain"):
            grads[f"{ln}.gain"] = (gout * xhat).sum(axis=(0, 1))
        if trains(f"{ln}.bias"):
            grads[f"{ln}.bias"] = gout.sum(axis=(0, 1))

    need_a = need_x or trains("ln1.gain") or trains("ln1.bias")
    need = {p: need_a or trains(f"attn.w{p}") or trains(f"attn.b{p}")
            or (p in adapters and (trains(f"attn.{p}_lora.A") or trains(f"attn.{p}_lora.B")))
            for p in "qkv"}
    need_h = need["q"] or need["k"] or need["v"] or trains("attn.wo") or trains("attn.bo")
    need_fin = need_h or trains("ln2.gain") or trains("ln2.bias")
    linear("ffn.w2", "ffn.b2", act, g)
    if need_fin or trains("ffn.w1") or trains("ffn.b1"):
        dz = np.matmul(g, val["ffn.w2"].T, out=buf("dz", z.shape))
        dz *= gelu_dx(z, t, buf)
        linear("ffn.w1", "ffn.b1", fin, dz)
    gx = None
    if need_fin:
        dfin = dz @ val["ffn.w1"].T
        affine("ln2", dfin, xhat2)
    if need_h:
        gh = g + layernorm_dx(dfin, val["ln2.gain"], xhat2, inv2)
        linear("attn.wo", "attn.bo", merged, gh)
        gx = gh if need_x else None
    if need["q"] or need["k"] or need["v"]:
        dattn = split(gh @ val["attn.wo"].T)
        dproj = {}
        if need["v"]:
            dproj["v"] = merge(y.transpose(0, 1, 3, 2) @ dattn)
        if need["q"] or need["k"]:
            dy = np.matmul(dattn, vh.transpose(0, 1, 3, 2), out=buf("dy", y.shape))
            dscores = softmax_dx(dy, y, out=buf("dscores", y.shape))
            dscores *= c
            if need["q"]:
                dproj["q"] = merge(dscores @ kh)
            if need["k"]:
                dproj["k"] = merge(dscores.transpose(0, 1, 3, 2) @ qh)
        da = 0.0
        for p, dp in dproj.items():
            linear(f"attn.w{p}", f"attn.b{p}", a, dp)
            if need_a:
                da = da + dp @ val[f"attn.w{p}"].T
            if p not in adapters:
                continue
            ka, kb = f"attn.{p}_lora.A", f"attn.{p}_lora.B"
            ddelta = dp * scaling
            if trains(kb):
                grads[kb] = rows(ddelta).T @ rows(lows[p])
            if trains(ka) or need_a:
                dlow = ddelta @ val[kb]
                if trains(ka):
                    grads[ka] = rows(dlow).T @ rows(paths[p])
                if need_a:
                    dpath = dlow @ val[ka]
                    da = da + (dpath * masks[p] if p in masks else dpath)
        if need_a:
            affine("ln1", da, xhat1)
            if need_x:
                gx = gx + layernorm_dx(da, val["ln1.gain"], xhat1, inv1)
    return gx, grads
