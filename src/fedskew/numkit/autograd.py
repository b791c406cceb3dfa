"""Reverse-mode autodiff over dense float64 arrays.

The graph is a DAG of GradNode objects built eagerly by the op functions
below.  `backward(loss)` runs reverse topological accumulation and returns
gradients keyed by leaf name; frozen leaves get no entry.

Broadcasting is deliberately limited to bias-add (matrix + trailing row
vector) and 2-D weights against batched activations in matmul; everything
else must match shapes exactly.

No training step or evaluation builds a graph: the models run `kernels`
directly.  The engine and its ops are the test oracle of those kernels: the op
chains `textcnn_logits_ops` and `encoder_layer_ops`, under `backward`, are the
one reference that each model's loss-and-gradient function is compared with.
`perfbench/tracer.py` looks up `backward` and several ops by name.
"""

import math

import numpy as np

from . import kernels as kn
from .tensor import ContractError, ShapeError, as_array


class GradNode:
    """One value in the computation graph."""

    __slots__ = ("op", "value", "parents", "_backward", "requires_grad", "name")

    def __init__(self, op, value, parents=(), backward=None, requires_grad=None, name=None):
        self.op = op
        self.value = value
        self.parents = tuple(parents)
        self._backward = backward
        if requires_grad is None:
            requires_grad = any(p.requires_grad for p in self.parents)
        self.requires_grad = requires_grad
        self.name = name

    @property
    def shape(self):
        return self.value.shape


def leaf(value, name=None, trainable=True) -> GradNode:
    return GradNode("leaf", as_array(value), requires_grad=trainable, name=name)


def const(value) -> GradNode:
    return GradNode("const", as_array(value), requires_grad=False)


def _wrap(x) -> GradNode:
    return x if isinstance(x, GradNode) else const(x)


def _node(op, value, parents, backward):
    return GradNode(op, kn.finite(op, value), parents, backward)


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def add(a, b) -> GradNode:
    """Elementwise add; also matrix + row-vector bias (the only broadcast)."""
    a, b = _wrap(a), _wrap(b)
    av, bv = a.value, b.value
    bias = bv.ndim == 1 and av.ndim > 1 and av.shape[-1] == bv.shape[0]
    if not bias and av.shape != bv.shape:
        raise ShapeError(f"add: {av.shape} vs {bv.shape}")

    def backward(g):
        gb = None
        if b.requires_grad:
            gb = g.sum(axis=tuple(range(g.ndim - 1))) if bias else g
        return g if a.requires_grad else None, gb

    return _node("add", av + bv, (a, b), backward)


def mul(a, b) -> GradNode:
    """Elementwise product, identical shapes only."""
    a, b = _wrap(a), _wrap(b)
    if a.value.shape != b.value.shape:
        raise ShapeError(f"mul: {a.value.shape} vs {b.value.shape}")

    def backward(g):
        return (g * b.value if a.requires_grad else None,
                g * a.value if b.requires_grad else None)

    return _node("mul", a.value * b.value, (a, b), backward)


def scale(a, c: float) -> GradNode:
    a = _wrap(a)
    c = float(c)

    def backward(g):
        return (g * c,)

    return _node("scale", a.value * c, (a,), backward)


def matmul(a, b) -> GradNode:
    """a @ b on the last two axes.

    Leading axes must match exactly, except a 2-D operand (a weight matrix)
    broadcasts against a batched one.
    """
    a, b = _wrap(a), _wrap(b)
    av, bv = a.value, b.value
    if av.ndim < 2 or bv.ndim < 2:
        raise ShapeError("matmul requires >=2-D operands")
    if av.shape[-1] != bv.shape[-2]:
        raise ShapeError(f"matmul: {av.shape} @ {bv.shape}")
    if av.ndim > 2 and bv.ndim > 2 and av.shape[:-2] != bv.shape[:-2]:
        raise ShapeError(f"matmul: leading dims differ {av.shape} vs {bv.shape}")
    out = av @ bv

    def backward(g):
        ga = gb = None
        if a.requires_grad:
            ga = g @ np.swapaxes(bv, -1, -2)
            if av.ndim == 2 and g.ndim > 2:
                ga = ga.reshape(-1, av.shape[0], av.shape[1]).sum(axis=0)
        if b.requires_grad:
            gb = np.swapaxes(av, -1, -2) @ g
            if bv.ndim == 2 and g.ndim > 2:
                gb = gb.reshape(-1, bv.shape[0], bv.shape[1]).sum(axis=0)
        return ga, gb

    return _node("matmul", out, (a, b), backward)


def relu(a) -> GradNode:
    a = _wrap(a)
    mask = a.value > 0

    def backward(g):
        return (g * mask,)

    return _node("relu", a.value * mask, (a,), backward)


def gelu(a) -> GradNode:
    """gelu(x) = 0.5 x (1 + tanh(c (x + 0.044715 x^3))), c = sqrt(2/pi)."""
    a = _wrap(a)
    x = a.value
    out, t = kn.gelu(x)

    def backward(g):
        return (g * kn.gelu_dx(x, t),)

    return _node("gelu", out, (a,), backward)


def embedding_lookup(table, ids) -> GradNode:
    """Gather rows of `table` (V, D) at integer `ids` (any shape)."""
    table = _wrap(table)
    ids = kn.check_ids(ids, len(table.value))

    def backward(g):
        return (kn.row_sums(ids, g, table.value.shape),)

    return _node("embedding_lookup", table.value[ids], (table,), backward)


def conv1d_valid(x, kernel) -> GradNode:
    """Valid 1-D convolution over time.

    x: (batch, seq, channels); kernel: (width, channels, filters)
    -> (batch, seq - width + 1, filters).
    """
    x, kernel = _wrap(x), _wrap(kernel)
    xv, kv = x.value, kernel.value
    if xv.ndim != 3 or kv.ndim != 3 or xv.shape[2] != kv.shape[1]:
        raise ShapeError(f"conv1d_valid: x {xv.shape}, kernel {kv.shape}")
    width = kv.shape[0]
    if width > xv.shape[1]:
        raise ShapeError(f"conv1d_valid: width {width} > seq {xv.shape[1]}")
    out_len = xv.shape[1] - width + 1
    out = np.zeros((xv.shape[0], out_len, kv.shape[2]))
    for i in range(width):
        out += xv[:, i : i + out_len, :] @ kv[i]

    def backward(g):
        gx = np.zeros_like(xv) if x.requires_grad else None
        gk = np.zeros_like(kv) if kernel.requires_grad else None
        for i in range(width):
            if gk is not None:
                window = xv[:, i : i + out_len, :]
                gk[i] = window.reshape(-1, xv.shape[2]).T @ g.reshape(-1, kv.shape[2])
            if gx is not None:
                gx[:, i : i + out_len, :] += g @ kv[i].T
        return gx, gk

    return _node("conv1d_valid", out, (x, kernel), backward)


def max_over_time(x) -> GradNode:
    """Per-channel max over the time axis: (batch, time, channels) -> (batch, channels)."""
    x = _wrap(x)
    xv = x.value
    if xv.ndim != 3:
        raise ShapeError(f"max_over_time expects 3-D, got {xv.shape}")
    idx = xv.argmax(axis=1)  # first max wins: deterministic ties
    b, c = np.meshgrid(np.arange(xv.shape[0]), np.arange(xv.shape[2]), indexing="ij")

    def backward(g):
        gx = np.zeros_like(xv)
        gx[b, idx, c] = g
        return (gx,)

    return _node("max_over_time", xv[b, idx, c], (x,), backward)


def textcnn_logits_ops(table, ids, pad_id: int, kernels, biases, weight, bias,
                       keep_prob: float = 1.0, rng=None, train: bool = False) -> GradNode:
    """TextCNN's logits as a chain of the ops below: the reference of
    `kernels.textcnn_forward`, which documents the model, and of `textcnn_backward`."""
    x = embedding_lookup(table, ids)
    x = mul(x, np.broadcast_to((np.asarray(ids) != pad_id)[:, :, None], x.shape) * 1.0)
    features = concat_last([max_over_time(relu(add(conv1d_valid(x, k), b)))
                            for k, b in zip(kernels, biases)])
    return add(matmul(dropout(features, keep_prob, rng, train), weight), bias)


def layernorm(x, gain, bias, eps: float = 1e-5) -> GradNode:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = _wrap(x), _wrap(gain), _wrap(bias)
    d = x.value.shape[-1]
    if gain.value.shape != (d,) or bias.value.shape != (d,):
        raise ShapeError("layernorm gain/bias must match the last axis")
    out, xhat, inv = kn.layernorm(x.value, gain.value, bias.value, eps)

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        ggain = (g * xhat).sum(axis=lead) if gain.requires_grad else None
        gbias = g.sum(axis=lead) if bias.requires_grad else None
        gx = kn.layernorm_dx(g, gain.value, xhat, inv) if x.requires_grad else None
        return gx, ggain, gbias

    return _node("layernorm", out, (x, gain, bias), backward)


def softmax(x, additive_mask=None) -> GradNode:
    """Softmax over the last axis; `additive_mask` (same shape, -inf allowed) is added first."""
    x = _wrap(x)
    logits = x.value
    if additive_mask is not None:
        logits = logits + additive_mask
    y = kn.softmax(logits)

    def backward(g):
        return (kn.softmax_dx(g, y),)

    return _node("softmax", y, (x,), backward)


def scaled_dot_attention(q, k, v, key_mask=None) -> GradNode:
    """softmax(q k^T / sqrt(d_head) [+ mask]) v on (..., seq, d_head) operands.

    `key_mask` is boolean (..., seq_k): False positions are excluded.
    """
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    d_head = q.value.shape[-1]
    n = k.value.ndim
    scores = scale(matmul(q, transpose(k, (*range(n - 2), n - 1, n - 2))), 1.0 / math.sqrt(d_head))
    additive = None
    if key_mask is not None:
        key_mask = np.asarray(key_mask, dtype=bool)
        additive = np.where(key_mask, 0.0, -1e30)[..., None, :]
        additive = np.broadcast_to(additive, scores.value.shape)
    return matmul(softmax(scores, additive), v)


def reshape(x, shape) -> GradNode:
    x = _wrap(x)
    shape = tuple(shape)
    old = x.value.shape

    def backward(g):
        return (g.reshape(old),)

    return _node("reshape", x.value.reshape(shape), (x,), backward)


def transpose(x, axes) -> GradNode:
    """`x` with its axes permuted; `axes` lists each axis once, as a number >= 0."""
    x = _wrap(x)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        return (g.transpose(inverse),)

    return _node("transpose", x.value.transpose(axes), (x,), backward)


def concat_last(parts) -> GradNode:
    parts = [_wrap(p) for p in parts]
    sizes = [p.value.shape[-1] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(gp if p.requires_grad else None
                     for p, gp in zip(parts, np.split(g, splits, axis=-1)))

    return _node("concat_last", np.concatenate([p.value for p in parts], axis=-1), parts, backward)


def masked_mean_pool(x, mask) -> GradNode:
    """Mean over time of unmasked positions: x (batch, seq, d), mask (batch, seq)."""
    x = _wrap(x)
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != x.value.shape[:2]:
        raise ShapeError(f"masked_mean_pool: mask {mask.shape} vs x {x.value.shape}")
    counts = np.maximum(mask.sum(axis=1), 1.0)
    out = (x.value * mask[:, :, None]).sum(axis=1) / counts[:, None]

    def backward(g):
        return (mask[:, :, None] * (g / counts[:, None])[:, None, :],)

    return _node("masked_mean_pool", out, (x,), backward)


def dropout(x, keep_prob: float, rng: np.random.Generator, train: bool = True) -> GradNode:
    """Inverted dropout; identity when train=False."""
    x = _wrap(x)
    if not 0.0 < keep_prob <= 1.0:
        raise ContractError(f"keep_prob must be in (0, 1], got {keep_prob}")
    if not train or keep_prob == 1.0:
        return x
    mask = (rng.random(x.value.shape) < keep_prob) / keep_prob

    def backward(g):
        return (g * mask,)

    return _node("dropout", x.value * mask, (x,), backward)


def ssum(x) -> GradNode:
    """Scalar sum of all elements."""
    x = _wrap(x)
    shape = x.value.shape

    def backward(g):
        return (np.broadcast_to(g, shape).copy(),)

    return _node("ssum", np.asarray(x.value.sum()), (x,), backward)


def softmax_cross_entropy(logits, labels) -> GradNode:
    """Mean cross-entropy of (batch, classes) logits against integer labels."""
    logits = _wrap(logits)
    labels = np.asarray(labels)
    lv = logits.value
    if lv.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy expects (batch, classes), got {lv.shape}")
    if labels.shape != (lv.shape[0],):
        raise ShapeError(f"labels shape {labels.shape} vs batch {lv.shape[0]}")
    if labels.min() < 0 or labels.max() >= lv.shape[1]:
        raise ContractError("label out of range")
    m = lv.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(lv - m).sum(axis=1))
    loss = (lse - lv[np.arange(lv.shape[0]), labels]).mean()
    probs = np.exp(lv - lse[:, None])

    def backward(g):
        gl = probs.copy()
        gl[np.arange(lv.shape[0]), labels] -= 1.0
        return (gl * (g / lv.shape[0]),)

    return _node("softmax_cross_entropy", np.asarray(loss), (logits,), backward)


def encoder_layer_ops(x, weights: dict, heads: int, key_mask, scaling: float = 1.0,
                      keep_prob: float = 1.0, rng=None, train: bool = False) -> GradNode:
    """One pre-LN transformer encoder layer with LoRA on q and v, as a chain of the ops
    above:

        a = layernorm(x; ln1)
        q = a wq + bq + scaling (drop(a) A_q^T) B_q^T
        k = a wk + bk
        v = a wv + bv + scaling (drop(a) A_v^T) B_v^T
        h = x + attention(q, k, v; `heads` heads, keys where key_mask is False excluded) wo + bo
        out = h + gelu(layernorm(h; ln2) w1 + b1) w2 + b2

    x: (batch, seq, d); key_mask: (batch, seq) boolean.  `weights` maps every
    `kernels.ENCODER_LAYER_KEYS` name, and an adapter's A (rank, d) and B (d, rank), to
    arrays or nodes.  In training with keep_prob < 1 each adapter's input is dropped out,
    q's mask drawn from `rng` before v's.  The reference of `kernels.encoder_layer_forward`,
    equal bitwise, and of `encoder_layer_backward`, equal to rounding."""
    w = weights
    n, s, d = _wrap(x).value.shape

    def split_heads(t):
        return transpose(reshape(t, (n, s, heads, d // heads)), (0, 2, 1, 3))

    def projection(a, p):
        out = add(matmul(a, w[f"attn.w{p}"]), w[f"attn.b{p}"])
        if f"attn.{p}_lora.A" in w:
            path = dropout(a, keep_prob, rng, train=train) if keep_prob < 1.0 else a
            delta = matmul(matmul(path, transpose(w[f"attn.{p}_lora.A"], (1, 0))),
                           transpose(w[f"attn.{p}_lora.B"], (1, 0)))
            out = add(out, scale(delta, scaling))
        return out

    a = layernorm(x, w["ln1.gain"], w["ln1.bias"])
    q = projection(a, "q")
    k = projection(a, "k")
    v = projection(a, "v")
    attn = scaled_dot_attention(split_heads(q), split_heads(k), split_heads(v),
                                key_mask=np.asarray(key_mask)[:, None, :])
    merged = reshape(transpose(attn, (0, 2, 1, 3)), (n, s, d))
    h = add(x, add(matmul(merged, w["attn.wo"]), w["attn.bo"]))
    fin = layernorm(h, w["ln2.gain"], w["ln2.bias"])
    ffn = matmul(gelu(add(matmul(fin, w["ffn.w1"]), w["ffn.b1"])), w["ffn.w2"])
    return add(h, add(ffn, w["ffn.b2"]))


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def backward(loss: GradNode) -> dict:
    """Gradients of a scalar loss w.r.t. every named trainable leaf.

    Returns {leaf name: array}; frozen leaves are absent.
    """
    if loss.value.ndim != 0 and loss.value.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.value.shape}")

    order = []
    seen = set()
    stack = [(loss, False)] if loss.requires_grad else []
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node.parents if p.requires_grad)

    grads = {id(loss): np.ones_like(loss.value)}
    out = {}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:  # a leaf: every gradient into it has arrived
            if node.op == "leaf" and node.name is not None:
                out[node.name] = g
            continue
        parent_grads = node._backward(g)
        for p, pg in zip(node.parents, parent_grads):
            if not p.requires_grad or pg is None:
                continue
            if pg.shape != p.value.shape:
                raise ShapeError(f"gradient shape {pg.shape} != value shape {p.value.shape} "
                                 f"(op {node.op})")
            grads[id(p)] = grads[id(p)] + pg if id(p) in grads else pg
    return out
