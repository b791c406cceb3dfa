"""Reverse-mode autodiff over dense float64 arrays.

The graph is a DAG of GradNode objects built eagerly by the op functions
below.  `backward(loss)` runs reverse topological accumulation and returns
gradients keyed by leaf name; frozen leaves get no entry.

Broadcasting is deliberately limited to bias-add (matrix + trailing row
vector) and 2-D weights against batched activations in matmul; everything
else must match shapes exactly.
"""

import math

import numpy as np

from .tensor import NumericError, ShapeError, Tensor, as_array


class ContractError(ValueError):
    """A caller violated an op precondition."""


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

    def __repr__(self):
        return f"GradNode(op={self.op!r}, shape={self.value.shape})"


def leaf(value, name=None, trainable=True) -> GradNode:
    return GradNode("leaf", as_array(value), requires_grad=trainable, name=name)


def const(value) -> GradNode:
    return GradNode("const", as_array(value), requires_grad=False)


def _wrap(x) -> GradNode:
    return x if isinstance(x, GradNode) else const(x)


def _node(op, value, parents, backward):
    if not np.isfinite(value).all():
        raise NumericError(f"non-finite output from op {op!r}")
    return GradNode(op, value, parents, backward)


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


_GELU_C = math.sqrt(2.0 / math.pi)  # tanh approximation constant


def gelu(a) -> GradNode:
    """gelu(x) = 0.5 x (1 + tanh(c (x + 0.044715 x^3))), c = sqrt(2/pi)."""
    a = _wrap(a)
    x = a.value
    inner = _GELU_C * (x + 0.044715 * (x * x * x))
    t = np.tanh(inner)
    out = 0.5 * x * (1.0 + t)

    def backward(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * (x * x))
        dx = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
        return (g * dx,)

    return _node("gelu", out, (a,), backward)


def embedding_lookup(table, ids) -> GradNode:
    """Gather rows of `table` (V, D) at integer `ids` (any shape)."""
    table = _wrap(table)
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ContractError("embedding ids must be integers")
    if ids.min(initial=0) < 0 or ids.max(initial=0) >= table.value.shape[0]:
        raise ShapeError("embedding id out of range")
    out = table.value[ids]

    def backward(g):
        # row sums in id order, as np.add.at(zeros, ids, g rows) adds them
        vocab, d = table.value.shape
        slots = (ids.reshape(-1, 1) * d + np.arange(d)).reshape(-1)
        return (np.bincount(slots, weights=g.reshape(-1), minlength=vocab * d).reshape(vocab, d),)

    return _node("embedding_lookup", out, (table,), backward)


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


def ngram_max_pool(x, kernels, biases) -> GradNode:
    """TextCNN's filter banks as one node: for each width, in order,
    max_over_time(relu(conv1d_valid(x, kernel) + bias)), concatenated on the last axis.

    x: (batch, seq, channels); kernels[i]: (width_i, channels, filters_i);
    biases[i]: (filters_i,) -> (batch, sum of filters_i).

    Forward is one gemm of the window matrix, row (document, position) holding
    the next `span` = max width positions zero-padded past the end, against the
    kernels stacked into one (span*channels, sum filters) matrix with zero rows
    below each width.  Positions past a width's valid range are set below every
    relu output, so they never win the max; ties go to the first position, as
    in `max_over_time`.  Backward scatters g to the winning positions under the
    relu mask, copies it once per shift into a (document, position) x (shift,
    filter) matrix, and takes all kernel gradients and the input gradient from
    one gemm each.
    """
    x = _wrap(x)
    kernels, biases = [_wrap(k) for k in kernels], [_wrap(b) for b in biases]
    xv = x.value
    if xv.ndim != 3 or not kernels or len(kernels) != len(biases):
        raise ShapeError(f"ngram_max_pool: x {xv.shape}, {len(kernels)} kernels, "
                         f"{len(biases)} biases")
    n, seq, ch = xv.shape
    for k, b in zip(kernels, biases):
        kv = k.value
        if kv.ndim != 3 or kv.shape[1] != ch or b.value.shape != kv.shape[2:]:
            raise ShapeError(f"ngram_max_pool: x {xv.shape}, kernel {kv.shape}, "
                             f"bias {b.value.shape}")
        if kv.shape[0] > seq:
            raise ShapeError(f"ngram_max_pool: width {kv.shape[0]} > seq {seq}")
    widths = [k.value.shape[0] for k in kernels]
    sizes = [k.value.shape[2] for k in kernels]
    cols = np.cumsum([0] + sizes)
    span, total = max(widths), int(cols[-1])

    windows = np.zeros((n, seq, span * ch))
    for s in range(span):
        windows[:, : seq - s, s * ch : (s + 1) * ch] = xv[:, s:]
    windows = windows.reshape(n * seq, span * ch)
    stacked = np.zeros((span * ch, total))
    for w, k, lo, hi in zip(widths, kernels, cols, cols[1:]):
        stacked[: w * ch, lo:hi] = k.value.reshape(w * ch, hi - lo)
    pre = (windows @ stacked).reshape(n, seq, total) + np.concatenate([b.value for b in biases])
    act = pre * (pre > 0)
    past = np.arange(seq)[:, None] > seq - np.repeat(widths, sizes)  # (position, filter)
    act[:, past] = -1.0  # below every relu output
    # flat index of each (document, filter)'s first max in act
    flat = ((np.arange(n)[:, None] * seq + act.argmax(axis=1)) * total + np.arange(total))
    out = act.reshape(-1)[flat]
    alive = out > 0  # the relu mask at the winning position

    def backward(g):
        gpre = g * alive
        grads = [None] * (1 + 2 * len(kernels))
        if x.requires_grad or any(k.requires_grad for k in kernels):
            scattered = np.zeros((n, seq, total))
            scattered.reshape(-1)[flat] = gpre
            # the gradient of window (document, p - s) at row (document, p), shift s
            shifted = np.zeros((n, seq, span, total))
            for s in range(span):
                shifted[:, s:, s] = scattered[:, : seq - s]
            shifted = shifted.reshape(n * seq, span * total)
        if any(k.requires_grad for k in kernels):
            gstacked = (xv.reshape(n * seq, ch).T @ shifted).reshape(ch, span, total)
            for i, (w, k, lo, hi) in enumerate(zip(widths, kernels, cols, cols[1:])):
                if k.requires_grad:
                    grads[1 + i] = gstacked[:, :w, lo:hi].transpose(1, 0, 2)
        if x.requires_grad:
            by_shift = stacked.reshape(span, ch, total).transpose(0, 2, 1).reshape(span * total, ch)
            grads[0] = (shifted @ by_shift).reshape(n, seq, ch)
        for i, (b, lo, hi) in enumerate(zip(biases, cols, cols[1:])):
            if b.requires_grad:
                grads[1 + len(kernels) + i] = gpre[:, lo:hi].sum(axis=0)
        return grads

    return _node("ngram_max_pool", out, (x, *kernels, *biases), backward)


def layernorm(x, gain, bias, eps: float = 1e-5) -> GradNode:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = _wrap(x), _wrap(gain), _wrap(bias)
    xv = x.value
    d = xv.shape[-1]
    if gain.value.shape != (d,) or bias.value.shape != (d,):
        raise ShapeError("layernorm gain/bias must match the last axis")
    mu = xv.mean(axis=-1, keepdims=True)
    var = xv.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xv - mu) * inv
    out = xhat * gain.value + bias.value

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        ggain = (g * xhat).sum(axis=lead) if gain.requires_grad else None
        gbias = g.sum(axis=lead) if bias.requires_grad else None
        gx = None
        if x.requires_grad:
            gh = g * gain.value
            gx = inv * (
                gh
                - gh.mean(axis=-1, keepdims=True)
                - xhat * (gh * xhat).mean(axis=-1, keepdims=True)
            )
        return gx, ggain, gbias

    return _node("layernorm", out, (x, gain, bias), backward)


def softmax(x, additive_mask=None) -> GradNode:
    """Softmax over the last axis; `additive_mask` (same shape, -inf allowed) is added first."""
    x = _wrap(x)
    logits = x.value
    if additive_mask is not None:
        logits = logits + additive_mask
    m = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - m)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)

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


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def backward(loss: GradNode) -> dict:
    """Gradients of a scalar loss w.r.t. every named trainable leaf.

    Returns {leaf name: Tensor}; frozen leaves are absent.
    """
    if loss.value.ndim != 0 and loss.value.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.value.shape}")

    order = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))

    grads = {id(loss): np.ones_like(loss.value)}
    out = {}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:  # a leaf: every gradient into it has arrived
            if node.op == "leaf" and node.name is not None:
                out[node.name] = Tensor(g)
            continue
        parent_grads = node._backward(g)
        for p, pg in zip(node.parents, parent_grads):
            if not p.requires_grad or pg is None:
                continue
            if pg.shape != p.value.shape:
                raise ShapeError(
                    f"gradient shape {pg.shape} != value shape {p.value.shape} (op {node.op})"
                )
            if id(p) in grads:
                grads[id(p)] = grads[id(p)] + pg
            else:
                grads[id(p)] = pg
    return out
