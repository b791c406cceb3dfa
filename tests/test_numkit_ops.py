import math
import threading

import numpy as np
import pytest

from fedskew import numkit as nk

from gradcheck import finite_diff_check
import vectors


def test_softmax_cross_entropy_uniform_logits():
    loss = nk.softmax_cross_entropy(nk.const([[0.0, 0.0]]), np.array([0]))
    assert float(loss.value) == pytest.approx(math.log(2), abs=1e-12)


def test_max_over_time_per_channel():
    x = nk.const([[[1.0, 5.0], [3.0, 2.0]]])  # (1, 2 timesteps, 2 channels)
    assert nk.max_over_time(x).value.tolist() == [[3.0, 5.0]]


def test_conv1d_valid_output_length():
    x = nk.const(np.zeros((1, 4, 3)))
    k = nk.const(np.zeros((3, 3, 2)))
    assert nk.conv1d_valid(x, k).shape == (1, 2, 2)


def test_attention_single_position_returns_value():
    rng = np.random.default_rng(0)
    q = rng.standard_normal((1, 1, 4))
    k = rng.standard_normal((1, 1, 4))
    v = rng.standard_normal((1, 1, 4))
    out = nk.scaled_dot_attention(nk.const(q), nk.const(k), nk.const(v))
    np.testing.assert_allclose(out.value, v, atol=1e-12)


def test_backward_quadratic():
    x = nk.leaf([1.0, 2.0, 3.0], name="x")
    loss = nk.ssum(nk.mul(x, x))
    grads = nk.backward(loss)
    np.testing.assert_allclose(grads["x"], [2.0, 4.0, 6.0])


def test_backward_frozen_leaf_absent():
    frozen = nk.leaf([[1.0, 2.0]], name="table", trainable=False)
    w = nk.leaf([[1.0], [1.0]], name="w")
    loss = nk.ssum(nk.matmul(frozen, w))
    grads = nk.backward(loss)
    assert "table" not in grads
    assert "w" in grads


def test_backward_rejects_nonscalar_loss():
    x = nk.leaf([1.0, 2.0], name="x")
    with pytest.raises(nk.ContractError):
        nk.backward(nk.mul(x, x))


def test_shape_mismatch_raises():
    with pytest.raises(nk.ShapeError):
        nk.add(nk.const(np.zeros((2, 3))), nk.const(np.zeros((3, 2))))
    with pytest.raises(nk.ShapeError):
        nk.matmul(nk.const(np.zeros((2, 3))), nk.const(np.zeros((2, 3))))


def test_nonfinite_output_raises():
    big = nk.const(np.full((2, 2), 1e308))
    with pytest.raises(nk.NumericError), np.errstate(over="ignore"):
        nk.mul(big, big)


def encoder_weights(rng, d=4, ffn=5, rank=2, adapters=True):
    """Random weights of one `lora_encoder_layer`, with q and v adapters if `adapters`."""
    shapes = {"attn.wq": (d, d), "attn.wk": (d, d), "attn.wv": (d, d), "attn.wo": (d, d),
              "ffn.w1": (d, ffn), "ffn.b1": (ffn,), "ffn.w2": (ffn, d),
              "attn.q_lora.A": (rank, d), "attn.q_lora.B": (d, rank),
              "attn.v_lora.A": (rank, d), "attn.v_lora.B": (d, rank)}
    keys = nk.kernels.ENCODER_LAYER_KEYS + (nk.kernels.ENCODER_ADAPTER_KEYS if adapters else ())
    return {k: rng.normal(0, 0.5, shapes.get(k, (d,))) for k in keys}


FD_KEYS = [k for k in nk.kernels.ENCODER_LAYER_KEYS + nk.kernels.ENCODER_ADAPTER_KEYS
           if k != "attn.bk"]


def encoder_fd_loss(x, *weights):
    """Squared output of a layer over a padded batch.  attn.bk stays a constant: its
    gradient is zero but for rounding, below what a finite difference resolves."""
    layer = nk.lora_encoder_layer(x, {**dict(zip(FD_KEYS, weights)), "attn.bk": np.full(4, 0.3)},
                                  2, np.array([[True, True, False], [True, True, True]]), 1.5)
    return nk.ssum(nk.mul(layer, layer))


FD_IDS = np.array([[1, 2, 3, 4, 2, 0], [4, 3, 1, 0, 0, 0]])  # the second document is padded

OP_CASES = [
    ("matmul", lambda r: [r.standard_normal((3, 4)), r.standard_normal((4, 2))],
     lambda a, b: nk.ssum(nk.matmul(a, b))),
    ("matmul_batched", lambda r: [r.standard_normal((2, 3, 4)), r.standard_normal((4, 5))],
     lambda a, b: nk.ssum(nk.matmul(a, b))),
    ("add_bias", lambda r: [r.standard_normal((3, 4)), r.standard_normal(4)],
     lambda a, b: nk.ssum(nk.mul(nk.add(a, b), nk.add(a, b)))),
    ("scale", lambda r: [r.standard_normal((3, 3))],
     lambda a: nk.ssum(nk.mul(nk.scale(a, 2.5), a))),
    ("relu", lambda r: [r.standard_normal((4, 4))],
     lambda a: nk.ssum(nk.mul(nk.relu(a), a))),
    ("gelu", lambda r: [r.standard_normal((4, 4))],
     lambda a: nk.ssum(nk.mul(nk.gelu(a), a))),
    ("conv1d", lambda r: [r.standard_normal((2, 6, 3)), r.standard_normal((3, 3, 4))],
     lambda x, k: nk.ssum(nk.mul(nk.conv1d_valid(x, k), nk.conv1d_valid(x, k)))),
    ("max_over_time", lambda r: [r.standard_normal((2, 5, 3))],
     lambda x: nk.ssum(nk.mul(nk.max_over_time(x), nk.max_over_time(x)))),
    ("layernorm", lambda r: [r.standard_normal((3, 6)), r.standard_normal(6), r.standard_normal(6)],
     lambda x, g, b: nk.ssum(nk.mul(nk.layernorm(x, g, b), nk.layernorm(x, g, b)))),
    ("softmax", lambda r: [r.standard_normal((3, 5))],
     lambda x: nk.ssum(nk.mul(nk.softmax(x), nk.softmax(x)))),
    ("attention", lambda r: [r.standard_normal((2, 4, 3)), r.standard_normal((2, 4, 3)),
                             r.standard_normal((2, 4, 3))],
     lambda q, k, v: nk.ssum(nk.mul(nk.scaled_dot_attention(q, k, v),
                                    nk.scaled_dot_attention(q, k, v)))),
    ("masked_mean_pool", lambda r: [r.standard_normal((2, 4, 3))],
     lambda x: nk.ssum(nk.mul(nk.masked_mean_pool(x, np.array([[1, 1, 0, 0], [1, 1, 1, 1]])),
                              nk.masked_mean_pool(x, np.array([[1, 1, 0, 0], [1, 1, 1, 1]]))))),
    ("concat", lambda r: [r.standard_normal((2, 3)), r.standard_normal((2, 4))],
     lambda a, b: nk.ssum(nk.mul(nk.concat_last([a, b]), nk.concat_last([a, b])))),
    ("textcnn_logits", lambda r: [r.standard_normal((5, 3)), r.standard_normal((2, 3, 2)),
                                  r.standard_normal((4, 3, 3)), r.standard_normal(2),
                                  r.standard_normal(3), r.standard_normal((5, 2)),
                                  r.standard_normal(2)],
     lambda t, k2, k4, b2, b4, w, b: nk.ssum(nk.mul(*[nk.textcnn_logits(
         t, FD_IDS, 0, [k2, k4], [b2, b4], w, b)] * 2))),
    ("lora_encoder_layer",
     lambda r: [r.standard_normal((2, 3, 4))] + [encoder_weights(r)[k] for k in FD_KEYS],
     encoder_fd_loss),
    ("reshape_transpose", lambda r: [r.standard_normal((2, 3, 4))],
     lambda x: nk.ssum(nk.mul(nk.transpose(nk.reshape(x, (2, 4, 3)), (1, 0, 2)),
                              nk.transpose(nk.reshape(x, (2, 4, 3)), (1, 0, 2))))),
]


@pytest.mark.parametrize("name,make,fn", OP_CASES, ids=[c[0] for c in OP_CASES])
@pytest.mark.parametrize("seed", range(5))
def test_op_gradients_match_finite_differences(name, make, fn, seed):
    rng = np.random.default_rng(1000 + seed)
    finite_diff_check(fn, make(rng))


@pytest.mark.parametrize("seed", range(5))
def test_cross_entropy_gradient(seed):
    rng = np.random.default_rng(2000 + seed)
    logits = rng.standard_normal((4, 3))
    labels = rng.integers(0, 3, size=4)
    finite_diff_check(lambda l: nk.softmax_cross_entropy(l, labels), [logits])


@pytest.mark.parametrize("seed", range(3))
def test_embedding_gradient(seed):
    rng = np.random.default_rng(3000 + seed)
    table = rng.standard_normal((5, 3))
    ids = rng.integers(0, 5, size=(2, 4))
    finite_diff_check(lambda t: nk.ssum(nk.mul(nk.embedding_lookup(t, ids),
                                               nk.embedding_lookup(t, ids))), [table])


def test_gelu_matches_power_formula():
    x = np.concatenate([np.linspace(-40.0, 40.0, 8001),
                        nk.derive(0, "gelu-x").uniform(-40.0, 40.0, 4000)])
    c = math.sqrt(2.0 / math.pi)
    t = np.tanh(c * (x + 0.044715 * np.power(x, 3)))
    want_out = 0.5 * x * (1.0 + t)
    want_dx = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - np.power(t, 2)) * (
        c * (1.0 + 3 * 0.044715 * np.power(x, 2)))
    leaf = nk.leaf(x.copy(), name="x")
    out = nk.gelu(leaf)
    np.testing.assert_allclose(out.value, want_out, rtol=1e-14, atol=0)
    grad = nk.backward(nk.ssum(out))["x"]
    np.testing.assert_allclose(grad, want_dx, rtol=1e-14, atol=0)


def test_dropout_expectation_and_modes():
    rng = nk.derive(9, "dropout-test")
    x = nk.const(np.ones((100, 1000)))
    out = nk.dropout(x, 0.7, rng, train=True)
    assert abs(out.value.mean() - 1.0) < 0.01
    rng2 = nk.derive(9, "dropout-test")
    assert nk.dropout(x, 0.7, rng2, train=False) is x


def test_dropout_gradient():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 4))
    gen = nk.derive(5, "dropout-grad")
    mask_stream = [nk.derive(5, "dropout-grad")]  # fresh stream per replay

    def fn(a):
        g = mask_stream[0]
        mask_stream[0] = nk.derive(5, "dropout-grad")
        return nk.ssum(nk.mul(nk.dropout(a, 0.5, g), a))

    finite_diff_check(fn, [x])


def test_layernorm_statistics():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((8, 16)) * 3 + 2
    out = nk.layernorm(nk.const(x), nk.const(np.ones(16)), nk.const(np.zeros(16)), eps=1e-12)
    assert np.abs(out.value.mean(axis=-1)).max() < 1e-10
    assert np.abs(out.value.var(axis=-1) - 1.0).max() < 1e-8


def test_forward_determinism():
    def run():
        rng = nk.derive(3, "det")
        x = nk.leaf(nk.derive(3, "det-x").standard_normal((4, 6)), name="x")
        h = nk.dropout(nk.relu(nk.matmul(x, nk.const(np.eye(6)))), 0.8, rng)
        loss = nk.ssum(nk.mul(h, h))
        return float(loss.value), nk.backward(loss)["x"]

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert np.array_equal(g1, g2)


def test_vector_file_roundtrip(tmp_path):
    cases = [
        ("relu", [(3, 3)], 0),
        ("matmul", [(2, 3), (3, 2)], 1),
        ("gelu", [(4, 4)], 2),
        ("layernorm", [(3, 5)], 3),
        ("softmax_cross_entropy", [(4, 3)], 4),
        ("scaled_dot_attention", [(2, 3, 4), (2, 3, 4), (2, 3, 4)], 5),
    ]
    path = tmp_path / "vectors.txt"
    vectors.write_vectors(path, cases)
    assert vectors.check_vectors(path) == []
    # corrupt one checksum
    lines = path.read_text().splitlines()
    op, shapes, seed, _ = vectors.parse_case(lines[0])
    lines[0] = f"{op};3x3;{seed};1.23456789012"
    path.write_text("\n".join(lines) + "\n")
    assert len(vectors.check_vectors(path)) == 1


def textcnn_case(rng, widths, batch=5, seq=7, vocab=9, channels=3, classes=3,
                 filters=(2, 3, 4), pad=True):
    """Operands of `textcnn_logits`.  With `pad`, the batch holds PAD rows at the end of
    every document but the first and a document that is all PAD.  Filter 0 of the first
    width is dead (relu 0 everywhere) and filter 1 ties at its bias at every position, so
    its max goes to the first window, which the other windows do not equal."""
    ids = rng.integers(1, vocab, size=(batch, seq))
    if pad:
        ids[1:, seq - 2:] = 0
        ids[-1] = 0
    kernels = [rng.standard_normal((w, channels, filters[i % 3])) for i, w in enumerate(widths)]
    biases = [rng.uniform(0.1, 1.0, k.shape[2]) for k in kernels]
    kernels[0][:, :, :2] = 0.0
    biases[0][0] = -1.0
    head = rng.standard_normal((sum(k.shape[2] for k in kernels), classes))
    return ids, [rng.standard_normal((vocab, channels)), *kernels, *biases, head,
                 rng.standard_normal(classes)]


def run_textcnn(op, ids, values, frozen=(), keep_prob=1.0, train=False):
    """op's logits and gradients (by operand index) of a weighted sum of them."""
    k = (len(values) - 3) // 2
    leaves = [nk.leaf(v, name=f"p{i}", trainable=i not in frozen) for i, v in enumerate(values)]
    out = op(leaves[0], ids, 0, leaves[1:1 + k], leaves[1 + k:1 + 2 * k], leaves[-2],
             leaves[-1], keep_prob, nk.derive(7, "textcnn-dropout"), train)
    weights = np.random.default_rng(len(ids)).standard_normal(out.shape)
    grads = nk.backward(nk.ssum(nk.mul(out, weights)))
    return out.value, [grads.get(f"p{i}") for i in range(len(values))]


@pytest.mark.parametrize("widths,seq", [((2, 3, 4), 7), ((2, 5), 7), ((3,), 7), ((2, 7), 7),
                                        ((4,), 4)])
@pytest.mark.parametrize("keep_prob,train", [(1.0, True), (0.5, True), (0.5, False)])
@pytest.mark.parametrize("pad", [True, False])
@pytest.mark.parametrize("seed", range(2))
def test_textcnn_logits_matches_op_chain(widths, seq, keep_prob, train, pad, seed):
    ids, values = textcnn_case(np.random.default_rng(5000 + seed), widths, seq=seq, pad=pad)
    got, got_grads = run_textcnn(nk.textcnn_logits, ids, values, (), keep_prob, train)
    want, want_grads = run_textcnn(nk.textcnn_logits_ops, ids, values, (), keep_prob, train)
    for a, b in zip([got, *got_grads], [want, *want_grads]):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
    if keep_prob == 1.0 or not train:
        assert np.abs(got_grads[1][:, :, 1]).max() > 0  # the tied filter trains
    assert np.all(got_grads[1][:, :, 0] == 0.0) and got_grads[1 + len(widths)][0] == 0.0
    assert np.all(got_grads[0][0] == 0.0)  # PAD's row: every PAD position is masked


@pytest.mark.parametrize("frozen", [(0,), (1, 2), (0, 1, 2, 3, 4), (5, 6), (0, 5, 6)])
def test_textcnn_logits_frozen_operands(frozen):
    """Frozen operands get no gradient; the others get the op chain's."""
    ids, values = textcnn_case(np.random.default_rng(5100), (2, 3))
    got, got_grads = run_textcnn(nk.textcnn_logits, ids, values, frozen, 0.5, True)
    want, want_grads = run_textcnn(nk.textcnn_logits_ops, ids, values, frozen, 0.5, True)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    for i, (a, b) in enumerate(zip(got_grads, want_grads)):
        assert (a is None) == (b is None) == (i in frozen)
        if b is not None:
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_textcnn_logits_independent_of_call_history(monkeypatch):
    """Its scratch arrays grow and are reused; batches of 64, 32, 11 and 64 documents in
    turn give bitwise what each gives on a fresh workspace."""
    rng = np.random.default_rng(5200)
    cases = [textcnn_case(rng, (2, 3, 4), batch=b, seq=9) for b in (64, 32, 11, 64)]
    history = [run_textcnn(nk.textcnn_logits, ids, v, (), 0.5, True) for ids, v in cases]
    for (ids, values), (out, grads) in zip(cases, history):
        monkeypatch.setattr(nk.kernels, "_scratch", threading.local())
        fresh, fresh_grads = run_textcnn(nk.textcnn_logits, ids, values, (), 0.5, True)
        assert out.tobytes() == fresh.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(grads, fresh_grads))


def test_textcnn_pool_indices_are_read_only():
    """Every call of one shape shares these arrays, so a write must fail at once."""
    for a in nk.kernels.pool_indices(3, 5, (2, 3), (0, 4, 6)):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_textcnn_logits_rejects_bad_shapes():
    ids = np.ones((2, 4), dtype=int)
    table, k, b = np.zeros((5, 3)), np.zeros((2, 3, 2)), np.zeros(2)
    w, c = np.zeros((2, 4)), np.zeros(4)
    assert nk.textcnn_logits(table, ids, 0, [k], [b], w, c).shape == (2, 4)
    for args in ((table, ids, 0, [np.zeros((5, 3, 2))], [b], w, c),  # wider than seq
                 (table, ids, 0, [np.zeros((2, 4, 2))], [b], w, c),  # channel mismatch
                 (table, ids, 0, [k], [np.zeros(3)], w, c),  # bias size
                 (table, ids, 0, [], [], w, c),
                 (table, ids, 0, [k], [b], np.zeros((3, 4)), c),  # head rows
                 (table, ids, 0, [k], [b], w, np.zeros(3)),  # head bias
                 (table, ids[0], 0, [k], [b], w, c),  # ids not (batch, seq)
                 (table, ids + 4, 0, [k], [b], w, c)):  # id out of range
        with pytest.raises(nk.ShapeError):
            nk.textcnn_logits(*args)
    with pytest.raises(nk.ContractError):
        nk.textcnn_logits(table, ids * 1.0, 0, [k], [b], w, c)
    with pytest.raises(nk.ContractError):
        nk.textcnn_logits(table, ids, 0, [k], [b], w, c, keep_prob=0.0)


def test_textcnn_logits_nonfinite_raises():
    ids = np.ones((2, 4), dtype=int)
    with pytest.raises(nk.NumericError, match="textcnn_logits"), \
            np.errstate(over="ignore", invalid="ignore"):
        nk.textcnn_logits(np.full((5, 3), 1e300), ids, 0, [np.full((2, 3, 2), 1e300)],
                          [np.zeros(2)], np.ones((2, 4)), np.zeros(4))


def test_embedding_backward_matches_add_at_bitwise():
    rng = np.random.default_rng(7)
    for case in range(20):
        vocab, dim = rng.integers(2, 9), rng.integers(1, 5)
        table = rng.standard_normal((vocab, dim))
        ids = rng.integers(0, min(vocab, 3), size=(3, 5))  # few ids: many repeats
        g = rng.standard_normal((3, 5, dim)) * 10.0 ** rng.integers(-8, 8, size=(3, 5, 1))
        g[0, 0] = -0.0
        node = nk.embedding_lookup(nk.leaf(table, name="t"), ids)
        (got,) = node._backward(g)
        want = np.zeros_like(table)
        np.add.at(want, ids.reshape(-1), g.reshape(-1, dim))
        assert got.tobytes() == want.tobytes()


def test_const_operand_gradient_is_not_computed():
    rng = np.random.default_rng(8)
    x = nk.leaf(rng.standard_normal((3, 4)), name="x")
    c = nk.const(rng.standard_normal((3, 4)))
    g = np.ones((3, 4))
    assert nk.mul(x, c)._backward(g)[1] is None
    assert nk.mul(c, x)._backward(g)[0] is None
    w = nk.const(rng.standard_normal((4, 2)))
    ga, gb = nk.matmul(x, w)._backward(np.ones((3, 2)))
    assert ga.shape == (3, 4) and gb is None
    gx, ggain, gbias = nk.layernorm(x, nk.const(np.ones(4)), nk.const(np.zeros(4)))._backward(g)
    assert gx.shape == (3, 4) and ggain is None and gbias is None
    gx, ggain, gbias = nk.layernorm(c, nk.leaf(np.ones(4)), nk.leaf(np.zeros(4)))._backward(g)
    assert gx is None and ggain.shape == gbias.shape == (4,)


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("lora_dropout", [0.0, 0.1])
@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("mode", ["pretraining", "federated"])
def test_lora_encoder_layer_matches_unfused_ops(layers, lora_dropout, train, mode):
    """Pretraining trains the whole backbone without adapters, so every operand needs a
    gradient; a federated step trains only the adapters (and a head above the layers)."""
    rng = np.random.default_rng(6000 + layers)
    x = rng.standard_normal((4, 6, 8))
    key_mask = np.arange(6) < np.array([[6], [4], [1], [0]])  # PAD rows; the last is all PAD
    stack = [encoder_weights(rng, d=8, ffn=12, rank=3, adapters=mode == "federated")
             for _ in range(layers)]
    weights = rng.standard_normal(x.shape)

    def run(layer):
        h = nk.leaf(x, name="x", trainable=mode == "pretraining")
        dropout_rng = nk.derive(6, "encoder-dropout")
        for i, values in enumerate(stack):
            leaves = {k: nk.leaf(v, name=f"{i}.{k}",
                                 trainable=mode == "pretraining" or "lora" in k)
                      for k, v in values.items()}
            h = layer(h, leaves, 2, key_mask, 8 / 3, 1.0 - lora_dropout, rng=dropout_rng,
                      train=train)
        return h.value, nk.backward(nk.ssum(nk.mul(h, weights)))

    got, got_grads = run(nk.lora_encoder_layer)
    want, want_grads = run(nk.encoder_layer_ops)
    assert got.tobytes() == want.tobytes()
    assert sorted(got_grads) == sorted(want_grads) and want_grads
    for name, g in want_grads.items():
        err = np.abs(got_grads[name] - g).max()
        if name.endswith("attn.bk"):  # zero but for rounding, on both sides
            assert err <= 1e-12, name
        else:
            assert err <= 1e-12 * np.abs(g).max(), name


def test_lora_encoder_layer_rejects_bad_shapes():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((2, 3, 4))
    weights = encoder_weights(rng)
    mask = np.ones((2, 3), dtype=bool)
    assert nk.lora_encoder_layer(x, weights, 2, mask).shape == x.shape
    with pytest.raises(nk.ShapeError):
        nk.lora_encoder_layer(x, {**weights, "attn.wq": np.zeros((4, 3))}, 2, mask)
    with pytest.raises(nk.ShapeError):
        nk.lora_encoder_layer(x, {**weights, "attn.q_lora.B": np.zeros((4, 3))}, 2, mask)
    with pytest.raises(nk.ShapeError):
        nk.lora_encoder_layer(x, weights, 3, mask)  # 3 heads do not divide d = 4
    with pytest.raises(nk.ShapeError):
        nk.lora_encoder_layer(x, weights, 2, np.ones((2, 4), dtype=bool))
    with pytest.raises(nk.ShapeError):
        nk.lora_encoder_layer(x[0], weights, 2, mask[0])
    with pytest.raises(nk.ContractError):
        nk.lora_encoder_layer(x, {k: v for k, v in weights.items() if k != "ffn.b2"}, 2, mask)
    with pytest.raises(nk.ContractError):  # an adapter without its B
        nk.lora_encoder_layer(x, {k: v for k, v in weights.items() if k != "attn.v_lora.B"},
                              2, mask)
