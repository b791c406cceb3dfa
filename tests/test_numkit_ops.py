import math

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


def encoder_weights(rng):
    """Random weights of one `encoder_layer_ops`, with q and v adapters."""
    d, ffn, rank = 4, 5, 2
    shapes = {"attn.wq": (d, d), "attn.wk": (d, d), "attn.wv": (d, d), "attn.wo": (d, d),
              "ffn.w1": (d, ffn), "ffn.b1": (ffn,), "ffn.w2": (ffn, d),
              "attn.q_lora.A": (rank, d), "attn.q_lora.B": (d, rank),
              "attn.v_lora.A": (rank, d), "attn.v_lora.B": (d, rank)}
    keys = nk.kernels.ENCODER_LAYER_KEYS + nk.kernels.ENCODER_ADAPTER_KEYS
    return {k: rng.normal(0, 0.5, shapes.get(k, (d,))) for k in keys}


FD_KEYS = [k for k in nk.kernels.ENCODER_LAYER_KEYS + nk.kernels.ENCODER_ADAPTER_KEYS
           if k != "attn.bk"]


def encoder_fd_loss(x, *weights):
    """Squared output of a layer over a padded batch.  attn.bk stays a constant: its
    gradient is zero but for rounding, below what a finite difference resolves."""
    layer = nk.encoder_layer_ops(x, {**dict(zip(FD_KEYS, weights)), "attn.bk": np.full(4, 0.3)},
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
    ("textcnn_logits_ops", lambda r: [r.standard_normal((5, 3)), r.standard_normal((2, 3, 2)),
                                      r.standard_normal((4, 3, 3)), r.standard_normal(2),
                                      r.standard_normal(3), r.standard_normal((5, 2)),
                                      r.standard_normal(2)],
     lambda t, k2, k4, b2, b4, w, b: nk.ssum(nk.mul(*[nk.textcnn_logits_ops(
         {"embedding": t, "conv2.kernel": k2, "conv4.kernel": k4, "conv2.bias": b2,
          "conv4.bias": b4, "fc.weight": w, "fc.bias": b}, FD_IDS, 0, (2, 4))] * 2))),
    ("encoder_layer_ops",
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


def test_textcnn_pool_indices_are_read_only():
    """Every call of one shape shares these arrays, so a write must fail at once."""
    for a in nk.kernels.pool_indices(3, 5, (2, 3), (0, 4, 6)):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


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
