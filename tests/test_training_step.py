"""Each model's loss-and-gradient function and forward pass against its reference, and the
sweep paths that must build no graph at all.

The reference is `graph_forward`: the op chain `textcnn_logits_ops` or, per encoder
layer, `encoder_layer_ops`, with the ops around it over a leaf per group, then
`softmax_cross_entropy` and `backward`.  The chain composes its own ops, but those ops
share the elementwise helpers of `numkit.kernels` (`gelu`, `layernorm`, `softmax`, their
derivatives, `row_sums`) with the step, so a fault in one of those helpers passes every
test here; the finite-difference checks (`OP_CASES`, `gradcheck.step_fd_check`) are the
independent check of them.  The step's loss and every trainable group's
gradient agree with it to 1e-12 relative, and frozen groups get none.  The loraformer's
logits and loss are bitwise equal: its kernels run the chain's forward float operations
in the same order.
"""

import numpy as np
import pytest

from fedskew import federation as fed
from fedskew import models
from fedskew import numkit as nk
from fedskew import textdata as td
from fedskew.models import (LoraFormerConfig, PretrainConfig, TextCnnConfig, build_loraformer,
                            build_textcnn, loraformer, pretrain_backbone, textcnn)
from fedskew.models.params import ParamSet, build_params
from fedskew.partition import ClientPartition, PartitionConfig, dirichlet_partition

VOCAB, SEQ = 30, 10


def batch(rng, rows, pad=True):
    """Ids with PAD tails of varying length and one all-PAD document, and labels."""
    ids = rng.integers(2, VOCAB, size=(rows, SEQ))
    if pad:
        ids *= np.arange(SEQ) < rng.integers(1, SEQ + 1, size=(rows, 1))
        ids[-1] = td.PAD_ID
    return ids, rng.integers(0, 4, size=rows)


def relaid(params: ParamSet, groups) -> ParamSet:
    """The model of `groups`, `Group`s of `params` with new arrays or flags, under a layout
    of its own."""
    return build_params(params.layout.model_kind, groups)


def randomized(params: ParamSet, rng, names) -> ParamSet:
    draw = {n: rng.normal(0, 0.3, params.arrays[n].shape) for n in names}
    return relaid(params, [g._replace(tensor=draw.get(g.name, g.tensor)) for g in params])


def assert_close(got, want, name):
    """Within 1e-12 of the reference's largest entry; attn.bk's gradient is zero but for
    rounding on both sides, so it is held to 1e-12 absolute."""
    assert got.shape == want.shape, name
    scale = 1.0 if name.endswith("attn.bk") else np.abs(want).max()
    assert np.abs(got - want).max() <= 1e-12 * scale, name


def assert_step_matches_chain(params, step, graph, ids, labels, seed=0, bitwise_loss=False):
    """The step's loss and gradients against the chain's, dropout masks drawn alike;
    returns the gradients the step wrote, by group."""
    flat = nk.FlatParams(params.vector, params.layout.shapes, nk.OptimizerCfg("sgd", 0.1))
    loss = step(params, ids, labels, nk.derive(seed, "dropout"), flat.grads)
    want = nk.softmax_cross_entropy(graph(params, ids, train=True, rng=nk.derive(seed, "dropout")),
                                    labels)
    if bitwise_loss:
        assert np.float64(loss).tobytes() == want.value.tobytes()
    else:
        assert abs(loss - float(want.value)) <= 1e-12 * abs(float(want.value))
    grads = nk.backward(want)
    assert sorted(grads) == sorted(flat.grads) == sorted(g.name for g in params if g.trainable)
    for name, g in grads.items():
        assert_close(flat.grads[name], g, name)
    return flat.grads


# ---------------------------------------------------------------------------
# TextCNN
# ---------------------------------------------------------------------------


def textcnn_case(rng, widths, batch=5, seq=7, dropout=0.5, pad=True):
    """A TextCNN of random groups, with ids and labels.  With `pad`, the batch holds PAD
    rows at the end of every document but the first and a document that is all PAD.
    Filter 0 of the first width is dead (relu 0 everywhere) and filter 1 ties at its bias
    at every position, so its max goes to the first window, which the other windows do
    not equal."""
    vocab, classes = 9, 3
    cfg = TextCnnConfig(num_classes=classes, embed_dim=3, filter_widths=widths,
                        filters_per_width=3, dropout=dropout)
    params, _ = build_textcnn(cfg, vocab, seq, seed=0)
    ids = rng.integers(1, vocab, size=(batch, seq))
    if pad:
        ids[1:, seq - 2:] = td.PAD_ID
        ids[-1] = td.PAD_ID
    values = {"embedding": rng.standard_normal((vocab, 3))}
    for w in widths:
        values[f"conv{w}.kernel"] = rng.standard_normal((w, 3, 3))
        values[f"conv{w}.bias"] = rng.uniform(0.1, 1.0, 3)
    values[f"conv{widths[0]}.kernel"][:, :, :2] = 0.0
    values[f"conv{widths[0]}.bias"][0] = -1.0
    values["fc.weight"] = rng.standard_normal((3 * len(widths), classes))
    values["fc.bias"] = rng.standard_normal(classes)
    params = relaid(params, [g._replace(tensor=values[g.name]) for g in params])
    return cfg, params, ids, rng.integers(0, classes, size=batch)


@pytest.mark.parametrize("widths,seq", [((2, 3, 4), 7), ((2, 5), 7), ((3,), 7), ((2, 7), 7),
                                        ((4,), 4)])
@pytest.mark.parametrize("dropout,train", [(0.0, True), (0.5, True), (0.5, False)])
@pytest.mark.parametrize("pad", [True, False])
@pytest.mark.parametrize("seed", range(2))
def test_textcnn_step_and_forward_match_op_chain(widths, seq, dropout, train, pad, seed):
    """Training runs the step, with dropout; evaluation runs `make_forward`, without."""
    cfg, params, ids, labels = textcnn_case(np.random.default_rng(5000 + seed), widths,
                                            seq=seq, dropout=dropout, pad=pad)
    graph = textcnn.graph_forward(cfg)
    if not train:
        assert_close(textcnn.make_forward(cfg)(params, ids), graph(params, ids).value, "logits")
        return
    grads = assert_step_matches_chain(params, textcnn.make_loss_and_grad(cfg), graph, ids,
                                      labels, seed=seed)
    dead = f"conv{widths[0]}"
    if dropout == 0.0:
        assert np.abs(grads[f"{dead}.kernel"][:, :, 1]).max() > 0  # the tied filter trains
    assert np.all(grads[f"{dead}.kernel"][:, :, 0] == 0.0) and grads[f"{dead}.bias"][0] == 0.0
    assert np.all(grads["embedding"][td.PAD_ID] == 0.0)  # every PAD position is masked


@pytest.mark.parametrize("frozen", [
    ("embedding",), ("conv2.kernel", "conv3.kernel"),
    ("embedding", "conv2.kernel", "conv3.kernel", "conv2.bias", "conv3.bias"),
    ("fc.weight", "fc.bias"), ("embedding", "fc.weight", "fc.bias")])
def test_textcnn_step_with_frozen_groups_matches_op_chain(frozen):
    """Frozen groups get no gradient; the others get the chain's."""
    cfg, params, ids, labels = textcnn_case(np.random.default_rng(5100), (2, 3))
    params = relaid(params, [g._replace(trainable=g.name not in frozen) for g in params])
    grads = assert_step_matches_chain(params, textcnn.make_loss_and_grad(cfg),
                                      textcnn.graph_forward(cfg), ids, labels)
    assert not set(frozen) & grads.keys()


@pytest.mark.parametrize("dropout", [0.0, 0.5])
def test_textcnn_step_matches_op_chain(dropout):
    cfg = TextCnnConfig(num_classes=4, embed_dim=6, filters_per_width=5, dropout=dropout)
    rng = np.random.default_rng(40)
    params, _ = build_textcnn(cfg, VOCAB, SEQ, seed=1)
    params = randomized(params, rng, ["fc.weight", "fc.bias"])
    step, graph = textcnn.make_loss_and_grad(cfg), textcnn.graph_forward(cfg)
    # a full batch, then a short last batch and one without PAD, on the same scratch arrays
    for rows, pad in ((8, True), (3, True), (8, False)):
        assert_step_matches_chain(params, step, graph, *batch(rng, rows, pad), seed=rows)


# ---------------------------------------------------------------------------
# loraformer
# ---------------------------------------------------------------------------


def lora_params(cfg, rng, trainable_backbone=False):
    params, _ = build_loraformer(cfg, VOCAB, SEQ, seed=2)
    trained = [g.name for g in params if g.lora or g.name.startswith("head.")]
    params = randomized(params, rng, trained)
    if trainable_backbone:  # the pretraining setup: backbone and a head, no adapters
        params = relaid(params, [g._replace(trainable=True) for g in params if not g.lora])
    return params


@pytest.mark.parametrize("layers,lora_dropout", [(1, 0.0), (2, 0.0), (2, 0.3)])
def test_loraformer_federated_step_matches_op_chain(layers, lora_dropout):
    """Frozen backbone, adapters and head trainable; with dropout, q's mask is drawn
    before v's, layer by layer."""
    cfg = LoraFormerConfig(num_classes=4, layers=layers, d_model=8, heads=2, ffn_dim=16,
                           lora_rank=2, lora_dropout=lora_dropout)
    rng = np.random.default_rng(41)
    params = lora_params(cfg, rng)
    assert not all(g.trainable for g in params)
    step, graph = loraformer.make_loss_and_grad(cfg), loraformer.graph_forward(cfg)
    for rows in (8, 3):
        assert_step_matches_chain(params, step, graph, *batch(rng, rows), seed=rows,
                                  bitwise_loss=True)


@pytest.mark.parametrize("layers", [1, 2])
def test_loraformer_pretraining_step_matches_op_chain(layers):
    cfg = LoraFormerConfig(num_classes=4, layers=layers, d_model=8, heads=2, ffn_dim=16,
                           lora_rank=2, lora_dropout=0.1)
    rng = np.random.default_rng(42)
    params = lora_params(cfg, rng, trainable_backbone=True)
    step, graph = loraformer.make_loss_and_grad(cfg), loraformer.graph_forward(cfg)
    assert_step_matches_chain(params, step, graph, *batch(rng, 8), bitwise_loss=True)


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("lora_dropout", [0.0, 0.3])
@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("mode", ["pretraining", "federated"])
def test_loraformer_step_and_forward_match_op_chain(layers, lora_dropout, train, mode):
    """Every group random, layernorms and biases too.  Pretraining trains the whole
    backbone without adapters, so every gradient is computed; a federated step trains
    only the adapters and the head.  Evaluation runs `make_forward`."""
    cfg = LoraFormerConfig(num_classes=4, layers=layers, d_model=8, heads=2, ffn_dim=12,
                           lora_rank=3, lora_dropout=lora_dropout)
    rng = np.random.default_rng(6000 + layers)
    params = lora_params(cfg, rng, trainable_backbone=mode == "pretraining")
    params = randomized(params, rng, [g.name for g in params])
    ids, labels = batch(rng, 4)
    graph = loraformer.graph_forward(cfg)
    if train:
        assert_step_matches_chain(params, loraformer.make_loss_and_grad(cfg), graph, ids,
                                  labels, bitwise_loss=True)
    else:
        got = loraformer.make_forward(cfg)(params, ids)
        assert got.tobytes() == graph(params, ids).value.tobytes()


def test_head_only_training_gets_only_head_gradients():
    """Everything below the head frozen: the step writes the head's gradients and no
    other, as `backward` returns only the head's."""
    cfg = LoraFormerConfig(num_classes=4, layers=1, d_model=8, heads=2, ffn_dim=16,
                           lora_rank=2, lora_dropout=0.0)
    rng = np.random.default_rng(43)
    params = lora_params(cfg, rng)
    params = relaid(params, [g._replace(trainable=g.name.startswith("head.")) for g in params
                             if not g.lora])
    assert_step_matches_chain(params, loraformer.make_loss_and_grad(cfg),
                              loraformer.graph_forward(cfg), *batch(rng, 8), bitwise_loss=True)


# ---------------------------------------------------------------------------
# both models
# ---------------------------------------------------------------------------


def history_cases(family, rng):
    """(step, params, ids, labels) of batches of 64, 32, 11 and 64 documents."""
    if family == "textcnn":
        cases = [textcnn_case(rng, (2, 3, 4), batch=b, seq=9) for b in (64, 32, 11, 64)]
        return [(textcnn.make_loss_and_grad(cfg), params, ids, labels)
                for cfg, params, ids, labels in cases]
    cfg = LoraFormerConfig(num_classes=4, layers=2, d_model=8, heads=2, ffn_dim=16,
                           lora_rank=2, lora_dropout=0.3)
    return [(loraformer.make_loss_and_grad(cfg), lora_params(cfg, rng), *batch(rng, b))
            for b in (64, 32, 11, 64)]


@pytest.mark.parametrize("family", ["textcnn", "loraformer"])
def test_step_independent_of_call_history(family, monkeypatch):
    """The steps' scratch arrays grow and are reused; batches of 64, 32, 11 and 64
    documents in turn give bitwise what each gives on a fresh workspace."""
    def run(step, params, ids, labels):
        flat = nk.FlatParams(params.vector, params.layout.shapes, nk.OptimizerCfg("sgd", 0.1))
        loss = step(params, ids, labels, nk.derive(7, "dropout"), flat.grads)
        return np.float64(loss).tobytes() + flat.grad.tobytes()

    cases = history_cases(family, np.random.default_rng(5200))
    history = [run(*case) for case in cases]
    for case, got in zip(cases, history):
        monkeypatch.setattr(nk.kernels, "_scratch", {})
        assert got == run(*case)


@pytest.mark.parametrize("family", ["textcnn", "loraformer cell", "pretraining"])
def test_step_writes_every_view_it_is_passed_and_no_other(family):
    """`flat.grad` starts NaN and `grads` holds the views of a subset of the groups: one
    step overwrites each passed view in full, with what it writes when passed them all,
    and leaves every other view NaN.  The loraformer cell trains adapters and head; the
    pretraining set, the whole backbone and a head."""
    rng = np.random.default_rng(5300)
    if family == "textcnn":
        cfg, params, ids, labels = textcnn_case(rng, (2, 3))
        step = textcnn.make_loss_and_grad(cfg)
    else:
        cfg = LoraFormerConfig(num_classes=4, layers=2, d_model=8, heads=2, ffn_dim=16,
                               lora_rank=2, lora_dropout=0.3)
        params = lora_params(cfg, rng, trainable_backbone=family == "pretraining")
        params = randomized(params, rng, [g.name for g in params])
        ids, labels = batch(rng, 8)
        step = loraformer.make_loss_and_grad(cfg)
    flat = nk.FlatParams(params.vector, params.layout.shapes, nk.OptimizerCfg("sgd", 0.1))
    names = list(flat.grads)
    step(params, ids, labels, nk.derive(0, "dropout"), flat.grads)
    full = flat.grad.copy()
    for passed in (names, names[::2], names[1::2], names[:1], names[-1:]):
        flat.grad[...] = np.nan
        step(params, ids, labels, nk.derive(0, "dropout"), {n: flat.grads[n] for n in passed})
        lo = 0
        for name, view in flat.grads.items():
            if name in passed:
                assert view.tobytes() == full[lo : lo + view.size].tobytes(), name
            else:
                assert np.isnan(view).all(), name
            lo += view.size


def test_forward_matches_op_chain_logits():
    rng = np.random.default_rng(44)
    ids, labels = batch(rng, 8)
    cnn_cfg = TextCnnConfig(num_classes=4, embed_dim=6, filters_per_width=5)
    cnn, cnn_forward = build_textcnn(cnn_cfg, VOCAB, SEQ, seed=3)
    cnn = randomized(cnn, rng, ["fc.weight", "fc.bias"])
    logits = cnn_forward(cnn, ids)
    assert isinstance(logits, np.ndarray)
    assert_close(logits, textcnn.graph_forward(cnn_cfg)(cnn, ids).value, "logits")
    lf_cfg = LoraFormerConfig(num_classes=4, layers=2, d_model=8, heads=2, ffn_dim=16,
                              lora_rank=2, lora_dropout=0.3)
    lf = lora_params(lf_cfg, rng)
    _, lf_forward = build_loraformer(lf_cfg, VOCAB, SEQ, seed=2)
    logits = lf_forward(lf, ids)
    assert isinstance(logits, np.ndarray)
    assert logits.tobytes() == loraformer.graph_forward(lf_cfg)(lf, ids).value.tobytes()
    for params in (cnn, lf):  # the forward passes read ids that check_split passed
        with pytest.raises(nk.ShapeError, match="embedding id out of range"):
            models.check_split(params, td.Split(ids + VOCAB, labels))
        with pytest.raises(nk.ContractError, match="embedding ids must be integers"):
            models.check_split(params, td.Split(ids * 1.0, labels))


def test_step_and_forward_report_nonfinite_logits():
    cfg = TextCnnConfig(num_classes=4, embed_dim=6, filters_per_width=5)
    params, forward = build_textcnn(cfg, VOCAB, SEQ, seed=1)
    vector = params.vector.copy()
    for name, view in nk.views(vector, params.layout.shapes).items():
        if name in ("fc.weight", "embedding"):
            view[...] = 1e300
    params = params.with_vector(vector)
    flat = nk.FlatParams(params.vector, params.layout.shapes, nk.OptimizerCfg("sgd", 0.1))
    ids, labels = batch(np.random.default_rng(0), 4)
    with pytest.raises(nk.NumericError, match="^non-finite output from op 'textcnn_logits'$"), \
            np.errstate(over="ignore", invalid="ignore"):
        textcnn.make_loss_and_grad(cfg)(params, ids, labels, nk.derive(0, "d"), flat.grads)
    with pytest.raises(nk.NumericError, match="^non-finite output from op 'textcnn_logits'$"), \
            np.errstate(over="ignore", invalid="ignore"):
        forward(params, ids)


@pytest.mark.parametrize("huge", [
    {"tok_emb": 1e308, "pos_emb": 1e308},
    {"layer0.attn.bo": 1e307, "layer0.ffn.b2": 1.79e308},
    {"ln_f.gain": 1e308, "ln_f.bias": 1.5e308},
    {"ln_f.gain": 0.0, "ln_f.bias": 1.0, "head.weight": 1e308}],
    ids=["embedding sum", "layer output", "ln_f", "head"])
def test_loraformer_overflow_anywhere_reports_nonfinite_logits(huge):
    """An overflow at any stage of the forward pass, in documents that hold PAD, reaches the
    logits, the one place the loraformer checks: its step, its forward pass and a client's
    local training all report it."""
    cfg = LoraFormerConfig(num_classes=4, layers=2, d_model=8, heads=2, ffn_dim=16,
                           lora_rank=2, lora_dropout=0.1)
    rng = np.random.default_rng(45)
    params = lora_params(cfg, rng)
    params = relaid(params, [g._replace(tensor=np.full(g.tensor.shape, huge[g.name]))
                             if g.name in huge else g for g in params])
    ids, labels = batch(rng, 4)
    assert (ids == td.PAD_ID).any()
    opt = nk.OptimizerCfg("adamw", 0.01)
    flat = nk.FlatParams(params.vector, params.layout.shapes, opt)
    split = td.Split(ids, labels)
    vocab = td.Vocabulary.build([[f"w{i}" for i in range(VOCAB - 2)]], VOCAB)
    data = td.Dataset(4, split, split, vocab, SEQ)
    part = ClientPartition(3, list(range(4)), np.bincount(labels, minlength=4).tolist())
    fed_cfg = fed.FedConfig(optimizer=opt, local_epochs=1, batch_size=4, seed=0)
    message = "non-finite output from op 'loraformer_logits'"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(nk.NumericError, match=f"^{message}$"):
            loraformer.make_loss_and_grad(cfg)(params, ids, labels, nk.derive(0, "d"),
                                               flat.grads)
        with pytest.raises(nk.NumericError, match=f"^{message}$"):
            loraformer.make_forward(cfg)(params, ids)
        with pytest.raises(fed.FederationError, match=f"^client 3, round 2: {message}$"):
            fed.local_train(params, loraformer.make_loss_and_grad(cfg), part, data, fed_cfg, 2)


def test_sweep_paths_build_no_graph(monkeypatch):
    """Federated training and evaluation of both families, and backbone pretraining, run
    without creating a single autodiff node."""
    desk = td.generate_synthetic(td.SyntheticSpec(4, VOCAB - 2, 12, 4, SEQ, 0.05, 9))
    parts = dirichlet_partition(desk, PartitionConfig(3, 1.0, seed=2))

    def no_nodes(*args, **kwargs):
        raise AssertionError("an autodiff node was built")

    monkeypatch.setattr(nk.GradNode, "__init__", no_nodes)
    lf = LoraFormerConfig(num_classes=4, layers=2, d_model=8, heads=2, ffn_dim=16,
                          lora_rank=2, lora_dropout=0.1)
    runs = (("textcnn", TextCnnConfig(num_classes=4, embed_dim=6, filters_per_width=5),
             nk.OptimizerCfg("sgd", 0.1)),
            ("loraformer", lf, nk.OptimizerCfg("adamw", 0.01, 0.01)))
    for family, model_cfg, opt in runs:
        cfg = fed.FedConfig(optimizer=opt, local_epochs=1, rounds=2, batch_size=8, seed=3)
        logs, _ = fed.run_federation(desk, parts, family, model_cfg, cfg)
        assert len(logs) == 2
    params, _ = build_loraformer(lf, desk.vocabulary.size, desk.max_seq_len, seed=4)
    pretrain_backbone(params, lf, PretrainConfig(seed=50, steps=3, docs_per_class=5,
                                                 topic_concentration=0.05), desk, 8)
    with pytest.raises(AssertionError, match="an autodiff node was built"):
        nk.leaf(np.zeros(1))
