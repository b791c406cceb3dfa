"""Each model's loss-and-gradient function against its autodiff graph, and the sweep paths
that must build no graph at all.

The oracle is `graph_forward`: the fused nodes `textcnn_logits` / `lora_encoder_layer`
and the ops around them, a leaf per group, `softmax_cross_entropy` and `backward`.  The
training step runs the same float operations in the same order, so the loss and every
trainable group's gradient must be equal bitwise, and frozen groups get none.
"""

from dataclasses import replace

import numpy as np
import pytest

from fedskew import federation as fed
from fedskew import numkit as nk
from fedskew import textdata as td
from fedskew.models import (LoraFormerConfig, PretrainConfig, TextCnnConfig, build_loraformer,
                            build_textcnn, loraformer, pretrain_backbone, textcnn)
from fedskew.models.params import ParamGroup, ParamSet
from fedskew.partition import PartitionConfig, dirichlet_partition

VOCAB, SEQ = 30, 10


def batch(rng, rows, pad=True):
    """Ids with PAD tails of varying length and one all-PAD document, and labels."""
    ids = rng.integers(2, VOCAB, size=(rows, SEQ))
    if pad:
        ids *= np.arange(SEQ) < rng.integers(1, SEQ + 1, size=(rows, 1))
        ids[-1] = td.PAD_ID
    return ids, rng.integers(0, 4, size=rows)


def randomized(params: ParamSet, rng, names) -> ParamSet:
    return params.with_tensors({n: nk.Tensor(rng.normal(0, 0.3, params.get(n).tensor.shape))
                                for n in names})


def assert_step_equals_graph(params, step, graph, ids, labels, seed=0):
    flat = nk.FlatParams(params.trainable_dict(), nk.OptimizerCfg("sgd", 0.1))
    loss = step(params, ids, labels, nk.derive(seed, "dropout"), flat.grads)
    want = nk.softmax_cross_entropy(graph(params, ids, train=True, rng=nk.derive(seed, "dropout")),
                                    labels)
    assert np.float64(loss).tobytes() == want.value.tobytes()
    grads = nk.backward(want)
    assert sorted(grads) == sorted(flat.names) == sorted(params.trainable_dict())
    for name, g in grads.items():
        assert flat.grads[name].tobytes() == g.tobytes(), name


@pytest.mark.parametrize("dropout", [0.0, 0.5])
def test_textcnn_step_equals_graph_bitwise(dropout):
    cfg = TextCnnConfig(num_classes=4, embed_dim=6, filters_per_width=5, dropout=dropout)
    rng = np.random.default_rng(40)
    params, _ = build_textcnn(cfg, VOCAB, SEQ, seed=1)
    params = randomized(params, rng, ["fc.weight", "fc.bias"])
    step, graph = textcnn.make_loss_and_grad(cfg), textcnn.graph_forward(cfg)
    # a full batch, then a short last batch and one without PAD, on the same scratch arrays
    for rows, pad in ((8, True), (3, True), (8, False)):
        assert_step_equals_graph(params, step, graph, *batch(rng, rows, pad), seed=rows)


def lora_params(cfg, rng, trainable_backbone=False):
    params, _ = build_loraformer(cfg, VOCAB, SEQ, seed=2)
    trained = [g.name for g in params if g.lora or g.name.startswith("head.")]
    params = randomized(params, rng, trained)
    if trainable_backbone:  # the pretraining setup: backbone and a head, no adapters
        params = ParamSet([ParamGroup(g.name, g.tensor, True, False) for g in params if not g.lora],
                          "loraformer")
    return params


@pytest.mark.parametrize("layers,lora_dropout", [(1, 0.0), (2, 0.0), (2, 0.3)])
def test_loraformer_federated_step_equals_graph_bitwise(layers, lora_dropout):
    """Frozen backbone, adapters and head trainable; with dropout, q's mask is drawn
    before v's, layer by layer."""
    cfg = LoraFormerConfig(num_classes=4, layers=layers, d_model=8, heads=2, ffn_dim=16,
                           lora_rank=2, lora_dropout=lora_dropout)
    rng = np.random.default_rng(41)
    params = lora_params(cfg, rng)
    assert not all(g.trainable for g in params)
    step, graph = loraformer.make_loss_and_grad(cfg), loraformer.graph_forward(cfg)
    for rows in (8, 3):
        assert_step_equals_graph(params, step, graph, *batch(rng, rows), seed=rows)


@pytest.mark.parametrize("layers", [1, 2])
def test_loraformer_pretraining_step_equals_graph_bitwise(layers):
    cfg = LoraFormerConfig(num_classes=4, layers=layers, d_model=8, heads=2, ffn_dim=16,
                           lora_rank=2, lora_dropout=0.1)
    rng = np.random.default_rng(42)
    params = lora_params(cfg, rng, trainable_backbone=True)
    step, graph = loraformer.make_loss_and_grad(cfg), loraformer.graph_forward(cfg)
    assert_step_equals_graph(params, step, graph, *batch(rng, 8))


def test_head_only_training_gets_only_head_gradients():
    """Everything below the head frozen: the step stops at the head, as `backward` does."""
    cfg = LoraFormerConfig(num_classes=4, layers=1, d_model=8, heads=2, ffn_dim=16,
                           lora_rank=2, lora_dropout=0.0)
    rng = np.random.default_rng(43)
    params = lora_params(cfg, rng)
    params = ParamSet([replace(g, trainable=g.name.startswith("head.")) for g in params
                       if not g.lora], "loraformer")
    assert_step_equals_graph(params, loraformer.make_loss_and_grad(cfg),
                             loraformer.graph_forward(cfg), *batch(rng, 8))


def test_forward_equals_graph_logits_bitwise():
    rng = np.random.default_rng(44)
    ids, _ = batch(rng, 8)
    cnn_cfg = TextCnnConfig(num_classes=4, embed_dim=6, filters_per_width=5)
    cnn, forward = build_textcnn(cnn_cfg, VOCAB, SEQ, seed=3)
    cnn = randomized(cnn, rng, ["fc.weight", "fc.bias"])
    lf_cfg = LoraFormerConfig(num_classes=4, layers=2, d_model=8, heads=2, ffn_dim=16,
                              lora_rank=2, lora_dropout=0.3)
    lf = lora_params(lf_cfg, rng)
    _, lf_forward = build_loraformer(lf_cfg, VOCAB, SEQ, seed=2)
    for params, forward, graph in ((cnn, forward, textcnn.graph_forward(cnn_cfg)),
                                   (lf, lf_forward, loraformer.graph_forward(lf_cfg))):
        logits = forward(params, ids)
        assert isinstance(logits, np.ndarray)
        assert logits.tobytes() == graph(params, ids).value.tobytes()
    with pytest.raises(nk.ShapeError, match="embedding id out of range"):
        lf_forward(lf, ids + VOCAB)


def test_step_reports_nonfinite_logits_as_the_node_did():
    cfg = TextCnnConfig(num_classes=4, embed_dim=6, filters_per_width=5)
    params, _ = build_textcnn(cfg, VOCAB, SEQ, seed=1)
    params = params.with_tensors({"fc.weight": nk.Tensor(np.full((15, 4), 1e300)),
                                  "embedding": nk.Tensor(np.full((VOCAB, 6), 1e300))})
    flat = nk.FlatParams(params.trainable_dict(), nk.OptimizerCfg("sgd", 0.1))
    with pytest.raises(nk.NumericError, match="^non-finite output from op 'textcnn_logits'$"), \
            np.errstate(over="ignore", invalid="ignore"):
        textcnn.make_loss_and_grad(cfg)(params, *batch(np.random.default_rng(0), 4),
                                        nk.derive(0, "d"), flat.grads)


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
