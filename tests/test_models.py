import math
from dataclasses import fields, replace

import numpy as np
import pytest

from fedskew import numkit as nk
from fedskew import textdata as td
from fedskew.models import (
    DisjointnessError,
    LoraFormerConfig,
    PretrainConfig,
    TextCnnConfig,
    build_loraformer,
    build_loss_and_grad,
    build_model,
    build_textcnn,
    merge_lora,
    pretrain_backbone,
)
from fedskew.models import Group, build_params, loraformer, textcnn
from fedskew.numkit.optim import OptimizerCfg, adamw_step, sgd_step

from gradcheck import step_fd_check

VOCAB = 30
SEQ = 10
CNN_CFG = TextCnnConfig(num_classes=4, embed_dim=6, filters_per_width=5)
LF_CFG = LoraFormerConfig(num_classes=4, layers=2, d_model=8, heads=2, ffn_dim=16,
                          lora_rank=2, lora_dropout=0.0)


def rand_batch(rng, batch=3, seq=SEQ, vocab=VOCAB):
    ids = rng.integers(2, vocab, size=(batch, seq))
    ids[:, seq - 2 :] = td.PAD_ID  # exercise padding
    return ids


def test_textcnn_paper_scale_param_count():
    cfg = TextCnnConfig(num_classes=4, embed_dim=128, filters_per_width=128)
    params, _ = build_textcnn(cfg, vocab_size=30000, max_seq_len=64, seed=0)
    total = sum(g.tensor.size for g in params if g.trainable)
    assert abs(total - 2.7e6) / 2.7e6 < 0.6  # vocab-dependent; order-of-magnitude sanity
    assert all(g.trainable and not g.lora for g in params)


def test_build_params_lays_out_one_trainable_vector():
    """The trainable groups are copied, in order, into one read-only vector that their
    arrays view; frozen arrays are kept as they are, read-only; a non-finite array is
    rejected where it enters, by name; equal groups give equal layouts."""
    frozen, weight, bias = np.ones((2, 3)), np.arange(4.0).reshape(2, 2), np.array([5.0])
    groups = [Group("w", weight, True, True), Group("f", frozen, False, False),
              Group("b", bias, True, False)]
    params = build_params("toy", groups)
    assert params.vector.tolist() == [0.0, 1.0, 2.0, 3.0, 5.0]
    assert params.layout.shapes == {"w": (2, 2), "b": (1,)}
    assert params.layout.lora.tolist() == [True] * 4 + [False]
    assert params.arrays["f"] is frozen and params.arrays["w"].base is params.vector
    assert [g.name for g in params] == ["w", "f", "b"]
    for arr in (params.vector, *params.arrays.values()):
        assert not arr.flags.writeable
    assert weight.flags.writeable  # a trainable group's array is copied, not frozen
    assert build_params("toy", groups).layout == params.layout
    assert build_params("toy", groups[:2]).layout != params.layout
    with pytest.raises(nk.NumericError, match="^non-finite values in 'b'$"):
        build_params("toy", [groups[0], Group("b", np.array([np.inf]), True, False)])


def test_textcnn_zero_head_uniform_logits():
    params, forward = build_textcnn(CNN_CFG, VOCAB, SEQ, seed=1)
    ids = rand_batch(np.random.default_rng(0))
    logits = forward(params, ids)
    np.testing.assert_array_equal(logits, 0.0)
    loss = nk.softmax_cross_entropy(logits, np.zeros(len(ids), dtype=int))
    assert float(loss.value) == pytest.approx(math.log(4), abs=1e-12)


def test_textcnn_pad_position_has_no_effect():
    params, forward = build_textcnn(CNN_CFG, VOCAB, SEQ, seed=1)
    # train one step so the head is nonzero
    ids = rand_batch(np.random.default_rng(1))
    flat = nk.FlatParams(params.vector, params.layout.shapes, OptimizerCfg("sgd", lr=0.5))
    textcnn.make_loss_and_grad(CNN_CFG)(params, ids, np.array([0, 1, 2]), nk.derive(1, "d"),
                                        flat.grads)
    sgd_step(flat)
    params = params.with_vector(flat.vector)
    base = forward(params, ids)
    # PAD rows of the embedding table must not leak into the logits
    vector = params.vector.copy()
    nk.views(vector, params.layout.shapes)["embedding"][td.PAD_ID] += 100.0
    mutated = params.with_vector(vector)
    np.testing.assert_array_equal(forward(mutated, ids), base)


def test_steps_write_in_place_and_forward_reads_them():
    """A step writes the trainable vector the ParamSet holds, so the next step and the
    forward pass read the new values with no rebuilt ParamSet."""
    params, forward = build_textcnn(CNN_CFG, VOCAB, SEQ, seed=1)
    flat = nk.FlatParams(params.vector, params.layout.shapes, OptimizerCfg("sgd", lr=0.5))
    params = params.with_vector(flat.vector)
    ids = rand_batch(np.random.default_rng(3))
    build_loss_and_grad("textcnn", CNN_CFG)(params, ids, np.array([0, 1, 2]),
                                             nk.derive(0, "d"), flat.grads)
    sgd_step(flat)
    fresh = params.with_vector(flat.vector.copy())
    assert forward(params, ids).tobytes() == forward(fresh, ids).tobytes()
    assert np.abs(forward(params, ids)).max() > 0  # the stepped head, not the zero one


@pytest.mark.parametrize("seed", range(5))
def test_textcnn_gradient_check(seed):
    params, _ = build_textcnn(CNN_CFG, VOCAB, SEQ, seed=seed)
    rng = np.random.default_rng(100 + seed)
    ids = rand_batch(rng, batch=2)
    labels = rng.integers(0, 4, size=2)
    # randomize the head so gradients reach every group
    vector = params.vector.copy()
    head = nk.views(vector, params.layout.shapes)["fc.weight"]
    head[...] = rng.normal(0, 0.3, head.shape)
    params = params.with_vector(vector)
    step_fd_check(textcnn.make_loss_and_grad(CNN_CFG), params, ids, labels, seed=seed)


def test_loraformer_flag_partition_and_fraction():
    params, _ = build_loraformer(LF_CFG, VOCAB, SEQ, seed=0)
    kinds = set()
    for g in params:
        if not g.trainable:
            assert not g.lora
            kinds.add("frozen")
        elif g.lora:
            kinds.add("lora")
        else:
            assert g.name.startswith("head.")
            kinds.add("head")
    assert kinds == {"frozen", "lora", "head"}
    frac = sum(g.tensor.size for g in params if g.trainable) / sum(g.tensor.size for g in params)
    assert 0 < frac < 0.10


def with_adapter_draw(params, seed):
    """`params` with every adapter A drawn anew from `seed`; B stays 0."""
    rng, vector = np.random.default_rng(seed), params.vector.copy()
    for name, view in nk.views(vector, params.layout.shapes).items():
        if name.endswith("_lora.A"):
            view[...] = rng.normal(0, 0.02, view.shape)
    return params.with_vector(vector)


def test_loraformer_zero_start_independent_of_adapter_draw():
    ids = rand_batch(np.random.default_rng(2))
    params, forward = build_loraformer(LF_CFG, VOCAB, SEQ, seed=0)
    pa, pb = with_adapter_draw(params, 111), with_adapter_draw(params, 222)
    assert pa.vector.tobytes() != pb.vector.tobytes()
    np.testing.assert_array_equal(forward(pa, ids), forward(pb, ids))
    # and equals the backbone alone: adapters removed entirely
    merged = merge_lora(pa, LF_CFG)
    np.testing.assert_allclose(forward(merged, ids), forward(pa, ids), atol=1e-12)


def test_loraformer_gradients_only_adapters_and_head():
    params, _ = build_loraformer(LF_CFG, VOCAB, SEQ, seed=3)
    rng = np.random.default_rng(3)
    ids = rand_batch(rng)
    # a nonzero head, so a gradient reaches the adapters
    vector = params.vector.copy()
    nk.views(vector, params.layout.shapes)["head.weight"][...] = rng.normal(0, 0.3, (8, 4))
    params = params.with_vector(vector)
    flat = nk.FlatParams(params.vector, params.layout.shapes, OptimizerCfg("sgd", lr=0.1))
    loraformer.make_loss_and_grad(LF_CFG)(params, ids, np.array([0, 1, 2]), nk.derive(3, "d"),
                                          flat.grads)
    assert sorted(flat.grads) == sorted(g.name for g in params
                                        if g.lora or g.name.startswith("head."))
    assert flat.grads["head.weight"].any()
    for name in flat.grads:
        if name.endswith("_lora.A"):  # B = 0 at init: no gradient reaches A yet
            assert not flat.grads[name].any()
        elif name.endswith("_lora.B"):
            assert flat.grads[name].any()


@pytest.mark.parametrize("seed", range(5))
def test_loraformer_gradient_check(seed):
    cfg = LoraFormerConfig(num_classes=3, layers=1, d_model=4, heads=2, ffn_dim=6,
                           lora_rank=2, lora_dropout=0.0)
    params, _ = build_loraformer(cfg, 12, 5, seed=seed)
    rng = np.random.default_rng(500 + seed)
    # random adapters and head so every trainable path carries gradient
    params = params.with_vector(rng.normal(0, 0.3, params.vector.shape))
    ids = rng.integers(2, 12, size=(2, 5))
    labels = rng.integers(0, 3, size=2)
    step_fd_check(loraformer.make_loss_and_grad(cfg), params, ids, labels, seed=seed)


def test_merge_lora_preserves_logits():
    params, forward = build_loraformer(LF_CFG, VOCAB, SEQ, seed=4)
    rng = np.random.default_rng(4)
    vector = params.vector.copy()
    vector[params.layout.lora] = rng.normal(0, 0.2, params.layout.lora.sum())
    params = params.with_vector(vector)
    ids = rand_batch(rng, batch=8)
    merged = merge_lora(params, LF_CFG)
    assert not any(g.lora for g in merged)
    diff = np.abs(forward(merged, ids) - forward(params, ids)).max()
    assert diff < 1e-5
    from fedskew.models import StructuralError
    with pytest.raises(StructuralError):
        merge_lora(merged, LF_CFG)


# a corpus with the loraformer's vocabulary; PRE's proxy for it is the 3-class corpus
# of seed 50, drawn from other topics, so the two share no document
TARGET = td.generate_synthetic(td.SyntheticSpec(
    num_classes=3, vocab_size=VOCAB - 2, train_docs_per_class=20, test_docs_per_class=10,
    doc_length=SEQ, topic_concentration=0.05, seed=51))
PRE = PretrainConfig(seed=50, docs_per_class=20, topic_concentration=0.05)


def test_pretrain_zero_steps_is_identity():
    params, _ = build_loraformer(LF_CFG, VOCAB, SEQ, seed=5)
    out = pretrain_backbone(params, LF_CFG, replace(PRE, steps=0), TARGET, 32)
    for a, b in zip(params, out):
        assert np.array_equal(a.tensor, b.tensor)
        assert (a.trainable, a.lora) == (b.trainable, b.lora)


def test_pretrain_ignores_lora_dropout():
    """Pretraining drops the adapters, so no dropout mask is drawn: the backbone trains
    bitwise the same at any lora_dropout."""
    out = []
    for rate in (0.0, 0.3):
        cfg = LoraFormerConfig(num_classes=4, layers=2, d_model=8, heads=2, ffn_dim=16,
                               lora_rank=2, lora_dropout=rate)
        params, _ = build_loraformer(cfg, VOCAB, SEQ, seed=6)
        out.append(pretrain_backbone(params, cfg, replace(PRE, steps=5), TARGET, 32))
    for a, b in zip(*out):
        assert a.tensor.tobytes() == b.tensor.tobytes(), a.name


def test_pretrain_improves_probe_and_keeps_flags():
    pre = replace(PRE, steps=60)
    # the proxy's topics and training documents, with held-out documents of its own
    proxy = td.generate_synthetic(replace(pre.proxy_spec(TARGET), test_docs_per_class=10))
    params, forward = build_loraformer(LF_CFG, VOCAB, SEQ, seed=6)
    step = build_loss_and_grad("loraformer", LF_CFG)
    trained = pretrain_backbone(params, LF_CFG, pre, TARGET, 32)
    for a, b in zip(params, trained):
        assert (a.name, a.trainable, a.lora) == (b.name, b.trainable, b.lora)
    # the throwaway head shares only the real head's names: the trainable vector, adapters
    # and head, is the very one passed in
    assert trained.vector is params.vector

    def probe_accuracy(pset):
        # linear probe: train only the head on proxy train, eval on proxy test; the
        # adapters get no gradient, so AdamW without decay leaves them as they are
        flat = nk.FlatParams(pset.vector, pset.layout.shapes, OptimizerCfg("adamw", lr=0.05))
        head = {n: flat.grads[n] for n in ("head.weight", "head.bias")}
        pset = pset.with_vector(flat.vector)
        for epoch in range(5):
            for batch in td.make_batches(proxy.train, 16, epoch):
                step(pset, batch.token_ids, batch.labels, None, head)
                adamw_step(flat)
        correct = 0
        for batch in td.make_batches(proxy.test, 32, 0):
            preds = forward(pset, batch.token_ids).argmax(axis=1)
            correct += int((preds == batch.labels).sum())
        return correct / len(proxy.test)

    assert probe_accuracy(trained) > probe_accuracy(params)


def test_pretrain_rejects_overlapping_proxy():
    # a target drawn with its proxy's own spec and seed repeats the proxy's documents
    target = td.generate_synthetic(PRE.proxy_spec(TARGET))
    params, _ = build_loraformer(LF_CFG, VOCAB, SEQ, seed=7)
    with pytest.raises(DisjointnessError):
        pretrain_backbone(params, LF_CFG, replace(PRE, steps=1), target, 32)


def test_pretrain_trains_under_the_optimizer_its_config_builds(monkeypatch):
    assert [f.name for f in fields(PretrainConfig)] == [
        "seed", "steps", "lr", "docs_per_class", "topic_concentration"]
    built, stepped_under = [], []
    real_cfg, real_step = loraformer.OptimizerCfg, loraformer.adamw_step

    def counting_cfg(*args, **kwargs):
        built.append(real_cfg(*args, **kwargs))
        return built[-1]

    def recording_step(flat):
        stepped_under.append(flat.cfg)
        real_step(flat)

    monkeypatch.setattr(loraformer, "OptimizerCfg", counting_cfg)
    monkeypatch.setattr(loraformer, "adamw_step", recording_step)
    pre = replace(PRE, steps=3, lr=0.002)
    assert len(built) == 1 and built[0] is pre.optimizer
    assert pre.optimizer == OptimizerCfg("adamw", 0.002, 0.01)
    params, _ = build_loraformer(LF_CFG, VOCAB, SEQ, seed=8)
    pretrain_backbone(params, LF_CFG, pre, TARGET, 32)
    assert len(built) == 1
    assert len(stepped_under) == 3 and all(c is pre.optimizer for c in stepped_under)
    with pytest.raises(ValueError, match=r"^lr: must be a finite number > 0, got -1\.0$"):
        replace(PRE, lr=-1.0)


def test_proxy_spec_follows_the_target():
    # proxy ids run 2 .. word count + 1, and a model of TARGET has VOCAB embedding rows
    spec = PRE.proxy_spec(TARGET)
    assert (spec.vocab_size, spec.doc_length, spec.max_seq_len) == (VOCAB - 2, SEQ, SEQ)
    assert (spec.num_classes, spec.seed) == (TARGET.num_classes, PRE.seed)
    # a target of one word has too few for a proxy corpus
    one_word = td.generate_synthetic(td.SyntheticSpec(2, 1, 3, 1, SEQ, 0.5, 0))
    with pytest.raises(ValueError, match="^the proxy corpus needs at least 2 words, and the "
                                         "target vocabulary has 1$"):
        PRE.proxy_spec(one_word)


def test_init_determinism_both_families():
    for family, cfg in (("textcnn", CNN_CFG), ("loraformer", LF_CFG)):
        a, _ = build_model(family, cfg, VOCAB, SEQ, seed=9)
        b, _ = build_model(family, cfg, VOCAB, SEQ, seed=9)
        for ga, gb in zip(a, b):
            assert np.array_equal(ga.tensor, gb.tensor)


def test_loss_decreases_centralized_both_families():
    spec = td.SyntheticSpec(num_classes=4, vocab_size=VOCAB - 2, train_docs_per_class=15,
                            test_docs_per_class=5, doc_length=SEQ,
                            topic_concentration=0.05, seed=8)
    ds = td.generate_synthetic(spec)
    for family, cfg, opt in (("textcnn", CNN_CFG, OptimizerCfg("sgd", lr=0.2)),
                             ("loraformer", LF_CFG, OptimizerCfg("adamw", lr=0.01))):
        params, _ = build_model(family, cfg, ds.vocabulary.size, ds.max_seq_len, seed=10)
        step = build_loss_and_grad(family, cfg)
        flat = nk.FlatParams(params.vector, params.layout.shapes, opt)
        params = params.with_vector(flat.vector)
        losses = []
        for i in range(50):
            batch = td.make_batches(ds.train, 16, i)[0]
            rng = nk.derive(0, "smoke-dropout", family, i)
            losses.append(step(params, batch.token_ids, batch.labels, rng, flat.grads))
            nk.step(flat)
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

