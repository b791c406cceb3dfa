from dataclasses import replace

import numpy as np
import pytest

from fedskew import federation as fed
from fedskew import numkit as nk
from fedskew import textdata as td
from fedskew.models import (LoraFormerConfig, TextCnnConfig, build_loraformer, build_loss_and_grad,
                            build_model)
from fedskew.models.params import Group, StructuralError, build_params
from fedskew.partition import ClientPartition, PartitionConfig, dirichlet_partition


def upd(cid, values, lora_flags=(False,)):
    """Client `cid`'s update: one trainable group per value, named g0, g1, ..."""
    groups = [Group(f"g{i}", np.asarray(v, dtype=float), True, l)
              for i, (v, l) in enumerate(zip(values, lora_flags))]
    return fed.ClientUpdate(cid, build_params("toy", groups))


def aggregated(updates, weights) -> dict:
    """{group name: array} of the vector `aggregate` returns."""
    return updates[0].params.with_vector(fed.aggregate(updates, weights)).arrays


def test_fedavg_weights_basic():
    w = fed.fedavg_weights([1, 1])
    np.testing.assert_array_equal(w.standard, [0.5, 0.5])
    w2 = fed.fedavg_weights([1, 3])
    np.testing.assert_allclose(w2.standard, [0.25, 0.75], atol=1e-15)


def test_fedavg_paper_ratio():
    w = fed.fedavg_weights([118, 34742])
    assert w.standard[1] / w.standard[0] == pytest.approx(294.4, abs=0.1)


def test_fedavgw_weights():
    w = fed.fedavgw_weights([100, 100], beta=0.7)
    np.testing.assert_array_equal(w.lora, [0.5, 0.5])
    w2 = fed.fedavgw_weights([118, 34742], beta=0.5)
    np.testing.assert_allclose(w2.lora, [0.9449, 0.0551], atol=5e-5)
    w3 = fed.fedavgw_weights([10 * (i + 1) for i in range(4)], beta=0.0)
    np.testing.assert_allclose(w3.lora, 0.25, atol=1e-15)
    for beta in (-0.1, float("nan"), float("inf")):  # checked once, by the run's config
        with pytest.raises(ValueError, match=f"^beta: must be a finite number >= 0, got {beta}$"):
            fed_cfg(aggregator="fedavgw", beta=beta)


def test_fedavgw_weights_reject_a_beta_that_underflows():
    """A beta at which (1/n_k)^beta is 0 for every client has no weights to normalize; one
    at which only the larger clients' underflow gives them LoRA weight 0."""
    with pytest.raises(fed.FederationError, match=r"^fedavgw beta 150\.0 underflows: .*"
                                                  r"\(smallest n_k 200\)$"):
        fed.fedavgw_weights([300, 200, 250], 150.0)
    np.testing.assert_array_equal(fed.fedavgw_weights([100, 300], 150.0).lora, [1.0, 0.0])


def test_weights_sum_to_one_and_monotone():
    ns = [3, 917, 40, 40, 12000]
    for beta in (0.0, 0.1, 0.5, 1.0):
        w = fed.fedavgw_weights(ns, beta)
        assert abs(w.standard.sum() - 1) <= 1e-12
        assert abs(w.lora.sum() - 1) <= 1e-12
        if beta > 0:
            for i in range(len(ns)):
                for j in range(len(ns)):
                    if ns[i] < ns[j]:
                        assert w.lora[i] > w.lora[j]


def test_equal_sizes_fedavgw_equals_fedavg_bitwise():
    sizes = [77] * 10
    for beta in (0.0, 0.1, 0.5, 1.0):
        a = fed.fedavg_weights(sizes)
        b = fed.fedavgw_weights(sizes, beta)
        assert a.standard.tobytes() == b.lora.tobytes() == b.standard.tobytes()


def test_aggregate_simple_and_identity():
    updates = [upd(0, [[2.0]]), upd(1, [[0.0]])]
    out = aggregated(updates, fed.fedavg_weights([1, 1]))
    assert out["g0"][0] == 1.0
    same = [upd(0, [[3.0, 4.0]]), upd(1, [[3.0, 4.0]])]
    out2 = aggregated(same, fed.fedavg_weights([5, 9]))
    np.testing.assert_array_equal(out2["g0"], [3.0, 4.0])


def test_aggregate_matches_brute_force():
    rng = np.random.default_rng(0)
    updates, sizes = [], []
    for cid in range(3):
        vals = [rng.standard_normal((2, 3)), rng.standard_normal(4)]
        sizes.append(int(rng.integers(1, 100)))
        updates.append(upd(cid, vals, lora_flags=(False, True)))
    w = fed.fedavgw_weights(sizes, beta=0.5)
    out = aggregated(updates, w)
    for gi, group in enumerate(updates[0].params):
        wvec = w.lora if group.lora else w.standard
        brute = np.zeros_like(group.tensor)
        for k in range(3):
            brute += wvec[k] * list(updates[k].params)[gi].tensor
        assert out[group.name].tobytes() == brute.tobytes()


def test_aggregate_nonlora_groups_bitwise_equal_pure_fedavg():
    rng = np.random.default_rng(1)
    updates, sizes = [], []
    for cid in range(4):
        vals = [rng.standard_normal(5), rng.standard_normal((2, 2))]
        sizes.append(int(rng.integers(1, 1000)))
        updates.append(upd(cid, vals, lora_flags=(False, True)))
    pure = aggregated(updates, fed.fedavg_weights(sizes))
    mixed = aggregated(updates, fed.fedavgw_weights(sizes, beta=0.5))
    assert pure["g0"].tobytes() == mixed["g0"].tobytes()
    assert pure["g1"].tobytes() != mixed["g1"].tobytes()


def test_aggregate_returns_a_read_only_finite_vector():
    """The average is checked once, where it is made; an update that holds a NaN (no
    optimizer step lets one through) makes a non-finite average."""
    updates = [upd(0, [[1.0, 2.0]]), upd(1, [[3.0, 4.0]])]
    out = fed.aggregate(updates, fed.fedavg_weights([1, 1]))
    assert out.tolist() == [2.0, 3.0] and not out.flags.writeable
    nan = updates[1].params.with_vector(np.array([np.nan, 4.0]))
    with pytest.raises(nk.NumericError, match="^non-finite aggregated parameters$"):
        fed.aggregate([updates[0], fed.ClientUpdate(1, nan)], fed.fedavg_weights([1, 1]))


DESK = td.generate_synthetic(td.SyntheticSpec(
    num_classes=4, vocab_size=60, train_docs_per_class=30, test_docs_per_class=10,
    doc_length=8, topic_concentration=0.05, seed=21))
CNN_CFG = TextCnnConfig(num_classes=4, embed_dim=8, filters_per_width=6)
cnn_step = build_loss_and_grad("textcnn", CNN_CFG)
OPT = fed.OptimizerCfg("sgd", lr=0.1)


def fed_cfg(**kw):
    base = dict(rounds=2, local_epochs=1, batch_size=16, optimizer=OPT, seed=7)
    base.update(kw)
    return fed.FedConfig(**base)


def test_local_train_zero_lr_like_identity():
    params, forward = build_model("textcnn", CNN_CFG, DESK.vocabulary.size,
                                  DESK.max_seq_len, seed=0)
    part = ClientPartition(0, list(range(20)), [20, 0, 0, 0])
    out = fed.local_train(params, cnn_step, part, DESK,
                          fed_cfg(optimizer=fed.OptimizerCfg("sgd", lr=1e-300), batch_size=8,
                                  seed=1), round_index=1)
    for a, b in zip(params, out.params):
        np.testing.assert_allclose(a.tensor, b.tensor, atol=1e-290)


def test_local_train_empty_client():
    params, forward = build_model("textcnn", CNN_CFG, DESK.vocabulary.size,
                                  DESK.max_seq_len, seed=0)
    part = ClientPartition(3, [], [0, 0, 0, 0])
    out = fed.local_train(params, cnn_step, part, DESK,
                          fed_cfg(local_epochs=2, batch_size=8, seed=1), round_index=1)
    for a, b in zip(params, out.params):
        assert np.array_equal(a.tensor, b.tensor)


def test_local_train_deterministic_and_improves_own_class():
    params, forward = build_model("textcnn", CNN_CFG, DESK.vocabulary.size,
                                  DESK.max_seq_len, seed=0)
    labels = DESK.train.labels.tolist()
    own = [i for i, l in enumerate(labels) if l == 2][:25]
    part = ClientPartition(0, own, [0, 0, 25, 0])
    cfg = fed_cfg(local_epochs=3, batch_size=8, seed=5)
    a = fed.local_train(params, cnn_step, part, DESK, cfg, round_index=2)
    b = fed.local_train(params, cnn_step, part, DESK, cfg, round_index=2)
    for ga, gb in zip(a.params, b.params):
        assert np.array_equal(ga.tensor, gb.tensor)

    def own_acc(pset):
        docs = DESK.train.take(own)
        batch = td.make_batches(docs, len(docs), 0)[0]
        preds = forward(pset, batch.token_ids).argmax(axis=1)
        return (preds == batch.labels).mean()

    assert own_acc(a.params) > own_acc(params)


def test_single_client_round_equals_centralized():
    parts = dirichlet_partition(DESK, PartitionConfig(1, 1.0, seed=3))
    cfg = fed_cfg(rounds=1)
    logs, final = fed.run_federation(DESK, parts, "textcnn", CNN_CFG, cfg)
    params, forward = build_model("textcnn", CNN_CFG, DESK.vocabulary.size,
                                  DESK.max_seq_len, seed=7)
    manual = fed.local_train(params, cnn_step, parts[0], DESK, cfg, round_index=1)
    for a, b in zip(final, manual.params):
        assert np.array_equal(a.tensor, b.tensor)
    assert len(logs) == 1 and len(logs[0].evals) == 1


def test_frozen_backbone_immutable_across_rounds(monkeypatch):
    lf = LoraFormerConfig(num_classes=4, layers=1, d_model=8, heads=2, ffn_dim=16,
                          lora_rank=2, lora_dropout=0.0)
    parts = dirichlet_partition(DESK, PartitionConfig(3, 1.0, seed=5))
    cfg = fed_cfg(optimizer=fed.OptimizerCfg("adamw", lr=0.01, weight_decay=0.01))
    logs, final = fed.run_federation(DESK, parts, "loraformer", lf, cfg)
    initial, _ = build_loraformer(lf, DESK.vocabulary.size, DESK.max_seq_len, seed=7)
    for g0, gT in zip(initial, final):
        if not g0.trainable:
            assert g0.tensor.tobytes() == gT.tensor.tobytes()
    assert any(not np.array_equal(g0.tensor, gT.tensor)
               for g0, gT in zip(initial, final) if g0.trainable)

    # frozen groups never leave the server: updates carry only the trainable
    # groups, and the final params hold the very tensors passed in
    updates = []
    real = fed.local_train

    def recording(*args, **kwargs):
        updates.append(real(*args, **kwargs))
        return updates[-1]

    monkeypatch.setattr(fed, "local_train", recording)
    _, final = fed.run_federation(DESK, parts, "loraformer", lf, cfg, initial_params=initial)
    for g0, gT in zip(initial, final):
        if not g0.trainable:
            assert gT.tensor is g0.tensor
    assert len(updates) == cfg.rounds * len(parts)
    for u in updates:
        assert [g.name for g in u.params] == [g.name for g in initial if g.trainable]


def test_iid_partition_small_gap_textcnn():
    parts = dirichlet_partition(DESK, PartitionConfig(4, 5.0, seed=13))
    cfg = fed_cfg(rounds=6, local_epochs=3, optimizer=fed.OptimizerCfg("sgd", lr=0.3))
    logs, _ = fed.run_federation(DESK, parts, "textcnn", CNN_CFG, cfg)
    assert logs[-1].summary.gap < 0.10


def test_local_train_update_is_read_only():
    params, forward = build_model("textcnn", CNN_CFG, DESK.vocabulary.size,
                                  DESK.max_seq_len, seed=0)
    part = ClientPartition(1, list(range(20)), [20, 0, 0, 0])
    out = fed.local_train(params, cnn_step, part, DESK, fed_cfg(batch_size=8, seed=1),
                          round_index=1)
    for g in out.params:
        assert g.tensor.base is out.params.vector
        for arr in (g.tensor, g.tensor.base):  # the view and the trained vector
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0.0


def test_local_train_nan_gradient_names_client_and_round():
    params, _ = build_model("textcnn", CNN_CFG, DESK.vocabulary.size, DESK.max_seq_len, seed=0)

    def nan_step(params, token_ids, labels, rng, grads):
        loss = cnn_step(params, token_ids, labels, rng, grads)
        grads["fc.bias"][0] = np.nan
        return loss

    part = ClientPartition(4, list(range(20)), [20, 0, 0, 0])
    want = r"^client 4, round 3: non-finite gradient for 'fc.bias'$"
    with pytest.raises(fed.FederationError, match=want):
        fed.local_train(params, nan_step, part, DESK, fed_cfg(batch_size=8, seed=1),
                        round_index=3)


@pytest.mark.parametrize("split", ["train", "test"])
@pytest.mark.parametrize("family", ["textcnn", "loraformer"])
@pytest.mark.parametrize("corrupt,error,message", [
    ("token_ids", nk.ShapeError, "embedding id out of range"),
    ("labels", nk.ContractError, "label out of range")])
def test_run_federation_checks_both_splits_before_any_client_trains(
        split, family, corrupt, error, message, monkeypatch):
    """The train and test splits are checked once, before round 1: one id past the
    vocabulary or one label past the classes, in the last row of either, raises before
    any client trains."""
    model_cfg = CNN_CFG if family == "textcnn" else LoraFormerConfig(
        num_classes=4, layers=1, d_model=8, heads=2, ffn_dim=16, lora_rank=2)
    parts = dirichlet_partition(DESK, PartitionConfig(3, 1.0, seed=5))
    real, calls = fed.local_train, []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(fed, "local_train", spy)
    fed.run_federation(DESK, parts, family, model_cfg, fed_cfg(rounds=1))
    assert len(calls) == len(parts)  # the spy sees every client round
    rows = getattr(DESK, split)
    arrays = {"token_ids": rows.token_ids.copy(), "labels": rows.labels.copy()}
    arrays[corrupt][-1, ...] = DESK.vocabulary.size if corrupt == "token_ids" else 4
    bad = replace(DESK, **{split: td.Split(**arrays)})
    calls.clear()
    with pytest.raises(error, match=f"^{message}$"):
        fed.run_federation(bad, parts, family, model_cfg, fed_cfg(rounds=1))
    assert calls == []


@pytest.mark.parametrize("aggregator,rule", [("fedavg", "fedavg_weights"),
                                             ("fedavgw", "fedavgw_weights")])
def test_run_federation_computes_its_weights_once(aggregator, rule, monkeypatch):
    """The weights are a per-run value: one call of the aggregator's rule before round 1,
    with the sizes of the clients with data in client-id order, whatever the partition
    order."""
    parts = dirichlet_partition(DESK, PartitionConfig(3, 1.0, seed=5))
    empty = ClientPartition(3, [], [0, 0, 0, 0])
    real, calls = getattr(fed, rule), []

    def spy(sizes, *args):
        calls.append(list(sizes))
        return real(sizes, *args)

    monkeypatch.setattr(fed, rule, spy)
    logs, _ = fed.run_federation(DESK, [empty, *parts[::-1]], "textcnn", CNN_CFG,
                                 fed_cfg(rounds=3, aggregator=aggregator, beta=0.5))
    sizes = [p.size for p in sorted(parts, key=lambda p: p.client_id)]
    assert calls == [sizes]
    assert [log.client_sizes for log in logs] == [sizes] * 3


@pytest.mark.parametrize("aggregator", ["fedavg", "fedavgw"])
def test_run_federation_without_data_raises_before_any_weight(aggregator, monkeypatch):
    """With every partition empty there is no client to weight: `run_federation` raises
    before it calls a weight rule, so neither rule is ever given an empty client."""
    def no_weights(*args):
        raise AssertionError(f"weights computed for {args}")

    monkeypatch.setattr(fed, "fedavg_weights", no_weights)
    monkeypatch.setattr(fed, "fedavgw_weights", no_weights)
    empty = [ClientPartition(k, [], [0, 0, 0, 0]) for k in range(3)]
    with pytest.raises(fed.FederationError, match="^no client has data$"):
        fed.run_federation(DESK, empty, "textcnn", CNN_CFG,
                           fed_cfg(rounds=1, aggregator=aggregator, beta=0.5))


def test_run_federation_does_not_depend_on_partition_order():
    parts = dirichlet_partition(DESK, PartitionConfig(4, 0.5, seed=9))
    cfg = fed_cfg(rounds=2, aggregator="fedavgw", beta=0.5)
    logs, final = fed.run_federation(DESK, parts, "textcnn", CNN_CFG, cfg)
    logs_rev, final_rev = fed.run_federation(DESK, parts[::-1], "textcnn", CNN_CFG, cfg)
    assert logs_rev == logs
    assert [g.tensor.tobytes() for g in final_rev] == [g.tensor.tobytes() for g in final]


def test_run_federation_takes_initial_params_of_the_models_layout():
    """`initial_params` of an equal layout start the run; one of another model, of other
    shapes or of other flags is rejected before any client trains."""
    parts = dirichlet_partition(DESK, PartitionConfig(3, 1.0, seed=5))
    built, _ = build_model("textcnn", CNN_CFG, DESK.vocabulary.size, DESK.max_seq_len, seed=7)
    start = built.with_vector(np.full(built.vector.shape, 0.01))
    logs, _ = fed.run_federation(DESK, parts, "textcnn", CNN_CFG, fed_cfg(rounds=1),
                                 initial_params=start)
    default, _ = fed.run_federation(DESK, parts, "textcnn", CNN_CFG, fed_cfg(rounds=1))
    assert logs != default  # the run started from `start`, not from the built model
    other_vocab, _ = build_model("textcnn", CNN_CFG, DESK.vocabulary.size + 1,
                                 DESK.max_seq_len, seed=7)
    frozen_head = build_params("textcnn", [g._replace(trainable=not g.name.startswith("fc."))
                                           for g in built])
    for wrong in (other_vocab, frozen_head):
        with pytest.raises(StructuralError, match="^initial_params do not have the model's "
                                                  "layout$"):
            fed.run_federation(DESK, parts, "textcnn", CNN_CFG, fed_cfg(rounds=1),
                               initial_params=wrong)
