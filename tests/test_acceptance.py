"""Acceptance gate: end-to-end behavioral criteria for the whole package.

Each test covers one numbered criterion and prints a single summary line.
The desk-scale experiment (criteria 7-9) uses a fixed sweep config shared
through a session fixture so the suite stays within its runtime budget.
"""

import json
import time

import numpy as np
import pytest

from fedskew import cli
from fedskew import federation as fed
from fedskew import metrics as mt
from fedskew import numkit as nk
from fedskew import textdata as td
from fedskew.models import (
    LoraFormerConfig,
    TextCnnConfig,
    build_loraformer,
    build_textcnn,
    loraformer,
    merge_lora,
    textcnn,
)
from fedskew.models.params import ParamSet
from fedskew.partition import PartitionConfig, dirichlet_partition

from gradcheck import finite_diff_check, step_fd_check
from test_numkit_ops import OP_CASES


def note(num, msg):
    print(f"[PASS] criterion {num}: {msg}")


# ---------------------------------------------------------------------------
# 1. gradient correctness, every op + both full models, < 30 s
# ---------------------------------------------------------------------------


def test_criterion_01_gradient_correctness():
    start = time.perf_counter()
    for name, make, fn in OP_CASES:
        for seed in range(5):
            rng = np.random.default_rng(7000 + seed)
            finite_diff_check(fn, make(rng), h=1e-5, rtol=1e-4)

    # each model's training step, dropout on, against its own loss
    cnn_cfg = TextCnnConfig(num_classes=4, embed_dim=6, filters_per_width=5)
    for seed in range(5):
        params, _ = build_textcnn(cnn_cfg, vocab_size=30, max_seq_len=10, seed=seed)
        rng = np.random.default_rng(7100 + seed)
        ids = rng.integers(2, 30, size=(2, 10))
        ids[:, -2:] = td.PAD_ID
        labels = rng.integers(0, 4, size=2)
        head = rng.normal(0, 0.3, params.get("fc.weight").tensor.shape)
        params = params.with_tensors({"fc.weight": nk.Tensor(head)})
        step_fd_check(textcnn.make_loss_and_grad(cnn_cfg), params, ids, labels, seed=seed)

    lf_cfg = LoraFormerConfig(num_classes=3, layers=1, d_model=4, heads=2, ffn_dim=6,
                              lora_rank=2, lora_dropout=0.1)
    for seed in range(5):
        params, _ = build_loraformer(lf_cfg, 12, 5, seed=seed)
        rng = np.random.default_rng(7200 + seed)
        noisy = {g.name: nk.Tensor(rng.normal(0, 0.3, g.tensor.shape))
                 for g in params if g.trainable}
        params = params.with_tensors(noisy)
        ids = rng.integers(2, 12, size=(2, 5))
        labels = rng.integers(0, 3, size=2)
        step_fd_check(loraformer.make_loss_and_grad(lf_cfg), params, ids, labels, seed=seed)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s"
    note(1, f"all ops + both models' training steps pass finite-difference checks in "
            f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. aggregation algebra
# ---------------------------------------------------------------------------


def _updates(ns, values=None, lora_flags=None, trainable_flags=None):
    from fedskew.models.params import ParamGroup
    out = []
    for cid, n in enumerate(ns):
        vals = values[cid] if values else [np.zeros(1)]
        lf = lora_flags or [False] * len(vals)
        tf = trainable_flags or [True] * len(vals)
        groups = [ParamGroup(f"g{i}", nk.Tensor(np.asarray(v, dtype=float)), t, l)
                  for i, (v, l, t) in enumerate(zip(vals, lf, tf))]
        out.append(fed.ClientUpdate(cid, n, ParamSet(groups, "toy")))
    return out


def test_criterion_02_aggregation_algebra():
    rng = np.random.default_rng(0)
    ns = [3, 917, 40, 40, 12000]
    ups = _updates(ns)
    # (a) weights sum to 1 within 1e-12
    for beta in (0.0, 0.1, 0.5, 1.0):
        w = fed.fedavgw_weights(ups, beta)
        assert abs(w.standard.sum() - 1.0) <= 1e-12
        assert abs(w.lora.sum() - 1.0) <= 1e-12
    assert abs(fed.fedavg_weights(ups).standard.sum() - 1.0) <= 1e-12
    # (b) equal n_k => FedAvgW == FedAvg exactly
    eq = _updates([55] * 8)
    for beta in (0.0, 0.1, 0.5, 1.0):
        assert (fed.fedavgw_weights(eq, beta).lora.tobytes()
                == fed.fedavg_weights(eq).standard.tobytes())
    # (c) beta > 0 => strict inverse-size monotonicity
    for beta in (0.1, 0.5, 1.0):
        w = fed.fedavgw_weights(ups, beta).lora
        for i in range(len(ns)):
            for j in range(len(ns)):
                if ns[i] < ns[j]:
                    assert w[i] > w[j]
    # (d) aggregate matches a brute-force weighted sum exactly
    for trial in range(5):
        vals = [[rng.standard_normal((2, 3)), rng.standard_normal(4)] for _ in range(3)]
        ups3 = _updates([int(rng.integers(1, 500)) for _ in range(3)], vals,
                        lora_flags=[False, True])
        w = fed.fedavgw_weights(ups3, beta=0.5)
        out = fed.aggregate(ups3, w)
        for gi, wvec in ((0, w.standard), (1, w.lora)):
            brute = np.zeros_like(vals[0][gi])
            for k in range(3):
                brute += wvec[k] * vals[k][gi]
            assert np.array_equal(out.groups[gi].tensor.data, brute)
    # (e) non-lora groups under FedAvgW bitwise equal pure FedAvg
    vals = [[rng.standard_normal(6), rng.standard_normal((2, 2))] for _ in range(4)]
    ups4 = _updates([int(rng.integers(1, 1000)) for _ in range(4)], vals,
                    lora_flags=[False, True])
    pure = fed.aggregate(ups4, fed.fedavg_weights(ups4))
    mixed = fed.aggregate(ups4, fed.fedavgw_weights(ups4, beta=0.5))
    assert pure.groups[0].tensor.data.tobytes() == mixed.groups[0].tensor.data.tobytes()
    note(2, "weight normalization, equal-size identity, monotonicity, brute-force match")


def test_criterion_03_fedavg_weight_ratio():
    w = fed.fedavg_weights(_updates([118, 34742]))
    ratio = w.standard[1] / w.standard[0]
    assert ratio == pytest.approx(294.4, abs=0.1)
    note(3, f"n=[118, 34742] weight ratio {ratio:.1f} == 294.4 +/- 0.1")


# ---------------------------------------------------------------------------
# 4. dirichlet partitioner statistics over 200 seeds, < 60 s
# ---------------------------------------------------------------------------


def test_criterion_04_partitioner_statistics():
    start = time.perf_counter()
    dataset = td.generate_synthetic(td.SyntheticSpec(
        num_classes=4, vocab_size=50, train_docs_per_class=2500,
        test_docs_per_class=2, doc_length=4, topic_concentration=1.0, seed=0))
    assert len(dataset.train) == 10_000
    n, K = len(dataset.train), 10

    def class_prop_variance(parts):
        per_client = []
        for p in parts:
            if p.size == 0:
                continue
            props = np.asarray(p.label_histogram, dtype=float) / p.size
            per_client.append(props.var())
        return float(np.mean(per_client))

    stats = {}
    for alpha in (0.1, 5.0):
        sizes, variances, extreme = [], [], 0
        for seed in range(200):
            parts = dirichlet_partition(dataset, PartitionConfig(K, alpha, seed))
            idx = sorted(i for p in parts for i in p.sample_indices)
            assert idx == list(range(n)), "partition not exhaustive/disjoint"
            sz = [p.size for p in parts]
            sizes.append(np.mean(sz))
            variances.append(class_prop_variance(parts))
            if max(sz) / max(min(sz), 1) >= 10:
                extreme += 1
        stats[alpha] = (np.mean(sizes), np.mean(variances), extreme)

    for alpha, (mean_size, _, _) in stats.items():
        assert abs(mean_size - n / K) / (n / K) < 0.02
    assert stats[0.1][1] > stats[5.0][1], "skew variance must grow as alpha shrinks"
    assert stats[0.1][2] >= 180, f"only {stats[0.1][2]}/200 extreme draws had ratio >= 10"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"partition suite took {elapsed:.1f}s"
    note(4, f"200-seed stats hold (extreme-ratio rate {stats[0.1][2]}/200) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. LoRA identities
# ---------------------------------------------------------------------------


def test_criterion_05_lora_identities():
    cfg = LoraFormerConfig(num_classes=4, layers=2, d_model=8, heads=2, ffn_dim=16,
                           lora_rank=2, lora_dropout=0.0)
    rng = np.random.default_rng(5)
    ids = rng.integers(2, 30, size=(4, 10))
    pa, forward = build_loraformer(cfg, 30, 10, seed=0, adapter_seed=111)
    pb, _ = build_loraformer(cfg, 30, 10, seed=0, adapter_seed=222)
    np.testing.assert_array_equal(forward(pa, ids), forward(pb, ids))

    noisy = {g.name: nk.Tensor(rng.normal(0, 0.2, g.tensor.shape)) for g in pa if g.lora}
    trained = pa.with_tensors(noisy)
    merged = merge_lora(trained, cfg)
    diff = np.abs(forward(merged, ids) - forward(trained, ids)).max()
    assert diff < 1e-5
    note(5, f"adapter-seed independence + merge preserves logits (max diff {diff:.2e})")


# ---------------------------------------------------------------------------
# 6. metric arithmetic on the published fairness tables
# ---------------------------------------------------------------------------

FAIRNESS_ROWS = [  # (avg%, worst%, gap%) for every published avg/worst/gap triple
    (86.6, 54.5, 32.2),
    (80.8, 30.7, 50.1),
    (95.6, 91.9, 3.7),
    (93.6, 92.3, 1.3),
    (94.9, 89.3, 5.6),
    (93.1, 93.1, 0.0),
    (97.8, 94.7, 3.1),
    (91.3, 91.3, 0.0),
    (78.3, 20.5, 57.8),
    (78.1, 19.6, 58.5),
    (77.2, 17.4, 59.8),
]


def ten_client_summary(avg, worst):
    """10 clients whose unweighted mean is `avg` and minimum is `worst`."""
    rest = (10 * avg - worst) / 9
    evals = [mt.ClientEval(i, 100000, int(round(rest * 100000))) for i in range(9)]
    evals.append(mt.ClientEval(9, 100000, int(round(worst * 100000))))
    return mt.fairness_summary(evals)


def test_criterion_06_fairness_table_arithmetic():
    for avg, worst, gap in FAIRNESS_ROWS:
        s = ten_client_summary(avg / 100, worst / 100)
        assert s.avg * 100 == pytest.approx(avg, abs=1e-3)
        assert s.worst * 100 == pytest.approx(worst, abs=1e-3)
        assert s.gap * 100 == pytest.approx(gap, abs=0.1), (avg, worst, gap)
    ratio = 32.2 / 3.7
    assert ratio == pytest.approx(8.7, abs=0.05)
    note(6, f"all {len(FAIRNESS_ROWS)} rows gap = avg - worst +/- 0.1; 32.2/3.7 = {ratio:.2f}")


# ---------------------------------------------------------------------------
# 7-9. desk-scale paradox sweep, FedAvgW harness, determinism
# ---------------------------------------------------------------------------


def desk_config(out_dir, aggregators=("fedavg",), alphas=(0.1, 5.0),
                models=("textcnn", "loraformer")):
    return {
        "seed": 42,
        "out_dir": str(out_dir),
        "dataset": {"synthetic": {
            "num_classes": 4, "vocab_size": 500, "train_docs_per_class": 500,
            "test_docs_per_class": 200, "doc_length": 16,
            "topic_concentration": 0.05, "seed": 42}},
        "models": list(models),
        "textcnn": {"embed_dim": 16, "filters_per_width": 8},
        "loraformer": {"layers": 1, "d_model": 16, "heads": 2, "ffn_dim": 32,
                       "lora_rank": 4, "lora_dropout": 0.0},
        "partition": {"num_clients": 10, "alpha": list(alphas)},
        "federation": {"rounds": 15, "batch_size": 32,
                       "local_epochs": {"textcnn": 5, "loraformer": 1},
                       "optimizer": {"textcnn": {"kind": "sgd", "lr": 0.015},
                                     "loraformer": {"kind": "adamw", "lr": 0.01,
                                                    "weight_decay": 0.01}},
                       "aggregators": list(aggregators)},
    }


@pytest.fixture(scope="session")
def desk_sweep(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("desk")
    cfg_path = out_dir / "config.json"
    cfg_path.write_text(json.dumps(desk_config(out_dir / "out")))
    start = time.perf_counter()
    parsed = cli.parse_config(cfg_path)
    summaries = cli.run_experiments(parsed, jobs=1)
    elapsed = time.perf_counter() - start
    return {"out": out_dir / "out", "config_path": cfg_path, "config": parsed,
            "summaries": summaries, "elapsed": elapsed}


def test_criterion_07_desk_paradox_shape(desk_sweep):
    summaries = desk_sweep["summaries"]
    assert all(s["status"] == "ok" for s in summaries)
    assert len(summaries) == 4  # 2 models x 2 alphas
    by_cell = {(s["config"]["model"], s["config"]["alpha"]): s["final"] for s in summaries}
    for model in ("textcnn", "loraformer"):
        skewed, iid = by_cell[(model, 0.1)], by_cell[(model, 5.0)]
        assert skewed["gap"] >= iid["gap"] + 0.10, (
            f"{model}: gap(0.1)={skewed['gap']:.3f} vs gap(5.0)={iid['gap']:.3f}")
        assert skewed["avg"] - skewed["worst"] >= 0.10, (
            f"{model}: avg-worst at alpha=0.1 is {skewed['avg'] - skewed['worst']:.3f}")
    assert desk_sweep["elapsed"] < 300.0, f"sweep took {desk_sweep['elapsed']:.0f}s"
    gaps = {k: f"{v['gap']:.3f}" for k, v in sorted(by_cell.items())}
    note(7, f"paradox shape holds for both models in {desk_sweep['elapsed']:.0f}s; gaps {gaps}")


def test_criterion_08_fedavgw_sweep_harness(tmp_path):
    # the lora model, so the inverse-size lora weights actually change something
    cfg = desk_config(tmp_path / "out", aggregators=("fedavg", "fedavgw:0.1", "fedavgw:0.5"),
                      alphas=(0.1,), models=("loraformer",))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    summaries = cli.run_experiments(cli.parse_config(cfg_path), jobs=1)
    assert len(summaries) == 3 and all(s["status"] == "ok" for s in summaries)
    manifests = {(tmp_path / "out" / s["run_id"] / "partition.json").read_bytes()
                 for s in summaries}
    assert len(manifests) == 1, "aggregator variants must share the identical partition"
    report = (tmp_path / "out" / "report.md").read_text()
    assert "Aggregator comparison: loraformer at alpha=0.1" in report
    assert "FedAvgW beta=0.1" in report and "FedAvgW beta=0.5" in report
    assert "delta (best FedAvgW vs FedAvg)" in report
    worst = {(s["config"]["aggregator"], s["config"]["beta"]): s["final"]["worst"]
             for s in summaries}
    direction = {f"beta={b}": f"{worst[('fedavgw', b)] - worst[('fedavg', 0.0)]:+.3f}"
                 for b in (0.1, 0.5)}
    note(8, f"3-aggregator sweep shares partitions; worst-acc delta vs FedAvg: {direction}")


def test_criterion_09_end_to_end_determinism(desk_sweep, tmp_path):
    base_out = desk_sweep["out"]
    run_ids = [s["run_id"] for s in desk_sweep["summaries"]]

    rerun_cfg = desk_config(tmp_path / "rerun")
    p1 = tmp_path / "rerun.json"
    p1.write_text(json.dumps(rerun_cfg))
    assert cli.main(["run", str(p1)]) == 0

    par_cfg = desk_config(tmp_path / "par")
    p2 = tmp_path / "par.json"
    p2.write_text(json.dumps(par_cfg))
    assert cli.main(["run", str(p2), "--jobs", "4"]) == 0

    for rid in run_ids:
        base = (base_out / rid / "rounds.csv").read_bytes()
        assert (tmp_path / "rerun" / rid / "rounds.csv").read_bytes() == base
        assert (tmp_path / "par" / rid / "rounds.csv").read_bytes() == base
    note(9, f"rerun and --jobs 4 byte-identical across {len(run_ids)} runs")


def test_criterion_10_convergence_rule():
    base = [0.5, 0.7, 0.8, 0.9, 0.92]
    fails = base + [0.930, 0.933, 0.931, 0.936, 0.930]   # final-5 spread 0.006
    passes = base + [0.930, 0.931, 0.9305, 0.9315, 0.9295]  # final-5 spread 0.002
    assert not mt.convergence_check(fails, window=5, tolerance=0.003)
    assert mt.convergence_check(passes, window=5, tolerance=0.003)
    note(10, "final-5-round spread rule: 0.006 fails, 0.002 passes at tolerance 0.003")
