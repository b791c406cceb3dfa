"""The benchmark's output checks accept valid sweep outputs and reject corrupted ones."""

import copy
import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NUM_CLASSES, TRAIN_PER_CLASS, TEST_PER_CLASS, ROUNDS = 2, 3, 4, 2


def valid_manifest():
    # train documents 0-2 are class 0, 3-5 class 1
    return {"clients": [
        {"client_id": 0, "indices": [0, 1, 3], "label_histogram": [2, 1]},
        {"client_id": 1, "indices": [2], "label_histogram": [1, 0]},
        {"client_id": 2, "indices": [4, 5], "label_histogram": [0, 2]},
    ]}


def valid_rows():
    """Rows as `metrics.write_rounds_csv` writes them, summaries computed by hand."""
    correct = {1: [5, 2, 3], 2: [6, 4, 4]}
    eval_sizes = [8, 4, 4]
    sizes = [3, 1, 2]
    rows = []
    for t, counts in correct.items():
        accs = [c / e for c, e in zip(counts, eval_sizes)]
        avg = sum(accs) / len(accs)
        worst = min(accs)
        argmin = accs.index(worst)
        for k in range(3):
            rows.append({"round": str(t), "client_id": str(k), "n_k": str(sizes[k]),
                         "eval_size": str(eval_sizes[k]), "accuracy": repr(accs[k]),
                         "avg_acc": repr(avg), "worst_acc": repr(worst),
                         "gap": repr(avg - worst), "argmin_client": str(argmin)})
    return rows


def rounds_errors(rows, manifest=None, above_chance=True):
    return checks.check_rounds(rows, manifest or valid_manifest(), NUM_CLASSES,
                               TEST_PER_CLASS, ROUNDS, above_chance)


def partition_errors(manifest):
    return checks.check_partition(manifest, NUM_CLASSES, TRAIN_PER_CLASS, num_clients=3)


def test_valid_outputs_pass():
    assert partition_errors(valid_manifest()) == []
    assert rounds_errors(valid_rows()) == []


def test_gap_not_avg_minus_worst_rejected():
    rows = valid_rows()
    for r in rows:
        if r["round"] == "2":
            r["gap"] = repr(float(r["gap"]) + 1e-6)
    assert any("summary" in e for e in rounds_errors(rows))


def test_eval_size_off_by_one_rejected():
    rows = valid_rows()
    rows[1]["eval_size"] = str(int(rows[1]["eval_size"]) + 1)
    assert any("eval_size" in e for e in rounds_errors(rows))


def test_client_missing_from_round_rejected():
    rows = [r for r in valid_rows() if not (r["round"] == "2" and r["client_id"] == "1")]
    assert any("clients" in e for e in rounds_errors(rows))


def test_overlapping_partition_indices_rejected():
    manifest = valid_manifest()
    manifest["clients"][1]["indices"] = [1]  # client 0 holds document 1 too
    assert any("shares indices" in e for e in partition_errors(manifest))


def test_partition_gaps_and_histograms_rejected():
    manifest = valid_manifest()
    manifest["clients"][2]["indices"] = [4]
    assert partition_errors(manifest)
    manifest = valid_manifest()
    manifest["clients"][0]["label_histogram"] = [3, 0]
    assert any("per-class" in e for e in partition_errors(manifest))


def test_n_k_accuracy_and_argmin_rejected():
    rows = valid_rows()
    rows[2]["n_k"] = "3"
    assert any("n_k" in e for e in rounds_errors(rows))
    rows = valid_rows()
    rows[0]["accuracy"] = repr(0.6)  # 0.6 * 8 is not a whole count
    assert any("accuracy" in e for e in rounds_errors(rows))
    rows = valid_rows()
    for r in rows:
        r["argmin_client"] = "0"
    assert any("summary" in e for e in rounds_errors(rows))


def test_final_round_at_chance_rejected():
    rows = valid_rows()
    # every client right on half its documents: accuracy 0.5 = chance for 2 classes
    for r in rows:
        es = int(r["eval_size"])
        r.update(accuracy=repr((es // 2) / es), avg_acc=repr(0.5), worst_acc=repr(0.5),
                 gap=repr(0.0), argmin_client="0")
    assert any("chance" in e for e in rounds_errors(rows))
    assert rounds_errors(rows, above_chance=False) == []


def test_planned_cells_cross_product():
    cfg = workloads.sweep_config("lora-pretrained-par", 3, "out")
    assert checks.planned_cells(cfg) == [
        ("loraformer", 0.1, "fedavg", 0.0), ("loraformer", 0.1, "fedavgw", 0.5),
        ("loraformer", 0.5, "fedavg", 0.0), ("loraformer", 0.5, "fedavgw", 0.5)]


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    dump = {"spans": [], "test_class_counts": {}}
    layer_names = set(tracer.layer_metrics(dump)) | {"trace.sweep_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    assert {m["name"] for m in spec["end_to_end"]} == {"sweep_s", "setup_s", "peak_rss_mb"}


@pytest.fixture(scope="module")
def tiny_sweep(tmp_path_factory):
    """A real two-round sweep through the public CLI on a tiny corpus."""
    tmp = tmp_path_factory.mktemp("tiny")
    cfg = workloads.sweep_config("cnn-skew", 5, str(tmp / "out"))
    cfg["dataset"]["synthetic"].update(vocab_size=40, train_docs_per_class=20,
                                       test_docs_per_class=5, doc_length=6)
    cfg["partition"].update(num_clients=3, alpha=[5.0])
    cfg["federation"].update(rounds=2, local_epochs=1)
    cfg["federation"]["optimizer"]["textcnn"]["lr"] = 0.5
    cfg_path = tmp / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    src = HERE.parent / "src"
    subprocess.run([sys.executable, "-m", "fedskew.cli", "run", str(cfg_path)], check=True,
                   env={"PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
                   capture_output=True, timeout=120)
    return cfg, tmp / "out"


def test_real_sweep_outputs_pass_and_corruption_fails(tiny_sweep):
    cfg, out = tiny_sweep
    result = checks.check_sweep(out, cfg)
    assert result.errors == [] and result.failed == 0 and len(result.rounds_csv) == 1
    run_dir = next(out.glob("*/rounds.csv")).parent
    raw = (run_dir / "rounds.csv").read_text()
    rows = list(csv.DictReader(io.StringIO(raw)))
    manifest = json.loads((run_dir / "partition.json").read_text())
    broken = copy.deepcopy(rows)
    broken[0]["eval_size"] = str(int(broken[0]["eval_size"]) - 1)
    assert checks.check_rounds(broken, manifest, 4, 5, 2)
