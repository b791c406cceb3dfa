"""The names that the benchmark in `perfbench/` looks up in the package resolve.

`perfbench/tracer.py` wraps functions where their callers look them up, and
`perfbench/setup_probe.py` times the set-up calls of a sweep; a rename in `src/` that
drops one of those names fails here, not only in the benchmark's own runs.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from fedskew import cli
from fedskew.models import build_textcnn

ROOT = Path(__file__).resolve().parents[1]
ROUNDS, ALPHAS = 2, [0.5, 1.0]

PROBE = """
import sys
import setup_probe, tracer
tracer.Tracer().install()
sys.exit(setup_probe.main(["setup_probe.py", sys.argv[1]]))
"""


def tiny_config(tmp_path) -> Path:
    """A TextCNN sweep of 2 clients, `ROUNDS` rounds and the alphas `ALPHAS`."""
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "seed": 3, "out_dir": str(tmp_path / "out"),
        "dataset": {"synthetic": {"num_classes": 2, "vocab_size": 20, "train_docs_per_class": 8,
                                  "test_docs_per_class": 4, "doc_length": 5,
                                  "topic_concentration": 0.5, "seed": 3}},
        "models": ["textcnn"],
        "partition": {"num_clients": 2, "alpha": ALPHAS},
        "federation": {"rounds": ROUNDS, "optimizer": {"textcnn": {"kind": "sgd", "lr": 0.1}},
                       "aggregators": ["fedavg"]}}))
    return config


def run_with_benchmark_path(argv, tmp_path):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    out = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    return out


def test_tracer_installs_and_setup_probe_runs(tmp_path):
    config = tiny_config(tmp_path)
    out = run_with_benchmark_path([sys.executable, "-c", PROBE, str(config)], tmp_path)
    probe = json.loads(out.stdout)
    assert Path(probe["fedskew_cli"]).resolve() == ROOT / "src" / "fedskew" / "cli.py"
    assert all(probe[k] >= 0 for k in ("import_s", "parse_s", "load_dataset_s", "partition_s"))


def test_traced_sweep_reads_every_update_and_aggregation(tmp_path):
    """The per-layer metrics that `perfbench/tracer.py` reads off `federation.local_train`'s
    updates and `federation.aggregate`: one call per client with data per round per alpha,
    8 bytes per trainable TextCNN parameter in each update, and no frozen byte."""
    config, spans = tiny_config(tmp_path), tmp_path / "spans.json"
    run_with_benchmark_path([sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(config),
                             "--jobs", "1", "--spans", str(spans)], tmp_path)
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    dump = json.loads(spans.read_text(encoding="utf-8"))
    calls, metrics = tracer.summarize(dump), tracer.layer_metrics(dump)

    manifests = sorted((tmp_path / "out").glob("*/partition.json"))
    assert len(manifests) == len(ALPHAS)
    with_data = sum(sum(1 for c in json.loads(m.read_text(encoding="utf-8"))["clients"]
                        if c["indices"]) for m in manifests)
    parsed = cli.parse_config(config)
    dataset = parsed.load_dataset()
    params, _ = build_textcnn(parsed.model_cfgs["textcnn"], dataset.vocabulary.size,
                              dataset.max_seq_len, seed=0)
    trainable = sum(g.tensor.size for g in params if g.trainable)
    train_calls = with_data * ROUNDS
    assert metrics["federation.local_train_calls"] == train_calls
    assert metrics["federation.update_bytes"] == train_calls * 8 * trainable
    assert metrics["federation.update_trainable_ratio"] == 1.0
    assert calls["federation.aggregate"]["calls"] == ROUNDS * len(ALPHAS)
