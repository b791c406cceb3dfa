"""The names that the benchmark in `perfbench/` looks up in the package resolve.

`perfbench/tracer.py` wraps functions where their callers look them up, and
`perfbench/setup_probe.py` times the set-up calls of a sweep; a rename in `src/` that
drops one of those names fails here, not only in the benchmark's own runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import sys
import setup_probe, tracer
tracer.Tracer().install()
sys.exit(setup_probe.main(["setup_probe.py", sys.argv[1]]))
"""


def test_tracer_installs_and_setup_probe_runs(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "seed": 3, "out_dir": str(tmp_path / "out"),
        "dataset": {"synthetic": {"num_classes": 2, "vocab_size": 20, "train_docs_per_class": 8,
                                  "test_docs_per_class": 4, "doc_length": 5,
                                  "topic_concentration": 0.5, "seed": 3}},
        "models": ["textcnn"],
        "partition": {"num_clients": 2, "alpha": [0.5, 1.0]},
        "federation": {"rounds": 1, "optimizer": {"textcnn": {"kind": "sgd", "lr": 0.1}},
                       "aggregators": ["fedavg"]}}))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    out = subprocess.run([sys.executable, "-c", PROBE, str(config)], capture_output=True,
                         text=True, env=env, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    probe = json.loads(out.stdout)
    assert Path(probe["fedskew_cli"]).resolve() == ROOT / "src" / "fedskew" / "cli.py"
    assert all(probe[k] >= 0 for k in ("import_s", "parse_s", "load_dataset_s", "partition_s"))
