"""The benchmark's workloads: sweep configs generated from a seed.

Every workload uses the desk corpus of `tests/test_acceptance.py::desk_config`
(4 classes, 500-word vocabulary, 500 train and 200 test documents per class,
16 tokens each, 10 clients) and differs in model, skew, aggregators and
run-level parallelism, so that each stresses a different layer.

Print the config the benchmark writes for a workload and seed:

    python3 perfbench/workloads.py cnn-skew 1
"""

import json
import sys

WORKLOADS = {
    # Local training dominates: autograd backward, conv1d_valid, re-batching
    # every one of 5 local epochs.  Evaluation is a small share.  Two rounds
    # keep a sweep near a second, so that a run holds dozens of them.  At
    # lr 0.15 (the desk's is 0.015) the final average beats chance on 96 of
    # 100 seeds after 2 rounds; the step count, so the work, does not depend
    # on the rate.
    "cnn-skew": {
        "models": ["textcnn"],
        "alpha": [0.1],
        "aggregators": ["fedavg"],
        "rounds": 2,
        "jobs": 1,
        "textcnn_lr": 0.15,
    },
    # The only workload that pretrains the backbone, runs two sweep cells at a
    # time, and includes the paper's extreme-skew level alpha = 0.1.  Its
    # alpha = 0.5 cells, where most clients hold most classes, make evaluation
    # a large share, and its two aggregators cover both weight rules and the
    # frozen-group compare-and-copy in `aggregate`.
    "lora-pretrained-par": {
        "models": ["loraformer"],
        "alpha": [0.1, 0.5],
        "aggregators": ["fedavg", "fedavgw:0.5"],
        "rounds": 2,
        "jobs": 2,
        "backbone_mode": "pretrained-frozen",
    },
}


def sweep_config(workload: str, seed: int, out_dir: str) -> dict:
    """The `fedskew run` config of `workload`; `seed` drives corpus, partition and training."""
    w = WORKLOADS[workload]
    loraformer = {"layers": 1, "d_model": 16, "heads": 2, "ffn_dim": 32,
                  "lora_rank": 4, "lora_dropout": 0.0}
    if "backbone_mode" in w:
        loraformer["backbone_mode"] = w["backbone_mode"]
    return {
        "seed": seed,
        "out_dir": out_dir,
        "dataset": {"synthetic": {
            "num_classes": 4, "vocab_size": 500, "train_docs_per_class": 500,
            "test_docs_per_class": 200, "doc_length": 16,
            "topic_concentration": 0.05, "seed": seed}},
        "models": list(w["models"]),
        "textcnn": {"embed_dim": 16, "filters_per_width": 8},
        "loraformer": loraformer,
        "partition": {"num_clients": 10, "alpha": list(w["alpha"])},
        "federation": {"rounds": w["rounds"], "batch_size": 32,
                       "local_epochs": {"textcnn": 5, "loraformer": 1},
                       "optimizer": {"textcnn": {"kind": "sgd",
                                                 "lr": w.get("textcnn_lr", 0.015)},
                                     "loraformer": {"kind": "adamw", "lr": 0.01,
                                                    "weight_decay": 0.01}},
                       "aggregators": list(w["aggregators"])},
    }


if __name__ == "__main__":
    print(json.dumps(sweep_config(sys.argv[1], int(sys.argv[2]), "out"), indent=1))
