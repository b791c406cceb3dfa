"""Time a sweep's set-up through the public calls that do it, in a fresh process.

Set-up is the import of `fedskew.cli`, the config parse, the dataset build
and the Dirichlet partition for every alpha of the config.  Prints one JSON
object with the seconds of each step and the file `fedskew.cli` came from.

    python3 perfbench/setup_probe.py CONFIG
"""

import json
import sys
import time


def main(argv) -> int:
    t0 = time.perf_counter()
    from fedskew import cli
    from fedskew.partition import PartitionConfig, dirichlet_partition
    t1 = time.perf_counter()
    cfg = cli.parse_config(argv[1])
    t2 = time.perf_counter()
    dataset = cfg.load_dataset()
    t3 = time.perf_counter()
    for alpha in cfg.alphas:
        dirichlet_partition(dataset, PartitionConfig(cfg.num_clients, alpha, cfg.seed,
                                                     cfg.min_samples_per_client, cfg.max_redraws))
    t4 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1, "load_dataset_s": t3 - t2,
                      "partition_s": t4 - t3, "fedskew_cli": cli.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
