import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fedskew import cli


def base_config(**overrides):
    cfg = {
        "seed": 11,
        "dataset": {"synthetic": {
            "num_classes": 3, "vocab_size": 40, "train_docs_per_class": 20,
            "test_docs_per_class": 8, "doc_length": 6, "topic_concentration": 0.05,
            "seed": 11}},
        "models": ["textcnn"],
        "textcnn": {"embed_dim": 6, "filters_per_width": 4},
        "partition": {"num_clients": 3, "alpha": [0.5]},
        "federation": {"rounds": 2, "batch_size": 8,
                       "local_epochs": 1,
                       "optimizer": {"textcnn": {"kind": "sgd", "lr": 0.1}},
                       "aggregators": ["fedavg"]},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_unknown_key_rejected_with_path(tmp_path):
    cfg = base_config()
    cfg["federation"]["leraning_rate"] = 0.1
    with pytest.raises(cli.ConfigError, match="federation.*leraning_rate"):
        cli.parse_config(write_config(tmp_path, cfg))
    cfg2 = base_config()
    cfg2["dataset"]["synthetic"]["vocab"] = 10
    with pytest.raises(cli.ConfigError, match="dataset.synthetic"):
        cli.parse_config(write_config(tmp_path, cfg2))
    cfg3 = base_config()
    cfg3["federation"]["client_workers"] = 2
    with pytest.raises(cli.ConfigError, match="federation.*client_workers"):
        cli.parse_config(write_config(tmp_path, cfg3))


def test_missing_required_and_bad_values(tmp_path):
    cfg = base_config()
    del cfg["dataset"]["synthetic"]["vocab_size"]
    with pytest.raises(cli.ConfigError, match="vocab_size"):
        cli.parse_config(write_config(tmp_path, cfg))
    cfg2 = base_config()
    cfg2["partition"]["alpha"] = [0.0]
    with pytest.raises(cli.ConfigError, match="alpha"):
        cli.parse_config(write_config(tmp_path, cfg2))
    cfg3 = base_config()
    cfg3["federation"]["aggregators"] = ["fedmedian"]
    with pytest.raises(cli.ConfigError, match="fedmedian"):
        cli.parse_config(write_config(tmp_path, cfg3))
    for key, value in (("num_clients", 0), ("alpha", ["x"])):
        cfg4 = base_config()
        cfg4["partition"][key] = value
        with pytest.raises(cli.ConfigError, match="partition"):
            cli.parse_config(write_config(tmp_path, cfg4))
    for section, value in (("federation", 5), ("partition", [1]), ("textcnn", 5)):
        cfg5 = base_config(**{section: value})
        with pytest.raises(cli.ConfigError, match=f"^{section}: must be a JSON object$"):
            cli.parse_config(write_config(tmp_path, cfg5))
    for edit, where in (
            (lambda c: c["federation"].update(rounds=0), "federation: rounds"),
            (lambda c: c["federation"].update(batch_size=0),
             "federation: batch_size: must be an integer >= 1, got 0$"),
            (lambda c: c["federation"]["optimizer"]["textcnn"].update(kind="adam"),
             "federation.optimizer.textcnn: unknown optimizer kind 'adam'"),
            (lambda c: c["textcnn"].update(filter_widths=[2, 7]),
             "textcnn: filter width 7 exceeds sequence length 6"),
            (lambda c: c["dataset"]["synthetic"].update(num_classes=0),
             "dataset.synthetic: num_classes: must be an integer >= 1, got 0"),
            (lambda c: c["dataset"]["synthetic"].update(vocab_size="x"),
             "dataset.synthetic: vocab_size: must be an integer >= 1, got 'x'"),
            (lambda c: c["dataset"]["synthetic"].update(topic_concentration=0),
             "dataset.synthetic: topic_concentration: must be a finite number > 0"),
            (lambda c: c["dataset"]["synthetic"].update(seed=1.5),
             "dataset.synthetic: seed: must be an integer, got 1.5"),
            (lambda c: c.update(seed="x"), "seed: must be an integer, got 'x'"),
            (lambda c: c.update(out_dir=0), "out_dir: must be a nonempty path"),
            # the paper's convergence rule is fixed, so no config section sets it
            (lambda c: c.update(metrics={"convergence_window": 5}),
             r"config: unknown keys \['metrics'\]$"),
            (lambda c: c["partition"].update(max_redraws=0),
             "partition: max_redraws: must be an integer >= 1, got 0$"),
            (lambda c: c["textcnn"].update(dropout=1.5),
             r"textcnn: dropout: must be a number in \[0, 1\), got 1.5"),
            (lambda c: c["textcnn"].update(embed_dim=0), "textcnn: embed_dim: must be an integer >= 1"),
            (lambda c: c.update(pretrain={"steps": "x"}), "pretrain: steps: must be an integer >= 0"),
            (lambda c: c.update(models=["loraformer"], loraformer={"heads": 0}),
             "loraformer: heads: must be an integer >= 1"),
            (lambda c: c.update(models=["loraformer"], loraformer={"lora_dropout": -0.1}),
             "loraformer: lora_dropout"),
            (lambda c: c["federation"].update(aggregators=["fedavg", "fedavgw:nan"]),
             "federation: aggregators.1: beta: must be a finite number >= 0, got nan$"),
            (lambda c: c["federation"].update(aggregators=["fedavgw:inf"]),
             "federation: aggregators.0: beta: must be a finite number >= 0, got inf$"),
            (lambda c: c["federation"].update(aggregators=["fedavgw:-1"]),
             "federation: aggregators.0: beta: must be a finite number >= 0, got -1.0$"),
            (lambda c: c["federation"].update(local_epochs={"textcnn": 2, "lorafromer": 3}),
             r"federation.local_epochs: unknown keys \['lorafromer'\]$"),
            # the two removed shapes: a scalar alpha, and one optimizer for every family
            (lambda c: c["partition"].update(alpha=0.5),
             "partition.alpha: must be a list with at least one entry, got 0.5$"),
            (lambda c: c["federation"].update(optimizer={"kind": "sgd", "lr": 0.1}),
             r"federation.optimizer: unknown keys \['kind', 'lr'\]$"),
            # a sweep axis names each cell once, compared as parsed: 1 is 1.0
            (lambda c: c["partition"].update(alpha=[0.5, 0.5]),
             "partition.alpha: duplicate entry 0.5$"),
            (lambda c: c["partition"].update(alpha=[1, 1.0]),
             "partition.alpha: duplicate entry 1.0$"),
            (lambda c: c["federation"].update(aggregators=["fedavg", "fedavg"]),
             "federation.aggregators: duplicate entry 'fedavg'$"),
            (lambda c: c["federation"].update(aggregators=["fedavgw:0.5", "fedavgw:0.50"]),
             "federation.aggregators: duplicate entry 'fedavgw:0.50'$"),
            (lambda c: c.update(models=["textcnn", "textcnn"]),
             "models: duplicate entry 'textcnn'$"),
            (lambda c: c["textcnn"].update(filter_widths=[[1]]),
             r"textcnn: filter_widths: must be an integer >= 1, got \[1\]$"),
            (lambda c: c["partition"].update(alpha=[10**400]),
             "partition: alpha: int too large to convert to float$")):
        cfg6 = base_config()
        edit(cfg6)
        with pytest.raises(cli.ConfigError, match=f"^{where}"):
            cli.parse_config(write_config(tmp_path, cfg6))
    # integer keys take JSON integers only
    integer_keys = [("federation", "rounds"), ("federation", "batch_size"),
                    ("federation", "local_epochs"), ("federation", "local_epochs", "textcnn"),
                    ("partition", "num_clients"), ("partition", "min_samples_per_client"),
                    ("partition", "max_redraws")]
    for path in integer_keys:
        for value in (1.5, "3", True):
            cfg7 = base_config()
            parent = cfg7
            for key in path[:-1]:
                if not isinstance(parent.get(key), dict):
                    parent[key] = {}
                parent = parent[key]
            parent[path[-1]] = value
            name = ".".join(path[1:])
            if name == "local_epochs":  # one count for every family, checked per family
                name = "local_epochs.textcnn"
            minimum = 0 if name == "min_samples_per_client" else 1
            with pytest.raises(cli.ConfigError, match=f"^{path[0]}: {name}: must be an integer "
                                                      f">= {minimum}, got {value!r}$"):
                cli.parse_config(write_config(tmp_path, cfg7))
    # float keys take finite JSON numbers only
    for edit, key, bound in (
            (lambda c, v: c["partition"].update(alpha=[0.5, v]), "partition: alpha",
             "a finite number > 0"),
            (lambda c, v: c["federation"]["optimizer"]["textcnn"].update(lr=v),
             "federation.optimizer.textcnn: lr", "a finite number > 0"),
            (lambda c, v: c["federation"]["optimizer"]["textcnn"].update(weight_decay=v),
             "federation.optimizer.textcnn: weight_decay", "a finite number >= 0")):
        for value in ("0.5", True, float("nan"), float("inf")):
            cfg8 = base_config()
            edit(cfg8, value)
            with pytest.raises(cli.ConfigError, match=f"^{key}: must be {bound}, got {value!r}$"):
                cli.parse_config(write_config(tmp_path, cfg8))
    # the checkpoint writer, the per-alpha round budget and zero-based CSV labels are gone
    csv = {"train_path": "train.csv", "label_column": 0, "text_columns": [1],
           "num_classes": 3, "one_based_labels": True}
    federation = {**base_config()["federation"], "rounds_by_alpha": {"0.5": 3}}
    for cfg9, where, key in (
            (base_config(save_checkpoints=False), "config", "save_checkpoints"),
            (base_config(federation=federation), "federation", "rounds_by_alpha"),
            (base_config(dataset={"csv": csv}), "dataset.csv", "one_based_labels")):
        with pytest.raises(cli.ConfigError, match=rf"^{where}: unknown keys \['{key}'\]$"):
            cli.parse_config(write_config(tmp_path, cfg9))


@pytest.mark.parametrize("verb", ["run", "partition"])
def test_data_errors_exit_1_before_any_cell(tmp_path, capsys, verb):
    def csv_config(name):
        return base_config(dataset={"csv": {
            "train_path": str(tmp_path / name), "label_column": 0, "text_columns": [1],
            "num_classes": 3, "max_seq_len": 6}})

    (tmp_path / "bad.csv").write_text("1,a b c\nx,d e f\n")
    too_many = base_config()
    too_many["partition"]["min_samples_per_client"] = 1000
    cases = [(csv_config("absent.csv"), "data error: dataset.csv: No such file or directory: "
                                        f"{tmp_path / 'absent.csv'}\n"),
             (csv_config("bad.csv"), f"data error: dataset.csv: {tmp_path / 'bad.csv'}:2: "
                                     "non-integer label 'x'\n"),
             (too_many, "data error: partition.alpha 0.5: no partition met "
                        "min_samples_per_client=1000 after 100 redraws")]
    for i, (cfg, message) in enumerate(cases):
        out = tmp_path / f"out{i}"
        cfg["out_dir"] = str(out)
        assert cli.main([verb, str(write_config(tmp_path, cfg))]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and "Traceback" not in err, err
        assert not out.exists()
    # an out_dir that cannot be created: a file, or a path below one
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    for out, reason in ((taken, "File exists"), (taken / "out", "Not a directory")):
        path = write_config(tmp_path, base_config(out_dir=str(out)))
        before = sorted(tmp_path.rglob("*"))
        assert cli.main([verb, str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"data error: out_dir: {reason}: {out}\n", err
        assert sorted(tmp_path.rglob("*")) == before and taken.read_text() == "a file\n"


@pytest.mark.parametrize("argv,taken,reason", [
    (["run", "--jobs", "1"], "RUN_ID", "File exists"),
    (["run", "--jobs", "2"], "RUN_ID", "File exists"),
    (["run"], "report.md", "Is a directory"),
    (["report"], "gap_vs_alpha.csv", "Is a directory"),
    (["partition"], "partition_alpha1.0.json", "Is a directory")],
    ids=["run-id-file-jobs1", "run-id-file-jobs2", "report-md-dir", "report-csv-dir",
         "manifest-dir"])
def test_taken_output_path_exits_1_before_any_work(tmp_path, capsys, argv, taken, reason):
    """A file where a run's directory goes, or a directory where a report or manifest
    goes, exits 1 with a data error naming it before any cell runs: no traceback, and
    nothing written or made (the taken run id is the last cell's)."""
    out = tmp_path / "out"
    path = write_config(tmp_path, base_config(
        out_dir=str(out), partition={"num_clients": 3, "alpha": [0.5, 1.0]}))
    if argv[0] == "report":  # a finished sweep whose report files are gone
        assert cli.main(["run", str(path)]) == 0
        for name in ("report.md", "gap_vs_alpha.csv"):
            (out / name).unlink()
        capsys.readouterr()
    if taken == "RUN_ID":
        taken = cli.parse_config(path).runs[-1]["run_id"]
        out.mkdir()
        (out / taken).write_text("a file\n")
    else:
        (out / taken).mkdir(parents=True)
    before = sorted(tmp_path.rglob("*"))
    target = out if argv[0] == "report" else path
    assert cli.main([argv[0], str(target), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err == f"data error: out_dir: {reason}: {out / taken}\n", err
    assert sorted(tmp_path.rglob("*")) == before


def test_train_only_csv_partitions_but_does_not_run(tmp_path, capsys):
    """Without `test_path` a CSV corpus has no test split: `partition` still works, but
    `run` exits 1 before any cell, each of which would fail at its first evaluation."""
    rows = [f'{i % 3 + 1},"w{i % 3} w{i % 7} w{i % 11}"' for i in range(60)]
    (tmp_path / "train.csv").write_text("\n".join(rows) + "\n")
    cfg = base_config(dataset={"csv": {
        "train_path": str(tmp_path / "train.csv"), "label_column": 0, "text_columns": [1],
        "num_classes": 3, "max_seq_len": 6}})
    cfg["out_dir"] = str(tmp_path / "run")
    assert cli.main(["run", str(write_config(tmp_path, cfg))]) == 1
    assert capsys.readouterr().err == "data error: dataset.csv: no test split: set test_path\n"
    assert not (tmp_path / "run").exists()
    cfg["out_dir"] = str(tmp_path / "partition")
    assert cli.main(["partition", str(write_config(tmp_path, cfg))]) == 0
    assert (tmp_path / "partition" / "partition_alpha0.5.json").exists()


def test_client_without_test_documents_fails_before_any_cell(tmp_path, capsys):
    """A client with data whose classes have no test documents cannot be scored: `run`
    exits 1 before any cell, which would train a round and then fail at evaluation, but
    `partition` still works."""
    rows = [f'{i % 2 + 1},"w{i % 2} w{i % 5} w{i % 7}"' for i in range(40)]
    (tmp_path / "train.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "test.csv").write_text("".join(f'2,"w1 w{i}"\n' for i in range(6)))
    cfg = base_config(dataset={"csv": {
        "train_path": str(tmp_path / "train.csv"), "test_path": str(tmp_path / "test.csv"),
        "label_column": 0, "text_columns": [1], "num_classes": 2, "max_seq_len": 6}})
    cfg["partition"]["alpha"] = [5.0, 0.1]
    parsed = cli.parse_config(write_config(tmp_path, cfg))
    from fedskew.partition import dirichlet_partition
    untested = [p.client_id for p in dirichlet_partition(parsed.load_dataset(),
                                                         parsed.partition_cfgs[0.1])
                if p.present_classes == {0}]
    assert untested, "no client at alpha 0.1 holds class 0 alone"
    cfg["out_dir"] = str(tmp_path / "run")
    assert cli.main(["run", str(write_config(tmp_path, cfg))]) == 1
    assert capsys.readouterr().err == (f"data error: partition.alpha 0.1: client {untested[0]} "
                                       "holds classes [0], none of which has a test document\n")
    assert not (tmp_path / "run").exists()
    cfg["out_dir"] = str(tmp_path / "partition")
    assert cli.main(["partition", str(write_config(tmp_path, cfg))]) == 0
    assert (tmp_path / "partition" / "partition_alpha0.1.json").exists()


def test_sgd_weight_decay_is_a_config_error(tmp_path, capsys):
    """SGD applies no weight decay, so a nonzero `weight_decay` with it is rejected rather
    than ignored; 0 is accepted."""
    cfg = base_config(out_dir=str(tmp_path / "out"))
    cfg["federation"]["optimizer"]["textcnn"]["weight_decay"] = 0
    assert cli.parse_config(write_config(tmp_path, cfg)).fed_cfgs
    cfg["federation"]["optimizer"]["textcnn"]["weight_decay"] = 0.5
    assert cli.main(["run", str(write_config(tmp_path, cfg))]) == 1
    assert capsys.readouterr().err == ("config error: federation.optimizer.textcnn: "
                                       "weight_decay: must be 0 with kind 'sgd', got 0.5\n")
    assert not (tmp_path / "out").exists()


def test_not_json_and_missing_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(cli.ConfigError, match="JSON"):
        cli.parse_config(bad)
    with pytest.raises(cli.ConfigError, match="not found"):
        cli.parse_config(tmp_path / "absent.json")
    # a directory, and a file that is not UTF-8, exit 1 without a traceback; a file the
    # user may not read takes the directory's branch, which a test run as root cannot reach
    (tmp_path / "latin1.json").write_bytes(b'{"seed": "\xff"}')
    for path, message in ((tmp_path, "config file unreadable: Is a directory: "),
                          (tmp_path / "latin1.json", "config is not valid JSON: ")):
        assert cli.main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}") and "Traceback" not in err, err


def test_run_id_stable_under_key_order(tmp_path):
    cfg = base_config()
    a = cli.parse_config(write_config(tmp_path, cfg, "a.json"))
    # same content, different key insertion order
    shuffled = dict(reversed(list(cfg.items())))
    shuffled["federation"] = dict(reversed(list(cfg["federation"].items())))
    b = cli.parse_config(write_config(tmp_path, shuffled, "b.json"))
    assert [r["run_id"] for r in a.runs] == [r["run_id"] for r in b.runs]


def test_run_id_changes_with_config(tmp_path):
    a = cli.parse_config(write_config(tmp_path, base_config(), "a.json"))
    changed = base_config(seed=12)
    b = cli.parse_config(write_config(tmp_path, changed, "b.json"))
    assert a.runs[0]["run_id"] != b.runs[0]["run_id"]


def test_run_ids_pinned(tmp_path):
    """Run ids name the output directories, so reading a config must keep them."""
    def ids(cfg):
        return [r["run_id"] for r in cli.ExperimentConfig(cfg).runs]

    assert ids(base_config()) == ["8ba9647875e9"]
    assert ids(pretrained_sweep_config(tmp_path)) == [
        "eaf9e0ee3d2a", "3a011dad34ba", "515924df642e", "d2a185b5d178",
        "ca8bfe1eeeaf", "21ec5632221f", "da76b864b13e", "3462e7294d96"]
    integer_alpha, float_alpha = base_config(), base_config()
    integer_alpha["partition"]["alpha"] = [1]
    float_alpha["partition"]["alpha"] = [1.0]
    assert ids(integer_alpha) == ids(float_alpha)


def test_readme_config_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    config = readme.split("cat > sweep.json <<'EOF'\n", 1)[1].split("\nEOF\n", 1)[0]
    assert len(cli.ExperimentConfig(json.loads(config)).runs) == 4


def test_sweep_cross_product_counts(tmp_path):
    cfg = base_config()
    cfg["models"] = ["textcnn", "loraformer"]
    cfg["partition"]["alpha"] = [0.1, 5.0]
    cfg["federation"]["aggregators"] = ["fedavg", "fedavgw:0.5"]
    parsed = cli.parse_config(write_config(tmp_path, cfg))
    runs = parsed.runs
    assert len(runs) == 8
    assert len({r["run_id"] for r in runs}) == 8


def test_each_cell_runs_its_plan(tmp_path):
    cfg = pretrained_sweep_config(tmp_path)
    cfg["federation"].update(local_epochs={"textcnn": 2})
    parsed = cli.ExperimentConfig(cfg)
    assert len(parsed.runs) == 8 and list(parsed.fed_cfgs) == [r["run_id"] for r in parsed.runs]
    for run in parsed.runs:
        fed = parsed.fed_cfgs[run["run_id"]]
        assert ((fed.rounds, fed.aggregator, fed.beta, fed.local_epochs, fed.batch_size)
                == tuple(run[k] for k in ("rounds", "aggregator", "beta", "local_epochs",
                                          "batch_size")))
        assert run["participation"] == 1.0  # every client trains every round
    assert {(r["model"], r["alpha"], r["rounds"], r["local_epochs"]) for r in parsed.runs} == {
        (m, a, cfg["federation"]["rounds"], 2 if m == "textcnn" else 1)
        for m in ("textcnn", "loraformer") for a in (0.3, 2.0)}


def run_sweep(tmp_path, cfg, name="cfg.json", jobs=1):
    cfg = dict(cfg)
    parsed = cli.parse_config(write_config(tmp_path, cfg, name))
    return parsed, cli.run_experiments(parsed, jobs=jobs)


def test_end_to_end_outputs(tmp_path):
    cfg = base_config(out_dir=str(tmp_path / "out"))
    parsed, summaries = run_sweep(tmp_path, cfg)
    assert len(summaries) == 1 and summaries[0]["status"] == "ok"
    run_dir = tmp_path / "out" / summaries[0]["run_id"]
    assert (run_dir / "rounds.csv").exists()
    assert (run_dir / "summary.json").exists()
    assert (run_dir / "partition.json").exists()
    assert (tmp_path / "out" / "report.md").exists()
    assert (tmp_path / "out" / "gap_vs_alpha.csv").exists()
    header = (run_dir / "rounds.csv").read_text().splitlines()[0]
    assert header == "round,client_id,n_k,eval_size,accuracy,avg_acc,worst_acc,gap,argmin_client"
    gcsv = (tmp_path / "out" / "gap_vs_alpha.csv").read_text().splitlines()
    assert gcsv[0] == "alpha,model,aggregator,beta,avg,worst,gap"
    assert len(gcsv) == 2


def test_json_outputs_strict_with_an_empty_client(tmp_path, capsys):
    """A client with no data has no max/min size ratio: the JSON files say null, which
    RFC 8259 allows, where they said Infinity."""
    cfg = base_config(out_dir=str(tmp_path / "out"))
    cfg["partition"].update(num_clients=40, alpha=[0.05], min_samples_per_client=0)
    cfg["federation"]["rounds"] = 1
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", str(path)]) == 0
    assert cli.main(["partition", str(path)]) == 0
    assert "max/min=inf ->" in capsys.readouterr().out

    def strict(p):
        return json.loads(p.read_text(), parse_constant=lambda c: pytest.fail(f"{p}: {c}"))

    (run_dir,) = [p.parent for p in (tmp_path / "out").glob("*/summary.json")]
    summary, manifest = strict(run_dir / "summary.json"), strict(run_dir / "partition.json")
    assert summary["status"] == "ok" and 0 in summary["skew"]["sizes"]
    assert summary["skew"]["max_min_ratio"] is None
    assert manifest["skew"]["max_min_ratio"] is None
    assert strict(tmp_path / "out" / "partition_alpha0.05.json")["skew"]["max_min_ratio"] is None


def test_rerun_byte_identical_rounds_csv(tmp_path):
    cfg = base_config(out_dir=str(tmp_path / "out1"))
    _, s1 = run_sweep(tmp_path, cfg, "c1.json")
    cfg2 = base_config(out_dir=str(tmp_path / "out2"))
    _, s2 = run_sweep(tmp_path, cfg2, "c2.json")
    rid = s1[0]["run_id"]
    assert s2[0]["run_id"] == rid
    b1 = (tmp_path / "out1" / rid / "rounds.csv").read_bytes()
    b2 = (tmp_path / "out2" / rid / "rounds.csv").read_bytes()
    assert b1 == b2


def test_parallel_jobs_byte_identical(tmp_path):
    cfg = base_config(out_dir=str(tmp_path / "seq"))
    cfg["partition"]["alpha"] = [0.3, 2.0]
    _, s_seq = run_sweep(tmp_path, cfg, "c1.json", jobs=1)
    cfg2 = dict(cfg, out_dir=str(tmp_path / "par"))
    _, s_par = run_sweep(tmp_path, cfg2, "c2.json", jobs=4)
    for a, b in zip(s_seq, s_par):
        assert a["run_id"] == b["run_id"]
        ba = (tmp_path / "seq" / a["run_id"] / "rounds.csv").read_bytes()
        bb = (tmp_path / "par" / a["run_id"] / "rounds.csv").read_bytes()
        assert ba == bb


def test_jobs_must_be_positive(tmp_path, capsys):
    path = write_config(tmp_path, base_config(out_dir=str(tmp_path / "out")))
    for jobs in ("0", "-1"):
        assert cli.main(["run", str(path), "--jobs", jobs]) == 1
        assert "config error: --jobs must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def record_starts(monkeypatch):
    """The number of live children of this process as each forked cell starts."""
    import multiprocessing.context
    real = multiprocessing.context.ForkProcess.start
    alive = []

    def start(self):
        real(self)
        alive.append(len(multiprocessing.active_children()))

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", start)
    return alive


def test_jobs_capped_at_cell_count(tmp_path, monkeypatch):
    alive = record_starts(monkeypatch)
    cfg = base_config(out_dir=str(tmp_path / "out"))
    cfg["partition"]["alpha"] = [0.3, 2.0]
    assert cli.main(["run", str(write_config(tmp_path, cfg)), "--jobs", "8"]) == 0
    assert len(alive) == 2


def test_jobs_bound_live_cells(tmp_path, monkeypatch):
    alive = record_starts(monkeypatch)
    cfg = base_config(out_dir=str(tmp_path / "out"))
    cfg["partition"]["alpha"] = [0.3, 1.0, 2.0, 5.0]
    assert cli.main(["run", str(write_config(tmp_path, cfg)), "--jobs", "2"]) == 0
    assert len(alive) == 4
    assert max(alive) <= 2


def test_pretrained_sweep_jobs_byte_identical(tmp_path):
    _, s_seq = run_sweep(tmp_path, pretrained_sweep_config(tmp_path / "seq"), "c1.json", jobs=1)
    _, s_par = run_sweep(tmp_path, pretrained_sweep_config(tmp_path / "par"), "c2.json", jobs=2)
    assert [s["run_id"] for s in s_seq] == [s["run_id"] for s in s_par]
    assert all(s["status"] == "ok" for s in s_seq + s_par)
    for s in s_seq:
        for name in ("rounds.csv", "partition.json"):
            assert ((tmp_path / "seq" / s["run_id"] / name).read_bytes()
                    == (tmp_path / "par" / s["run_id"] / name).read_bytes())
    for name in ("report.md", "gap_vs_alpha.csv"):
        assert (tmp_path / "seq" / name).read_bytes() == (tmp_path / "par" / name).read_bytes()


def alpha_sizes(parsed, alpha):
    """Client sizes of the partition at `alpha`, to recognise that cell's run."""
    from fedskew.partition import dirichlet_partition
    return [p.size for p in dirichlet_partition(parsed.load_dataset(),
                                                parsed.partition_cfgs[alpha])]


def run_with_dying_cell(tmp_path, monkeypatch, die):
    """A 2-cell sweep at --jobs 2 whose α 0.3 cell calls `die()` in its forked child;
    returns the summaries of the dying cell and of the α 2.0 cell."""
    cfg = base_config(out_dir=str(tmp_path / "out"))
    cfg["partition"]["alpha"] = [0.3, 2.0]
    parsed = cli.parse_config(write_config(tmp_path, cfg))
    target_sizes = alpha_sizes(parsed, 0.3)
    real = cli.run_federation

    def dying(dataset, partitions, *args, **kwargs):
        if [p.size for p in partitions] == target_sizes:
            die()  # the forked child inherits this patch
        return real(dataset, partitions, *args, **kwargs)

    monkeypatch.setattr(cli, "run_federation", dying)
    summaries = cli.run_experiments(parsed, jobs=2)
    assert len(summaries) == 2
    dead = next(s for s in summaries if s["config"]["alpha"] == 0.3)
    healthy = next(s for s in summaries if s["config"]["alpha"] == 2.0)
    on_disk = json.loads((tmp_path / "out" / dead["run_id"] / "summary.json").read_text())
    assert on_disk["status"] == "error" and on_disk["error"] == dead["error"]
    assert f"`{dead['run_id']}`" in (tmp_path / "out" / "report.md").read_text()
    return dead, healthy


def test_worker_death_fails_its_cell(tmp_path, monkeypatch):
    dead, healthy = run_with_dying_cell(tmp_path, monkeypatch, lambda: os._exit(1))
    assert dead["status"] == "error"
    assert dead["error"] == "worker process died: exit code 1"
    assert healthy["status"] == "ok"


def test_worker_killed_by_signal_fails_its_cell(tmp_path, monkeypatch):
    import signal
    dead, healthy = run_with_dying_cell(
        tmp_path, monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    assert dead["status"] == "error"
    assert dead["error"] == "worker process died: killed by SIGKILL"
    assert healthy["status"] == "ok"


def test_crash_isolation(tmp_path, monkeypatch):
    cfg = base_config(out_dir=str(tmp_path / "out"))
    cfg["partition"]["alpha"] = [0.3, 2.0]
    parsed = cli.parse_config(write_config(tmp_path, cfg))

    real = cli.run_federation
    # reproduce the alpha=0.3 partition so the sabotage can target that cell
    from fedskew.partition import PartitionConfig, dirichlet_partition
    dataset = parsed.load_dataset()
    target_sizes = [p.size for p in dirichlet_partition(dataset, PartitionConfig(
        parsed.num_clients, 0.3, parsed.seed, parsed.min_samples_per_client,
        parsed.max_redraws))]

    def sabotage(dataset, partitions, family, model_cfg, fed_cfg, **kw):
        if [p.size for p in partitions] == target_sizes:
            raise RuntimeError("simulated crash")
        return real(dataset, partitions, family, model_cfg, fed_cfg, **kw)

    monkeypatch.setattr(cli, "run_federation", sabotage)
    summaries = cli.run_experiments(parsed, jobs=1)
    statuses = {s["config"]["alpha"]: s["status"] for s in summaries}
    assert statuses[0.3] == "error" and statuses[2.0] == "ok"
    failed = [s for s in summaries if s["status"] == "error"]
    assert "simulated crash" in failed[0]["error"]
    report = (tmp_path / "out" / "report.md").read_text()
    assert "Failed runs" in report


def test_report_contains_tables_and_bolding(tmp_path):
    cfg = base_config(out_dir=str(tmp_path / "out"))
    cfg["models"] = ["textcnn"]
    cfg["partition"]["alpha"] = [0.2, 3.0]
    cfg["federation"]["aggregators"] = ["fedavg", "fedavgw:0.5"]
    _, summaries = run_sweep(tmp_path, cfg)
    report = (tmp_path / "out" / "report.md").read_text()
    assert "| alpha | model | Avg % | Worst % | Gap % |" in report
    assert "Gap reduction across alpha" in report
    assert "Aggregator comparison" in report
    assert "FedAvgW beta=0.5" in report
    assert "delta (best FedAvgW vs FedAvg)" in report
    gcsv = (tmp_path / "out" / "gap_vs_alpha.csv").read_text().splitlines()
    assert len(gcsv) == 1 + 4  # 2 alphas x 2 aggregators


def test_report_ratio_formatting():
    def fake(model, alpha, avg, worst, agg="fedavg", beta=0.0):
        gap = avg - worst
        return {"run_id": f"{model}{alpha}", "status": "ok",
                "config": {"model": model, "alpha": alpha, "aggregator": agg, "beta": beta},
                "final": {"avg": avg, "worst": worst, "gap": gap}}

    # gaps 32.2% and 3.7% -> reduction 8.7x
    summaries = [fake("textcnn", 0.1, 0.866, 0.545), fake("textcnn", 5.0, 0.956, 0.919)]
    import tempfile
    from pathlib import Path
    with tempfile.TemporaryDirectory() as d:
        cli.emit_report(summaries, d)
        report = Path(d, "report.md").read_text()
        # a single client holds every class: the gap is 0 at both levels, which is no
        # reduction, and a later gap of 0 (from 0 or not) has no ratio
        cli.emit_report([fake("textcnn", 0.1, 0.9, 0.9), fake("textcnn", 1.0, 0.95, 0.95),
                         fake("loraformer", 0.1, 0.9, 0.5), fake("loraformer", 1.0, 0.95, 0.95)],
                        d)
        zero_gap = Path(d, "report.md").read_text()
    assert "8.7x" in report
    assert "| textcnn | 0.1 -> 1.0 | n/a |" in zero_gap
    assert "| loraformer | 0.1 -> 1.0 | n/a |" in zero_gap
    assert "inf" not in zero_gap
    assert "| 0.1 | textcnn | 86.6 | 54.5 | 32.1 |" in report or \
        "| 0.1 | textcnn | 86.6 | 54.5 | 32.2 |" in report


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert cli.main(["run", str(bad)]) == 1
    cfg = base_config(out_dir=str(tmp_path / "out"))
    cfg["federation"]["rounds"] = 1
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", str(path)]) == 0
    assert cli.main(["report", str(tmp_path / "out")]) == 0
    assert cli.main(["report", str(tmp_path / "empty")]) == 1
    assert cli.main(["partition", str(path)]) == 0


def test_report_rewrites_the_sweep_files_byte_for_byte(tmp_path, monkeypatch, capsys):
    """`fedskew report` reads the summaries in run-id order, the sweep in plan order: both
    write the same report.md and gap_vs_alpha.csv, failed runs included."""
    cfg = base_config(out_dir=str(tmp_path / "out"))
    cfg["partition"]["alpha"] = [0.3, 2.0]
    cfg["federation"]["aggregators"] = ["fedavg", "fedavgw:0.5"]
    parsed = cli.parse_config(write_config(tmp_path, cfg))
    failing_sizes = alpha_sizes(parsed, 0.3)
    real = cli.run_federation

    def sabotage(dataset, partitions, *args, **kwargs):
        if [p.size for p in partitions] == failing_sizes:  # both α 0.3 cells fail
            raise RuntimeError("simulated crash")
        return real(dataset, partitions, *args, **kwargs)

    monkeypatch.setattr(cli, "run_federation", sabotage)
    summaries = cli.run_experiments(parsed, jobs=2)
    assert [s["status"] for s in summaries] == ["error", "error", "ok", "ok"]
    names = ("report.md", "gap_vs_alpha.csv")
    written = {name: (tmp_path / "out" / name).read_bytes() for name in names}
    for name in names:
        (tmp_path / "out" / name).unlink()
    assert cli.main(["report", str(tmp_path / "out")]) == 0
    assert {name: (tmp_path / "out" / name).read_bytes() for name in names} == written
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("text,message", [
    ("{", "not valid JSON: "), ('{"run_id": "a"}', "missing keys ['status', 'config', 'error']"),
    ("[]", "must be a JSON object"),
    ('{"run_id": "a", "status": "ok", "config": {}, "final": {}}',
     "missing keys ['config.alpha', 'config.model', 'config.aggregator', 'config.beta', "
     "'final.avg', 'final.worst', 'final.gap']"),
    ('{"run_id": "a", "status": "ok", "config": [], "final": {}}',
     "config: must be a JSON object"),
    ('{"run_id": "a", "status": "ok", "config": {"alpha": 0.1, "model": "textcnn", '
     '"aggregator": "fedavg", "beta": 0.0}, "final": {"avg": "high", "worst": 0.5, "gap": 0.1}}',
     "final.avg: must be a number, got 'high'"),
    ('{"run_id": "a", "status": "ok", "config": {"alpha": true, "model": "textcnn", '
     '"aggregator": "fedavg", "beta": 0.0}, "final": {"avg": 0.5, "worst": 0.5, "gap": 0.0}}',
     "config.alpha: must be a number, got True"),
    ('{"run_id": "a", "status": "error", "error": "boom", "config": {"alpha": 0.1, '
     '"model": 3, "aggregator": "fedavg", "beta": 0.0}}',
     "config.model: must be a string, got 3"),
    # emit_report sorts the failed runs by run_id, which an int beside a str would break
    ('{"run_id": 1, "status": "error", "error": "boom", "config": {"alpha": 0.1, '
     '"model": "textcnn", "aggregator": "fedavg", "beta": 0.0}}',
     "run_id: must be a string, got 1"),
    (None, "Is a directory")])  # None: a directory named summary.json
def test_report_on_a_bad_summary_exits_1(tmp_path, capsys, text, message):
    """A summary.json that a killed run truncated, one that lacks a key the report reads
    or holds it as another JSON type, or one that cannot be read, is a data error that
    names the file, not a traceback, and leaves the report files of an earlier run as
    they were."""
    path = tmp_path / "out" / "x" / "summary.json"
    path.parent.mkdir(parents=True)
    if text is None:
        path.mkdir()
    else:
        path.write_text(text)
    assert cli.main(["report", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: {message}") and err.count("\n") == 1, err
    assert not (tmp_path / "out" / "report.md").exists()
    earlier = {"report.md": b"# an earlier report\n", "gap_vs_alpha.csv": b"alpha\n0.1\n"}
    for name, content in earlier.items():
        (tmp_path / "out" / name).write_bytes(content)
    assert cli.main(["report", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == err
    assert {name: (tmp_path / "out" / name).read_bytes() for name in earlier} == earlier


def test_emit_report_builds_both_texts_before_writing_either(tmp_path):
    """A summary that fails while its text is built, past `read_summary`, leaves both
    report files of an earlier run as they were."""
    earlier = {"report.md": b"# an earlier report\n", "gap_vs_alpha.csv": b"alpha\n0.1\n"}
    for name, content in earlier.items():
        (tmp_path / name).write_bytes(content)
    summary = {"run_id": "a", "status": "ok",
               "config": {"alpha": 0.1, "model": "textcnn", "aggregator": "fedavg", "beta": 0.0},
               "final": {"avg": "high", "worst": 0.5, "gap": 0.1}}
    with pytest.raises(ValueError, match="Unknown format code 'f'"):
        cli.emit_report([summary], tmp_path)
    assert {name: (tmp_path / name).read_bytes() for name in earlier} == earlier


@pytest.mark.parametrize("flag", [["--seed", "99"], ["--rounds", "1"]], ids=["seed", "rounds"])
def test_seed_flag_is_unknown(tmp_path, capsys, flag):
    """The seed and the round budget are the config's `seed` and `federation.rounds`
    keys; `run` has no flag that overrides them."""
    path = write_config(tmp_path, base_config(out_dir=str(tmp_path / "out")))
    with pytest.raises(SystemExit) as exit_:
        cli.main(["run", str(path), *flag])
    assert exit_.value.code == 2
    assert f"error: unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where,key,value", [
    ("federation", "participation", 0.5), ("loraformer", "lora_scaling", 16.0),
    ("pretrain", "vocab_size", 40), ("pretrain", "doc_length", 6), ("pretrain", "seed", 12),
    ("dataset.csv", "max_vocab_size", 2), ("dataset.synthetic", "max_seq_len", 16)])
def test_removed_setting_is_an_unknown_key(tmp_path, capsys, where, key, value):
    """Every client trains every round, the LoRA alpha is 32, the proxy corpus takes the
    target's words and length and the sweep seed + 1, a CSV vocabulary keeps at most
    `textdata.MAX_VOCAB_SIZE` words, and a synthetic document fills its row: the keys
    that set them exit 1 before any work."""
    cfg = pretrained_sweep_config(tmp_path / "out")
    if where == "dataset.csv":
        cfg["dataset"] = {"csv": {"train_path": "train.csv", "label_column": 0,
                                  "text_columns": [1], "num_classes": 3}}
    section = cfg
    for name in where.split("."):
        section = section[name]
    section[key] = value
    assert cli.main(["run", str(write_config(tmp_path, cfg))]) == 1
    assert capsys.readouterr().err == f"config error: {where}: unknown keys ['{key}']\n"
    assert not (tmp_path / "out").exists()


def test_selftest_passes():
    assert cli.selftest()


def scaled_textcnn_backward(real):
    def backward(cache, g, out):
        real(cache, g, out)
        out[-2] *= 1 + 1e-6  # the view of the head weight, fc.weight
    return backward


def scaled_encoder_layer_backward(real):
    def backward(cache, g, out, need_x):
        gx = real(cache, g, out, need_x)
        if "attn.q_lora.B" in out:
            out["attn.q_lora.B"] *= 1 + 1e-6
        return gx
    return backward


@pytest.mark.parametrize("kernel,wrong,check,group", [
    ("textcnn_backward", scaled_textcnn_backward, "TextCNN training step matches its op chain",
     r"fc\.weight"),
    ("encoder_layer_backward", scaled_encoder_layer_backward,
     "encoder training step matches its op chain", r"layer[01]\.attn\.q_lora\.B")])
def test_selftest_catches_a_wrong_kernel_gradient(kernel, wrong, check, group, monkeypatch,
                                                  capsys):
    """One group's gradient off by a relative 1e-6 fails the one check that compares that
    kernel with its op chain, naming that group, and no other."""
    from fedskew.numkit import kernels
    monkeypatch.setattr(kernels, kernel, wrong(getattr(kernels, kernel)))
    assert cli.selftest() is False
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    failed = [line for line in lines if not line.startswith("[PASS] ")]
    assert len(failed) == 1 and re.fullmatch(rf"\[FAIL\] {check}: {group}", failed[0]), failed
    assert sum(line.startswith("[PASS] ") for line in lines) == 6


def test_console_entry_point(tmp_path):
    out = subprocess.run([sys.executable, "-m", "fedskew.cli", "selftest"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "PASS" in out.stdout


def test_string_models_rejected(tmp_path, capsys):
    path = write_config(tmp_path, base_config(models="textcnn"))
    assert cli.main(["run", str(path)]) == 1
    assert "config error: models: must be a list" in capsys.readouterr().err
    cfg = base_config()
    cfg["federation"]["aggregators"] = "fedavg"  # was read as the aggregators 'f', 'e', ...
    assert cli.main(["run", str(write_config(tmp_path, cfg))]) == 1
    assert "config error: federation.aggregators: must be a list" in capsys.readouterr().err


def pretrained_sweep_config(out_dir, **pretrain):
    cfg = base_config(out_dir=str(out_dir))
    cfg["models"] = ["textcnn", "loraformer"]
    cfg["loraformer"] = {"layers": 1, "d_model": 8, "heads": 2, "ffn_dim": 16, "lora_rank": 2,
                         "lora_dropout": 0.0, "backbone_mode": "pretrained-frozen"}
    cfg["partition"]["alpha"] = [0.3, 2.0]
    cfg["federation"]["aggregators"] = ["fedavg", "fedavgw:0.5"]
    cfg["pretrain"] = {"steps": 3, **pretrain}
    return cfg


@pytest.mark.parametrize("jobs", [1, 2])
def test_backbone_pretrained_once_per_sweep(tmp_path, monkeypatch, jobs):
    calls = []
    real = cli.pretrain_backbone

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "pretrain_backbone", counting)
    _, summaries = run_sweep(tmp_path, pretrained_sweep_config(tmp_path / "out"), jobs=jobs)
    assert len(summaries) == 8 and all(s["status"] == "ok" for s in summaries)
    assert len(calls) == 1


def test_pretraining_failure_fails_only_loraformer_cells(tmp_path):
    # a proxy drawn with the target corpus's own spec and seed repeats its documents: it
    # takes the target's words and length, and sweep seed 10 gives it the dataset's seed 11
    cfg = pretrained_sweep_config(tmp_path / "out", topic_concentration=0.05)
    cfg["seed"] = 10
    _, summaries = run_sweep(tmp_path, cfg, jobs=2)
    status = {(s["config"]["model"], s["config"]["alpha"], s["config"]["aggregator"]): s
              for s in summaries}
    assert len(status) == 8
    for (model, _, _), s in status.items():
        if model == "textcnn":
            assert s["status"] == "ok"
        else:
            assert s["status"] == "error"
            assert "DisjointnessError" in s["error"]
            on_disk = json.loads((tmp_path / "out" / s["run_id"] / "summary.json").read_text())
            assert on_disk["status"] == "error" and "DisjointnessError" in on_disk["traceback"]
    assert "Failed runs" in (tmp_path / "out" / "report.md").read_text()


def test_target_with_fewer_than_two_words_exits_1(tmp_path, capsys):
    # the proxy corpus takes the target's word count, and needs at least 2 words
    cfg = pretrained_sweep_config(tmp_path / "out")
    cfg["dataset"]["synthetic"]["vocab_size"] = 1
    assert cli.main(["run", str(write_config(tmp_path, cfg))]) == 1
    err = capsys.readouterr().err
    assert err == ("data error: pretrain: the proxy corpus needs at least 2 words, and the "
                   "target vocabulary has 1\n"), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("corrupt,error", [
    ("token_ids", "ShapeError: embedding id out of range"),
    ("labels", "ContractError: label out of range")])
def test_bad_id_or_label_in_a_client_fails_its_cell(tmp_path, monkeypatch, corrupt, error):
    """Ids and labels are checked once per client, not per batch: a bad one still fails
    the cell that trains on it, and only that cell."""
    from dataclasses import replace
    cfg = base_config(out_dir=str(tmp_path / "out"))
    cfg["partition"]["alpha"] = [0.3, 2.0]
    real, calls = cli.run_federation, []

    def sabotage(dataset, partitions, *args, **kw):
        calls.append(1)
        if len(calls) == 1:
            row = next(p for p in partitions if p.size).sample_indices[-1]
            arrays = {"token_ids": dataset.train.token_ids.copy(),
                      "labels": dataset.train.labels.copy()}
            arrays[corrupt][row] = dataset.vocabulary.size if corrupt == "token_ids" else 3
            dataset = replace(dataset, train=type(dataset.train)(**arrays))
        return real(dataset, partitions, *args, **kw)

    monkeypatch.setattr(cli, "run_federation", sabotage)
    summaries = cli.run_experiments(cli.parse_config(write_config(tmp_path, cfg)), jobs=1)
    assert [s["status"] for s in summaries] == ["error", "ok"]
    assert summaries[0]["error"] == error


def test_bad_pretrain_keys_report_the_first_check(tmp_path, capsys):
    cfg = pretrained_sweep_config(tmp_path / "out", lr=-1, docs_per_class=0,
                                  topic_concentration=0)
    assert cli.main(["run", str(write_config(tmp_path, cfg))]) == 1
    assert capsys.readouterr().err == (
        "config error: pretrain: lr: must be a finite number > 0, got -1.0\n")
    cfg["pretrain"]["steps"] = -1
    assert cli.main(["run", str(write_config(tmp_path, cfg))]) == 1
    assert capsys.readouterr().err == (
        "config error: pretrain: steps: must be an integer >= 0, got -1\n")
    assert not (tmp_path / "out").exists()


def key_paths(cfg, prefix=()):
    """The path of every key in `cfg`, sections and their keys alike."""
    for key, value in cfg.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


def mutation_base(variant, out_dir):
    """One-round configs: the base config, or a one-cell pretrained-loraformer variant."""
    cfg = base_config() if variant == "base" else pretrained_sweep_config(out_dir)
    if variant == "loraformer":
        cfg["models"] = ["loraformer"]
        cfg["partition"]["alpha"] = [0.3]
        cfg["federation"]["aggregators"] = ["fedavg"]
    cfg["federation"]["rounds"] = 1
    cfg["out_dir"] = str(out_dir)
    return cfg


MUTATION_VALUES = [0, -1, "x", [], {}, 1.5, None]
MUTATIONS = (
    [("base", path, v) for path in key_paths(base_config()) for v in MUTATION_VALUES]
    + [("loraformer", path, v) for path in key_paths(mutation_base("loraformer", "out"))
       if path[0] in ("loraformer", "pretrain") for v in MUTATION_VALUES])


@pytest.mark.parametrize("variant, path, value", MUTATIONS,
                         ids=[f"{v}:{'.'.join(p)}={x!r}" for v, p, x in MUTATIONS])
def test_config_mutation_runs_or_is_a_config_error(tmp_path, monkeypatch, capsys, variant,
                                                   path, value):
    monkeypatch.chdir(tmp_path)
    cfg = mutation_base(variant, tmp_path / "out")
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    code = cli.main(["run", str(write_config(tmp_path, cfg))])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert code == 0 or (code == 1 and err.startswith("config error: ")), err
