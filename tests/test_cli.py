import json
import subprocess
import sys

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


def test_not_json_and_missing_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(cli.ConfigError, match="JSON"):
        cli.parse_config(bad)
    with pytest.raises(cli.ConfigError, match="not found"):
        cli.parse_config(tmp_path / "absent.json")


def test_run_id_stable_under_key_order(tmp_path):
    cfg = base_config()
    a = cli.parse_config(write_config(tmp_path, cfg, "a.json"))
    # same content, different key insertion order
    shuffled = dict(reversed(list(cfg.items())))
    shuffled["federation"] = dict(reversed(list(cfg["federation"].items())))
    b = cli.parse_config(write_config(tmp_path, shuffled, "b.json"))
    assert [r["run_id"] for r in cli.plan_runs(a)] == [r["run_id"] for r in cli.plan_runs(b)]


def test_run_id_changes_with_config(tmp_path):
    a = cli.parse_config(write_config(tmp_path, base_config(), "a.json"))
    changed = base_config(seed=12)
    b = cli.parse_config(write_config(tmp_path, changed, "b.json"))
    assert cli.plan_runs(a)[0]["run_id"] != cli.plan_runs(b)[0]["run_id"]


def test_sweep_cross_product_counts(tmp_path):
    cfg = base_config()
    cfg["models"] = ["textcnn", "loraformer"]
    cfg["partition"]["alpha"] = [0.1, 5.0]
    cfg["federation"]["aggregators"] = ["fedavg", "fedavgw:0.5"]
    parsed = cli.parse_config(write_config(tmp_path, cfg))
    runs = cli.plan_runs(parsed)
    assert len(runs) == 8
    assert len({r["run_id"] for r in runs}) == 8


def test_rounds_by_alpha_override(tmp_path):
    cfg = base_config()
    cfg["partition"]["alpha"] = [0.1, 5.0]
    cfg["federation"]["rounds"] = 7
    cfg["federation"]["rounds_by_alpha"] = {"0.1": 3}
    runs = cli.plan_runs(cli.parse_config(write_config(tmp_path, cfg)))
    by_alpha = {r["alpha"]: r["rounds"] for r in runs}
    assert by_alpha == {0.1: 3, 5.0: 7}


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
    assert "8.7x" in report
    assert "| 0.1 | textcnn | 86.6 | 54.5 | 32.1 |" in report or \
        "| 0.1 | textcnn | 86.6 | 54.5 | 32.2 |" in report


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert cli.main(["run", str(bad)]) == 1
    cfg = base_config(out_dir=str(tmp_path / "out"))
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", str(path), "--rounds", "1"]) == 0
    assert cli.main(["report", str(tmp_path / "out")]) == 0
    assert cli.main(["report", str(tmp_path / "empty")]) == 1
    assert cli.main(["partition", str(path)]) == 0


def test_cli_seed_and_rounds_flags(tmp_path):
    cfg = base_config(out_dir=str(tmp_path / "out"))
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", str(path), "--seed", "99", "--rounds", "1"]) == 0
    summaries = sorted((tmp_path / "out").glob("*/summary.json"))
    data = json.loads(summaries[0].read_text())
    assert data["config"]["seed"] == 99
    assert data["config"]["rounds"] == 1
    manifest = json.loads((summaries[0].parent / "partition.json").read_text())
    assert manifest["seed"] == 99


def test_env_var_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("FEDSKEW_OUT", str(tmp_path / "envout"))
    cfg = base_config()
    cfg.pop("out_dir", None)
    parsed = cli.parse_config(write_config(tmp_path, cfg))
    assert parsed.out_dir == str(tmp_path / "envout")


def test_selftest_passes():
    assert cli.selftest()


def test_console_entry_point(tmp_path):
    out = subprocess.run([sys.executable, "-m", "fedskew.cli", "selftest"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "PASS" in out.stdout


def test_string_models_rejected(tmp_path, capsys):
    path = write_config(tmp_path, base_config(models="textcnn"))
    assert cli.main(["run", str(path)]) == 1
    assert "config error: models: must be a list" in capsys.readouterr().err


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
    # a proxy drawn with the target corpus's own spec and seed repeats its documents
    cfg = pretrained_sweep_config(tmp_path / "out", seed=11, vocab_size=40, doc_length=6,
                                  topic_concentration=0.05)
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
