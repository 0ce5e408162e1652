import hashlib
import json
import os

import pytest

from nexusopt.cli import main, worker_count as sweep_workers
from nexusopt.errors import EmptyData, FieldMissing
from nexusopt.svgplot import plot

CONFIG_TEXT = (
    "seed = 11\n"
    "total_steps = 6\n"
    "metric_cadence = 2\n"
    "problem.k = 2\n"
    "problem.dim = 2\n"
    "schedule.base_lr = 0.05\n"
)


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG_TEXT)
    return path


def test_cli_run_and_plot(tmp_path, config_file, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_file), "--out", str(out)]) == 0
    csv_path = out / "metrics.csv"
    assert csv_path.exists() and (out / "summary.json").exists()

    svg = tmp_path / "loss.svg"
    assert main(["plot", str(csv_path), "--fields", "train_loss", "--out", str(svg)]) == 0
    text = svg.read_text()
    assert text.count("<polyline") == 1
    rows = len(csv_path.read_text().splitlines()) - 1
    points = text.split('points="')[1].split('"')[0].split()
    assert len(points) == rows


def test_cli_seed_override_changes_outputs(tmp_path, config_file):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(config_file), "--out", str(out_a)])
    main(["run", "--config", str(config_file), "--out", str(out_b), "--seed", "999"])
    assert (out_a / "metrics.csv").read_text() != (out_b / "metrics.csv").read_text()


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("seed = 1\nnexus.gamm = 0.1\n")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_cli_run_error_summary_names_step_and_task(tmp_path):
    cfg = tmp_path / "degenerate.cfg"
    cfg.write_text(CONFIG_TEXT + "optimizer.kind = \"nexus_adamw\"\nnexus.grad_floor = 1e9\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert os.listdir(out) == ["summary.json"]
    error = json.loads((out / "summary.json").read_text())["error"]
    assert error.startswith("DegenerateGradient: outer step 1, task ")


def test_cli_validate_suite(tmp_path):
    report_path = tmp_path / "report.json"
    code = main(["validate", "--suite", "nsgd_identity", "--out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["all_passed"]
    assert {"check_name", "status", "measured", "bound", "tolerance"} <= set(report["checks"][0])


def test_cli_validate_negative_control(tmp_path):
    code = main(["validate", "--suite", "second_order", "--gamma", "10", "--out",
                 str(tmp_path / "r.json")])
    assert code == 1
    report = json.loads((tmp_path / "r.json").read_text())
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert any(c["measured"] > c["bound"] for c in failed)


VALIDATE_ALL_SHA256 = "e0039a72bd78282394126aeacaa5ac940f3eec7fecc6021c67483ed08e4683e3"


def test_cli_validate_all_in_two_workers_writes_the_recorded_report(tmp_path, monkeypatch, started_pools):
    monkeypatch.setenv("NEXUS_OPT_THREADS", "2")
    report_path = tmp_path / "report.json"
    assert main(["validate", "--suite", "all", "--out", str(report_path)]) == 0
    assert started_pools == ([2] if len(os.sched_getaffinity(0)) >= 2 else [])
    assert hashlib.sha256(report_path.read_bytes()).hexdigest() == VALIDATE_ALL_SHA256


def test_cli_validate_one_suite_starts_no_worker_pool(tmp_path, monkeypatch, started_pools):
    monkeypatch.setenv("NEXUS_OPT_THREADS", "2")
    report_path = tmp_path / "r.json"
    assert main(["validate", "--suite", "second_order", "--gamma", "10", "--out", str(report_path)]) == 1
    assert json.loads(report_path.read_text())["all_passed"] is False
    assert started_pools == []


@pytest.mark.parametrize("value", ["0", "-1", "abc", ""])
def test_cli_validate_rejects_a_bad_thread_cap(tmp_path, monkeypatch, value):
    monkeypatch.setenv("NEXUS_OPT_THREADS", value)
    report_path = tmp_path / "report.json"
    assert main(["validate", "--suite", "all", "--out", str(report_path)]) == 2
    assert not report_path.exists()


def test_cli_sweep(tmp_path, config_file):
    out = tmp_path / "sweepout"
    code = main([
        "sweep", "--config", str(config_file), "--out", str(out),
        "--set", "optimizer.kind=adamw,nexus_adamw",
    ])
    assert code == 0
    assert (out / "diff.json").exists()
    assert len([d for d in os.listdir(out) if (out / d).is_dir()]) == 2


def test_cli_sweep_exits_1_when_a_run_fails(tmp_path, config_file, capsys):
    out = tmp_path / "sweepout"
    code = main([
        "sweep", "--config", str(config_file), "--out", str(out),
        "--set", "optimizer.kind=nexus_adamw", "--set", "nexus.grad_floor=1e-12,1e9",
    ])
    assert code == 1
    index = json.loads((out / "sweep.json").read_text())
    assert sorted(index) == ["grad_floor=1000000000.0-kind=nexus_adamw", "grad_floor=1e-12-kind=nexus_adamw"]
    assert "error" in index["grad_floor=1000000000.0-kind=nexus_adamw"]
    assert (out / "grad_floor=1e-12-kind=nexus_adamw" / "metrics.csv").exists()
    assert "run grad_floor=1000000000.0-kind=nexus_adamw failed: DegenerateGradient" in capsys.readouterr().err


def test_cli_run_with_a_malformed_taskset_file_records_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONFIG_TEXT + f"problem.kind = \"custom_taskset_file\"\nproblem.path = {json.dumps(str(bad))}\n")
    out = tmp_path / "failout"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["error"].startswith("ConfigError: cannot read task set")
    assert not (out / "metrics.csv").exists()
    assert "run failed" in capsys.readouterr().err


def test_cli_sweep_with_a_bad_taskset_path_finishes_the_other_runs(tmp_path, monkeypatch, capsys):
    from nexusopt.numerics import rng_root
    from nexusopt.oracles import random_quadratic_taskset
    from nexusopt.tasks import taskset_to_json

    monkeypatch.setenv("NEXUS_OPT_THREADS", "1")
    good = tmp_path / "good.json"
    good.write_text(taskset_to_json(random_quadratic_taskset(2, 2, rng_root(9))))
    cfg = tmp_path / "custom.cfg"
    cfg.write_text(CONFIG_TEXT + f"problem.kind = \"custom_taskset_file\"\nproblem.path = {json.dumps(str(good))}\n")
    out = tmp_path / "sweepout"
    missing = tmp_path / "nope" / "b.json"
    code = main(["sweep", "--config", str(cfg), "--out", str(out), "--set", f"problem.path={good},{missing}"])
    assert code == 1
    good_label, bad_label = (f"path={p}".replace("/", "_") for p in (good, missing))
    index = json.loads((out / "sweep.json").read_text())
    assert sorted(index) == sorted([good_label, bad_label])
    assert "error" not in index[good_label]
    assert index[bad_label]["error"].startswith("ConfigError: cannot read task set")
    assert (out / good_label / "metrics.csv").exists()
    assert not (out / bad_label / "metrics.csv").exists()
    assert f"run {bad_label} failed: ConfigError" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1", "abc", ""])
def test_cli_sweep_rejects_a_bad_thread_cap(tmp_path, config_file, monkeypatch, value):
    monkeypatch.setenv("NEXUS_OPT_THREADS", value)
    out = tmp_path / "sweepout"
    code = main(["sweep", "--config", str(config_file), "--out", str(out), "--set", "optimizer.kind=adamw,sgd"])
    assert code == 2
    assert not out.exists()


def test_sweep_workers_are_the_cores_capped_by_the_thread_cap(monkeypatch):
    cores = len(os.sched_getaffinity(0))
    monkeypatch.delenv("NEXUS_OPT_THREADS", raising=False)
    assert sweep_workers() == cores
    monkeypatch.setenv("NEXUS_OPT_THREADS", "1")
    assert sweep_workers() == 1
    monkeypatch.setenv("NEXUS_OPT_THREADS", "64")
    assert sweep_workers() == cores


def test_plot_two_runs_share_legend(tmp_path, config_file):
    out_a, out_b = tmp_path / "runA", tmp_path / "runB"
    main(["run", "--config", str(config_file), "--out", str(out_a)])
    main(["run", "--config", str(config_file), "--out", str(out_b), "--seed", "4"])
    svg = tmp_path / "cos.svg"
    plot([str(out_a / "metrics.csv"), str(out_b / "metrics.csv")], ["mean_pairwise_cos"], str(svg))
    text = svg.read_text()
    assert "runA:mean_pairwise_cos" in text and "runB:mean_pairwise_cos" in text
    assert text.count("<polyline") == 2


def test_plot_missing_field(tmp_path, config_file):
    out = tmp_path / "r"
    main(["run", "--config", str(config_file), "--out", str(out)])
    target = tmp_path / "x.svg"
    with pytest.raises(FieldMissing):
        plot(str(out / "metrics.csv"), ["no_such_field"], str(target))
    assert not target.exists()


def test_plot_empty_csv(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("step,lr,train_loss,ood_loss,mean_pairwise_cos,grad_norm,pseudo_grad_norm\n")
    with pytest.raises(EmptyData):
        plot(str(empty), ["train_loss"], str(tmp_path / "y.svg"))
    assert not (tmp_path / "y.svg").exists()


def test_cli_rejects_missing_referenced_file(tmp_path):
    # the run reads the task set, so a missing file fails it as a malformed one does
    cfg = tmp_path / "fail.cfg"
    cfg.write_text(
        "seed = 1\ntotal_steps = 5\nproblem.kind = \"custom_taskset_file\"\n"
        f"problem.path = {json.dumps(str(tmp_path / 'missing.json'))}\n"
    )
    out = tmp_path / "failout"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["error"].startswith("ConfigError: cannot read task set")
    assert not (out / "metrics.csv").exists()


def test_cli_run_failure_records_error(tmp_path):
    # a degenerate run (inner loop started at a task minimizer) exits 1 and
    # leaves an error marker in summary.json
    cfg = tmp_path / "degenerate.cfg"
    cfg.write_text(
        "seed = 1\ntotal_steps = 5\nproblem.kind = \"quadratic_family\"\n"
        "problem.variance = 0.0\nproblem.init_scale = 1e-300\n"
        "optimizer.kind = \"nexus_adamw\"\nnexus.inner_steps = 2\n"
    )
    out = tmp_path / "failout"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    summary = json.loads((out / "summary.json").read_text())
    assert "error" in summary
    assert not (out / "metrics.csv").exists()
