import hashlib
import json
import os
import subprocess
import sys
from xml.etree import ElementTree

import pytest

import nexusopt
from nexusopt.cli import main, worker_count as sweep_workers
from nexusopt.errors import NexusError
from nexusopt.harness import CSV_HEADER
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


@pytest.mark.parametrize("name_line, run_dir", [
    ("", "run"),
    ('name = "trial"\n', "trial"),
    ('name = "a/b"\n', "a_b"),
    ('name = "../escaped"\n', ".._escaped"),
    (f'name = "{"x" * 255}"\n', "x" * 255),
], ids=["default", "trial", "slash", "parent", "255_bytes"])
def test_cli_run_without_out_writes_to_the_config_name(tmp_path, monkeypatch, capsys, name_line, run_dir):
    # the name becomes a directory label by the sweep's rule, "/" to "_", so the run stays in ./
    workdir = tmp_path / "work"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    (workdir / "exp.cfg").write_text(CONFIG_TEXT + name_line)
    assert main(["run", "--config", "exp.cfg"]) == 0
    assert sorted(os.listdir(workdir / run_dir)) == ["config.resolved.json", "metrics.csv", "summary.json"]
    assert sorted(os.listdir(tmp_path)) == ["work"]
    assert capsys.readouterr().out == f"wrote {run_dir} (6 steps)\n"


@pytest.mark.parametrize("name", ["", ".", "..", "a\u0000b", "\ud800", "x" * 300, "\u00e9" * 128],
                         ids=["empty", "dot", "dotdot", "nul", "lone_surrogate", "300_bytes", "256_utf8_bytes"])
def test_cli_run_without_out_of_a_name_that_is_no_directory_is_a_config_error(tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.cfg").write_text(CONFIG_TEXT + f"name = {json.dumps(name)}\n")
    assert main(["run", "--config", "exp.cfg"]) == 2
    assert sorted(os.listdir(tmp_path)) == ["exp.cfg"]
    assert capsys.readouterr().err == f"config error: name {name!r} names no run directory; give --out\n"


def test_cli_seed_override_changes_outputs(tmp_path, config_file):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(config_file), "--out", str(out_a)])
    main(["run", "--config", str(config_file), "--out", str(out_b), "--seed", "999"])
    assert (out_a / "metrics.csv").read_text() != (out_b / "metrics.csv").read_text()


def test_cli_config_error_exit_code(tmp_path, config_file):
    bad = tmp_path / "bad.cfg"
    bad.write_text("seed = 1\nnexus.gamm = 0.1\n")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    # a sweep axis without values
    out = tmp_path / "sweepout"
    assert main(["sweep", "--config", str(config_file), "--out", str(out), "--set", "optimizer.kind"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("content", [None, b"seed = 1\n\xff\n"], ids=["missing", "not_utf8"])
def test_cli_unreadable_config_is_a_config_error(tmp_path, capsys, command, content):
    path = tmp_path / "exp.cfg"
    if content is not None:
        path.write_bytes(content)
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith(f"config error: cannot read config {str(path)!r}: ")


@pytest.mark.parametrize("argv", [
    ["run", "--config", "{config}", "--out", "{afile}"],
    ["sweep", "--config", "{config}", "--out", "{afile}"],
    ["validate", "--suite", "nsgd_identity", "--out", "{missing}/r.json"],
    ["validate", "--suite", "nsgd_identity", "--out", "{tmp}"],
    ["plot", "{missing}/metrics.csv", "--fields", "train_loss", "--out", "{tmp}/x.svg"],
], ids=["run_out_is_a_file", "sweep_out_is_a_file", "validate_out_in_a_missing_dir", "validate_out_is_a_dir",
        "plot_of_a_missing_csv"])
def test_cli_output_errors_print_one_line(tmp_path, config_file, monkeypatch, capsys, argv):
    # an --out that cannot be a run directory fails before any problem is built,
    # and one that cannot be a report before any suite runs
    def unreachable(*args, **kwargs):
        raise AssertionError("the problem was built or a suite ran")

    monkeypatch.setattr("nexusopt.harness.build_problem", unreachable)
    monkeypatch.setattr("nexusopt.validate.validate_theorems", unreachable)
    afile = tmp_path / "afile"
    afile.write_text("kept")
    paths = {"config": config_file, "afile": afile, "missing": tmp_path / "nope", "tmp": tmp_path}
    assert main([arg.format(**paths) for arg in argv]) == 1
    assert afile.read_text() == "kept"
    assert sorted(os.listdir(tmp_path)) == ["afile", "exp.cfg"]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ".tmp" not in err  # the path given, not the report's temporary file


@pytest.mark.parametrize("key", ["problem.curvature", "schedule.base_lr", "problem.depth"])
def test_cli_non_finite_value_exit_code(tmp_path, config_file, key):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"{CONFIG_TEXT}{key} = NaN\n")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    out = tmp_path / "sweepout"
    assert main(["sweep", "--config", str(config_file), "--out", str(out), "--set", f"{key}=0.5,NaN"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("key", ["optimizer.beta1", "optimizer.beta2"])
def test_cli_sweep_rejects_a_decay_rate_of_one(tmp_path, config_file, capsys, key):
    out = tmp_path / "sweepout"
    assert main(["sweep", "--config", str(config_file), "--out", str(out), "--set", f"{key}=0.5,1.0"]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"config error: invalid value for {key}: must lie in [0, 1), got 1.0\n"


def strict_json(path):
    """The JSON document at path, failing on the Infinity and NaN tokens that JSON does not allow."""
    def reject(token):
        raise AssertionError(f"{path} holds {token}")

    return json.loads(path.read_text(), parse_constant=reject)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("extra, error", [
    ("problem.init_scale = 1e300\n", "NonFiniteValue: step 0: train_loss is inf"),
    ('optimizer.kind = "nexus_adamw"\nnexus.gamma = 1e300\n', "NonFiniteValue: step 2: pseudo_grad_norm is inf"),
], ids=["overflowing_loss", "overflowing_pseudo_gradient"])
def test_cli_run_that_diverges_is_a_failed_run(tmp_path, capsys, extra, error):
    # theta stays finite in both runs, so only the emitted row shows the divergence
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(CONFIG_TEXT + extra)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert strict_json(out / "summary.json") == {"error": error}
    assert (out / "metrics.csv").read_text() == CSV_HEADER + "\n"
    assert capsys.readouterr().err == f"run failed: {error}\n"


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_cli_sweep_with_a_diverging_run_finishes_the_other_runs(tmp_path, config_file, monkeypatch, capsys):
    monkeypatch.setenv("NEXUS_OPT_THREADS", "1")
    out = tmp_path / "sweepout"
    assert main(["sweep", "--config", str(config_file), "--out", str(out), "--set", "problem.init_scale=1,1e300"]) == 1
    index = strict_json(out / "sweep.json")
    assert sorted(index) == ["init_scale=1", "init_scale=1e+300"]
    assert "error" not in index["init_scale=1"]
    assert index["init_scale=1e+300"] == {"error": "NonFiniteValue: step 0: train_loss is inf"}
    assert strict_json(out / "diff.json")["final_metric_deltas"] == dict.fromkeys(
        ("train_loss", "ood_loss", "mean_pairwise_cos"))
    assert (out / "init_scale=1e+300" / "metrics.csv").read_text() == CSV_HEADER + "\n"
    assert "run init_scale=1e+300 failed: NonFiniteValue" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_cli_run_whose_loss_overflows_prints_no_warning(tmp_path, capsys):
    # every value an emit evaluates is checked for finiteness, so an overflow there is reported once, as the error
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(CONFIG_TEXT + "problem.init_scale = 1e300\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "run failed: NonFiniteValue: step 0: train_loss is inf\n"


DEEP = "[" * 100_000


@pytest.mark.parametrize("entry", ["config_value", "set_value", "taskset_file"])
def test_cli_json_nested_too_deeply_is_a_config_error(tmp_path, config_file, monkeypatch, capsys, entry):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("NEXUS_OPT_THREADS", "1")
    out = tmp_path / "out"
    if entry == "config_value":
        config_file.write_text(CONFIG_TEXT + f"problem.widths = {DEEP}\n")
        assert main(["run", "--config", str(config_file), "--out", str(out)]) == 2
        assert not out.exists()
        error = f"config error: {config_file}:7: value for problem.widths is nested too deeply to decode\n"
        assert capsys.readouterr().err == error
    elif entry == "set_value":
        assert main(["sweep", "--config", str(config_file), "--out", str(out), "--set", f"problem.widths={DEEP}"]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == "config error: --set problem.widths: a value is nested too deeply to decode\n"
    else:
        # a task-set file is read when its run starts: the run fails, and a sweep goes on to its other runs
        (tmp_path / "deep.json").write_text(DEEP)
        config_file.write_text(CONFIG_TEXT + 'problem.kind = "custom_taskset_file"\nproblem.path = "deep.json"\n')
        error = "ConfigError: cannot read task set 'deep.json': RecursionError: maximum recursion depth exceeded"
        assert main(["run", "--config", str(config_file), "--out", str(out)]) == 1
        assert strict_json(out / "summary.json")["error"].startswith(error)
        sweep_out = tmp_path / "sweepout"
        argv = ["sweep", "--config", str(config_file), "--out", str(sweep_out),
                "--set", 'problem.path="deep.json","nofile.json"']
        assert main(argv) == 1
        index = strict_json(sweep_out / "sweep.json")
        assert sorted(index) == ["path=deep.json", "path=nofile.json"]
        assert index["path=deep.json"]["error"].startswith(error)
        assert index["path=nofile.json"]["error"].startswith("ConfigError: cannot read task set 'nofile.json': ")
        assert all(os.listdir(sweep_out / label) for label in index)


def test_cli_run_error_summary_names_step_and_task(tmp_path):
    cfg = tmp_path / "degenerate.cfg"
    cfg.write_text(CONFIG_TEXT + "optimizer.kind = \"nexus_adamw\"\nnexus.grad_floor = 1e9\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert sorted(os.listdir(out)) == ["config.resolved.json", "metrics.csv", "summary.json"]
    error = json.loads((out / "summary.json").read_text())["error"]
    assert error.startswith("DegenerateGradient: outer step 1, task ")


def test_cli_validate_suite(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(["validate", "--suite", "nsgd_identity", "--out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["all_passed"]
    assert {"check_name", "status", "measured", "lower", "upper"} <= set(report["checks"][0])
    # without --out the report goes to stdout, and the table to stderr
    capsys.readouterr()
    assert main(["validate", "--suite", "third_order"]) == 0
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["all_passed"]
    assert [c["check_name"] for c in report["checks"]] == [
        "third_order_residual_slope", "third_order_tensor_term_zero_on_quadratics"
    ]
    assert err.splitlines() == [
        "[PASS] third_order_residual_slope: measured=4.01408 in [3.8, 4.2]",
        "[PASS] third_order_tensor_term_zero_on_quadratics: measured=0 in [0, 0]",
    ]


def test_cli_validate_negative_control(tmp_path):
    code = main(["validate", "--suite", "second_order", "--gamma", "10", "--out",
                 str(tmp_path / "r.json")])
    assert code == 1
    report = json.loads((tmp_path / "r.json").read_text())
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    # the residual/bound ratio is infinite where the bound gives no coverage
    assert [(c["check_name"], c["measured"], c["upper"]) for c in failed] == [
        ("second_order_residual_within_bound", None, 1.0)
    ]


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def _judged(check) -> str:
    measured, lower, upper = check["measured"], check["lower"], check["upper"]
    inside = measured is not None and (lower is None or lower <= measured) and (upper is None or measured <= upper)
    return "pass" if inside else "fail"


@pytest.mark.parametrize("argv, code", [
    (["--suite", "all"], 0),
    (["--suite", "second_order", "--gamma", "10"], 1),
])
def test_every_validate_status_follows_from_the_reports_own_numbers(tmp_path, capsys, argv, code):
    report_path = tmp_path / "report.json"
    assert main(["validate", *argv, "--out", str(report_path)]) == code
    report = _strict_json(report_path.read_text())
    assert main(["validate", *argv]) == code
    assert _strict_json(capsys.readouterr().out) == report
    assert [c["status"] for c in report["checks"]] == [_judged(c) for c in report["checks"]]
    assert report["all_passed"] is (code == 0)


VALIDATE_ALL_SHA256 = "dd8e6e18b6a5a7cb56f796678dd8ae348da5f9990262f2afc21d351d4abce404"


def test_cli_validate_all_in_two_workers_writes_the_recorded_report(tmp_path, monkeypatch, forked_workers):
    monkeypatch.setenv("NEXUS_OPT_THREADS", "2")
    report_path = tmp_path / "report.json"
    assert main(["validate", "--suite", "all", "--out", str(report_path)]) == 0
    assert forked_workers == ([2] if len(os.sched_getaffinity(0)) >= 2 else [])
    assert hashlib.sha256(report_path.read_bytes()).hexdigest() == VALIDATE_ALL_SHA256


def test_cli_validate_one_suite_starts_no_worker_pool(tmp_path, monkeypatch, forked_workers):
    monkeypatch.setenv("NEXUS_OPT_THREADS", "2")
    report_path = tmp_path / "r.json"
    assert main(["validate", "--suite", "second_order", "--gamma", "10", "--out", str(report_path)]) == 1
    assert json.loads(report_path.read_text())["all_passed"] is False
    assert forked_workers == []


def test_cli_validate_rejects_an_unknown_suite_and_names_the_suites(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["validate", "--suite", "bogus", "--out", str(report_path)]) == 2
    assert not report_path.exists()
    err = capsys.readouterr().err
    assert "'bogus'" in err and "second_order" in err and "nsgd_identity" in err


@pytest.mark.parametrize("suite, gamma, message", [
    ("second_order", "-1", "must be finite and > 0, got -1.0"),
    ("second_order", "0", "must be finite and > 0, got 0.0"),
    ("second_order", "nan", "must be finite and > 0, got nan"),
    ("all", "inf", "must be finite and > 0, got inf"),
    ("closeness", "5", "applies to the second_order suite (or all), not 'closeness'"),
])
def test_cli_validate_rejects_a_bad_gamma_override(tmp_path, capsys, suite, gamma, message):
    report_path = tmp_path / "report.json"
    assert main(["validate", "--suite", suite, "--gamma", gamma, "--out", str(report_path)]) == 2
    assert not report_path.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: a gamma override ") and message in err and err.count("\n") == 1


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


def test_cli_sweep_keeps_a_comma_inside_a_json_string(tmp_path, config_file, monkeypatch):
    monkeypatch.setenv("NEXUS_OPT_THREADS", "1")
    out = tmp_path / "sweepout"
    assert main(["sweep", "--config", str(config_file), "--out", str(out), "--set", 'name="a,b",c']) == 0
    assert sorted(d for d in os.listdir(out) if (out / d).is_dir()) == ["name=a,b", "name=c"]
    assert json.loads((out / "name=a,b" / "summary.json").read_text())["name"] == "a,b"


@pytest.mark.parametrize("axis", [
    'name="a\\u0000b"',
    'problem.path="ok.json","a\\u0000b"',
    "name=a," + "x" * 300,
], ids=["nul_in_name", "nul_in_path", "overlong_name"])
def test_cli_sweep_over_a_label_that_no_directory_can_take_writes_nothing(tmp_path, config_file, capsys, axis):
    out = tmp_path / "sweepout"
    assert main(["sweep", "--config", str(config_file), "--out", str(out), "--set", axis]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("config error: run label ")


def test_an_integer_too_long_to_read_is_a_short_config_error_in_a_run_and_a_sweep(
    tmp_path, config_file, capsys, monkeypatch
):
    digits = "1" * 5000
    monkeypatch.chdir(tmp_path)  # the message names the config by the path it was given
    (tmp_path / "long_seed.cfg").write_text(f"seed = {digits}\n")
    assert main(["run", "--config", "long_seed.cfg", "--out", str(tmp_path / "run")]) == 2
    run_err = capsys.readouterr().err
    assert "value for seed is an integer too long to read" in run_err and "(5000 characters)" in run_err
    out = tmp_path / "sweepout"
    assert main(["sweep", "--config", str(config_file), "--out", str(out), "--set", f"seed={digits}"]) == 2
    sweep_err = capsys.readouterr().err
    assert "invalid value for seed: expected int, got str" in sweep_err and "(5000 characters)" in sweep_err
    for err in (run_err, sweep_err):
        assert len(err) < 200
    assert not (tmp_path / "run").exists() and not out.exists()


def test_cli_run_and_a_one_run_sweep_write_the_same_outputs(tmp_path, config_file):
    out_run, out_sweep = tmp_path / "run", tmp_path / "sweep"
    assert main(["run", "--config", str(config_file), "--out", str(out_run)]) == 0
    assert main(["sweep", "--config", str(config_file), "--out", str(out_sweep)]) == 0
    swept = out_sweep / "base"
    for name in ("metrics.csv", "config.resolved.json"):
        assert (swept / name).read_bytes() == (out_run / name).read_bytes()
    summaries = [json.loads((d / "summary.json").read_text()) for d in (out_run, swept)]
    for summary in summaries:
        assert summary.pop("wall_clock") > 0
    assert summaries[0] == summaries[1]
    assert json.loads((out_sweep / "sweep.json").read_text()) == {"base": summaries[1]}


def test_cli_sweep_over_widths_lists(tmp_path):
    cfg = tmp_path / "mlp.cfg"
    cfg.write_text(
        "seed = 2\ntotal_steps = 2\nproblem.kind = \"mlp_multisource\"\nproblem.k = 2\n"
        "problem.n_per_source = 8\nproblem.widths = [4, 1]\n"
    )
    out = tmp_path / "sweepout"
    code = main(["sweep", "--config", str(cfg), "--out", str(out), "--set", "problem.widths=[4,3,1],[4,1]"])
    assert code == 0
    assert sorted(d for d in os.listdir(out) if (out / d).is_dir()) == ["widths=[4, 1]", "widths=[4, 3, 1]"]
    assert json.loads((out / "widths=[4, 3, 1]" / "config.resolved.json").read_text())["problem.widths"] == [4, 3, 1]


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
    assert (out / "metrics.csv").read_text() == CSV_HEADER + "\n"
    assert "run failed" in capsys.readouterr().err


WSD_CONFIG_TEXT = CONFIG_TEXT.replace("total_steps = 6", "total_steps = 10") + (
    "schedule.kind = \"wsd\"\nschedule.warmup_steps = 8\n"
)


def test_cli_run_with_a_wsd_decay_longer_than_the_run_records_error(tmp_path, capsys):
    cfg = tmp_path / "wsd.cfg"
    cfg.write_text(WSD_CONFIG_TEXT + "schedule.decay_steps = 5\n")
    out = tmp_path / "failout"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["error"] == (
        "ConfigError: invalid schedule.decay_steps: warmup_steps + decay_steps exceed total_steps: 8 + 5 > 10"
    )
    assert (out / "metrics.csv").read_text() == CSV_HEADER + "\n"
    assert "run failed" in capsys.readouterr().err


def test_cli_sweep_with_a_wsd_decay_longer_than_the_run_finishes_the_other_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NEXUS_OPT_THREADS", "1")
    cfg = tmp_path / "wsd.cfg"
    cfg.write_text(WSD_CONFIG_TEXT)
    out = tmp_path / "sweepout"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--set", "schedule.decay_steps=1,5"]) == 1
    index = json.loads((out / "sweep.json").read_text())
    assert sorted(index) == ["decay_steps=1", "decay_steps=5"]
    assert "error" not in index["decay_steps=1"]
    assert index["decay_steps=5"]["error"].startswith("ConfigError: invalid schedule.decay_steps")
    assert (out / "decay_steps=1" / "metrics.csv").exists()
    assert (out / "decay_steps=5" / "metrics.csv").read_text() == CSV_HEADER + "\n"
    assert "run decay_steps=5 failed: ConfigError" in capsys.readouterr().err


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
    assert (out / bad_label / "metrics.csv").read_text() == CSV_HEADER + "\n"
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


def test_plot_escapes_run_names(tmp_path, config_file):
    out = tmp_path / "a&b"
    main(["run", "--config", str(config_file), "--out", str(out)])
    svg = tmp_path / "loss.svg"
    plot(str(out / "metrics.csv"), ["train_loss"], str(svg))
    labels = [el.text for el in ElementTree.parse(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert "a&b:train_loss" in labels


def test_plot_missing_field(tmp_path, config_file):
    out = tmp_path / "r"
    main(["run", "--config", str(config_file), "--out", str(out)])
    target = tmp_path / "x.svg"
    with pytest.raises(NexusError, match="field 'no_such_field' missing from "):
        plot(str(out / "metrics.csv"), ["no_such_field"], str(target))
    assert not target.exists()


@pytest.mark.parametrize("content, message", [
    (b"step,train_loss\n0,1.0\n2,abc\n", "{path} data row 2: field 'train_loss' is not a finite number: 'abc'"),
    (b"step,train_loss\nx,1.0\n", "{path} data row 1: field 'step' is not a finite number: 'x'"),
    (b"step,train_loss\n0,1.0\n2,inf\n", "{path} data row 2: field 'train_loss' is not a finite number: 'inf'"),
    (b"train_loss,step\n1.0,0\n2.0\n", "{path} data row 2: field 'step' is not a finite number: None"),
    (b"step,train_loss\n0,\xff\n", "cannot read {path}: UnicodeDecodeError: "),
    (b"step,train_loss\n0," + b"1" * 200_000 + b"\n", "cannot read {path}: Error: field larger than field limit"),
], ids=["bad_cell", "bad_step", "inf_cell", "short_row", "not_utf8", "oversized_field"])
def test_cli_plot_of_a_bad_csv_prints_one_line(tmp_path, capsys, content, message):
    metrics = tmp_path / "metrics.csv"
    metrics.write_bytes(content)
    svg = tmp_path / "p.svg"
    assert main(["plot", str(metrics), "--fields", "train_loss", "--out", str(svg)]) == 1
    assert not svg.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(path=metrics)) and err.count("\n") == 1


@pytest.mark.parametrize("fields", ["", ",,"])
def test_cli_plot_of_no_fields_is_a_config_error(tmp_path, capsys, fields):
    metrics = tmp_path / "metrics.csv"
    metrics.write_text(CSV_HEADER + "\n0,0.1,1.0,1.0,0.5,1.0,0.0\n")
    svg = tmp_path / "p.svg"
    assert main(["plot", str(metrics), "--fields", fields, "--out", str(svg)]) == 2
    assert not svg.exists()
    assert capsys.readouterr().err == "config error: no fields requested\n"


def test_plot_empty_csv(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("step,lr,train_loss,ood_loss,mean_pairwise_cos,grad_norm,pseudo_grad_norm\n")
    with pytest.raises(NexusError, match="empty.csv contains no data rows"):
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
    assert (out / "metrics.csv").read_text() == CSV_HEADER + "\n"


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
    assert (out / "metrics.csv").read_text() == CSV_HEADER + "\n"


@pytest.mark.parametrize("extra, named", [
    (["--set", "optimizer.kind=adamw,sgd", "--set", "optimizer.kind=nsgd_adamw"], "optimizer.kind"),
    (["--num-seeds", "-3"], "-3"),
    (["--set", "seed=1,2,3", "--num-seeds", "2"], "num_seeds=2"),
], ids=["repeated_set_key", "negative_num_seeds", "seed_axis_and_num_seeds"])
def test_cli_sweep_rejects_a_conflicting_axis_and_writes_nothing(tmp_path, config_file, capsys, extra, named):
    out = tmp_path / "sweepout"
    assert main(["sweep", "--config", str(config_file), "--out", str(out), *extra]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err


def test_cli_run_and_sweep_load_no_validate_oracles_plot_or_worker_pool(tmp_path, config_file):
    """A fresh interpreter: the CLI module, a run and a one-worker sweep import
    none of the modules that only validate, plot or a worker pool call, and a
    two-worker sweep and validate load no worker pool either."""
    script = (
        "import os, sys\n"
        "POOL = ('multiprocessing', 'concurrent.futures')\n"
        "UNUSED = ('nexusopt.validate', 'nexusopt.oracles', 'nexusopt.svgplot', 'csv', 'html') + POOL\n"
        "def loaded(modules=UNUSED): return [m for m in modules if m in sys.modules]\n"
        "from nexusopt.cli import main\n"
        "print(loaded())\n"
        f"assert main(['run', '--config', {str(config_file)!r}, '--out', {str(tmp_path / 'run')!r}]) == 0\n"
        f"assert main(['sweep', '--config', {str(config_file)!r}, '--out', {str(tmp_path / 'sweep')!r},\n"
        "             '--set', 'optimizer.kind=adamw,sgd']) == 0\n"
        "print(loaded())\n"
        "os.environ['NEXUS_OPT_THREADS'] = '2'\n"
        f"assert main(['sweep', '--config', {str(config_file)!r}, '--out', {str(tmp_path / 'sweep2')!r},\n"
        "             '--set', 'optimizer.kind=adamw,sgd']) == 0\n"
        "print(loaded(POOL))\n"
        f"assert main(['validate', '--suite', 'all', '--out', {str(tmp_path / 'report.json')!r}]) == 0\n"
        "print(loaded(POOL))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nexusopt.__file__)), NEXUS_OPT_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = [line for line in proc.stdout.splitlines() if line.startswith("[")]
    assert loaded == ["[]"] * 4
    assert (tmp_path / "sweep" / "sweep.json").exists()
    assert (tmp_path / "sweep2" / "sweep.json").read_bytes() == (tmp_path / "sweep" / "sweep.json").read_bytes()
    assert (tmp_path / "report.json").exists()
