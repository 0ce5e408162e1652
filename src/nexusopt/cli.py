"""Command-line entry point: run, validate, plot, sweep.

Exit codes: 0 success, 1 run error (any run of a sweep), failed theorem check
or unusable output path, 2 config error.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from .config import decode_axis, load_config
from .errors import ConfigError, NexusError
from .harness import run_dir_label, run_into, sweep, write_json_atomic

# validate (and with it oracles) and svgplot are imported inside the subcommands
# that call them: without cached bytecode they are a third of the package's
# compile time, which every start of a run or a sweep would otherwise pay


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = cfg.with_overrides({"seed": args.seed})
    out_dir = args.out or run_dir_label(cfg["name"], "name", "; give --out")
    summary = run_into(cfg, out_dir)
    if "error" in summary:
        print(f"run failed: {summary['error']}", file=sys.stderr)
        return 1
    print(f"wrote {out_dir} ({summary['steps']} steps)")
    return 0


def _check_report_path(path: str) -> None:
    """Raise, naming path, the OSError that writing a report to it would meet:
    path is a directory, or its directory is missing."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def cmd_validate(args) -> int:
    from .validate import report_to_dict, validate_theorems

    if args.out:
        _check_report_path(args.out)  # before any suite runs
    results = validate_theorems(args.suite, gamma_override=args.gamma, workers=worker_count())
    report = report_to_dict(results)
    if args.out:
        write_json_atomic(args.out, report)
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    for r in results:
        print(f"[{r.status.upper():4}] {r.check_name}: measured={r.reading}", file=sys.stderr)
    return 0 if report["all_passed"] else 1


def cmd_plot(args) -> int:
    from .svgplot import plot

    fields = [f.strip() for f in args.fields.split(",") if f.strip()]
    out = plot(args.csvs, fields, args.out)
    print(f"wrote {out}")
    return 0


def worker_count() -> int:
    """Worker processes for a sweep's runs or validate's suites: the usable
    cores, capped by NEXUS_OPT_THREADS when it is set."""
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    raw = os.environ.get("NEXUS_OPT_THREADS")
    if raw is None:
        return workers
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ConfigError(f"NEXUS_OPT_THREADS must be a positive integer, got {raw!r}")
    return min(workers, cap)


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = cfg.with_overrides({"seed": args.seed})
    overrides = {}
    for spec in args.set or []:
        if "=" not in spec:
            raise ConfigError(f"--set expects key=v1,v2,... got {spec!r}")
        key, _, values = spec.partition("=")
        key = key.strip()
        if key in overrides:
            raise ConfigError(f"--set {key} given twice; list all its values in one --set")
        try:
            overrides[key] = decode_axis(values)
        except RecursionError as exc:
            raise ConfigError(f"--set {key}: a value is nested too deeply to decode", key) from exc
    results = sweep(cfg, args.out, overrides, num_seeds=args.num_seeds, workers=worker_count())
    print(f"swept {len(results)} runs into {args.out}")
    failed = [(label, summary["error"]) for label, summary in results if "error" in summary]
    for label, error in failed:
        print(f"run {label} failed: {error}", file=sys.stderr)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nexusopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment config")
    p_run.add_argument("--config", required=True, help="path to the experiment config")
    p_run.add_argument("--out", default=None, help="output directory (default: ./<name>)")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.set_defaults(fn=cmd_run)

    p_val = sub.add_parser("validate", help="run theorem-validation suites")
    p_val.add_argument("--suite", default="all", help="a suite name, or all (the default)")
    p_val.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    p_val.add_argument("--gamma", type=float, default=None,
                       help="override the inner step size fixture (negative controls)")
    p_val.set_defaults(fn=cmd_validate)

    p_plot = sub.add_parser("plot", help="render metrics CSVs to a single SVG")
    p_plot.add_argument("csvs", nargs="+", help="metrics.csv paths sharing the step column")
    p_plot.add_argument("--fields", required=True, help="comma-separated field names")
    p_plot.add_argument("--out", required=True, help="output SVG path")
    p_plot.set_defaults(fn=cmd_plot)

    p_sweep = sub.add_parser("sweep", help="cartesian sweep over config overrides")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True, help="directory for the per-run subdirectories")
    p_sweep.add_argument("--seed", type=int, default=None, help="override the root seed")
    p_sweep.add_argument("--set", action="append", metavar="KEY=V1,V2",
                         help="override axis (repeatable); a value is a JSON literal that ends at a comma or the end, "
                              "or else a bare string up to the next comma")
    p_sweep.add_argument("--num-seeds", type=int, default=0,
                         help="add a seed axis of this many derived seeds")
    p_sweep.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NexusError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
