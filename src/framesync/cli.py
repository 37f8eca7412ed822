"""Command-line front end: run, validate, and sweep scenario configs."""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

from .errors import ConfigError, FramesyncError
from .scenarios import (
    CONFIG_TABLE,
    OUTPUT_ENV,
    ScenarioReport,
    output_root,
    resolve_config,
    run_grids,
    run_scenario,
    scenario_table,
    write_json,
)

__all__ = ["main"]

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_ABORTED = 3


def _finite(text: str) -> float:
    """A config number: verdicts repeat configs, and they are strict JSON."""
    v = float(text)
    if not math.isfinite(v):
        raise ConfigError(f"config numbers must be finite, got {text}")
    return v


def _load_config(path: str):
    """The parsed config file; scenario_table, which every command reaches
    first, checks that it is a JSON object."""
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return raw


def _print_report(report: ScenarioReport) -> None:
    for c in report.checks:
        if c.op == "info":
            print(f"[info] {c.name}: {c.claim}")
            continue
        tag = "PASS" if c.passed else "FAIL"
        print(f"[{tag}] {c.name}: {c.claim} "
              f"(value={c.value:.6g}, threshold={c.threshold:.6g})")
    print(f"{report.scenario}: {'PASSED' if report.passed else 'FAILED'}")


def _execute(cfg) -> tuple[int, ScenarioReport | str]:
    """Run a resolved config: the exit code and the report, or why the run
    aborted, after writing an aborted verdict.json for it.

    Any exception aborts the run, so that it still ends with exit 3 and a
    verdict: exit 1 means a check failed. One that is not a FramesyncError
    is a fault of the program, named by its type, with its traceback on
    stderr."""
    try:
        report = run_scenario(cfg)
    except Exception as exc:
        reason = str(exc)
        if not isinstance(exc, FramesyncError):
            # imported here: it costs every run about 1 ms of start-up
            import traceback

            traceback.print_exc()
            reason = f"{type(exc).__name__}: {exc}"
        write_json(output_root(cfg) / "verdict.json",
                   {"scenario": cfg.scenario, "config": cfg.to_dict(),
                    "passed": False, "aborted": reason})
        return EXIT_ABORTED, reason
    return (EXIT_PASS if report.passed else EXIT_CHECK_FAILED), report


def _cmd_run(args) -> int:
    cfg = resolve_config(_load_config(args.config))
    code, outcome = _execute(cfg)
    if code == EXIT_ABORTED:
        print(f"aborted: {outcome}", file=sys.stderr)
        return code
    _print_report(outcome)
    print(f"artifacts in {output_root(cfg)}")
    return code


def _cmd_validate(args) -> int:
    cfg = resolve_config(_load_config(args.config))
    print(json.dumps(cfg.to_dict(), indent=2))
    for label, (grid, agents) in run_grids(cfg).items():
        print(f"{label}: {grid.steps} steps, agent-steps {agents * grid.steps}",
              file=sys.stderr)
    return EXIT_PASS


def _cmd_scenarios(args) -> int:
    """One line per scenario: its name, then every key it accepts with the
    table default ("auto" where the default is derived at resolve time)."""
    shown = lambda v: "auto" if v is None else json.dumps(v, separators=(",", ":"))
    for name, table in CONFIG_TABLE.items():
        keys = " ".join(f"{k}={shown(v)}" for k, v in table.items())
        print(f"{name}: {keys}")
    return EXIT_PASS


def _expand_members(raw: dict) -> list[dict]:
    """Cross product over list-valued keys, except the keys whose table
    default is a list: the scenario consumes those whole. The scenario must
    be one name, and no axis may be empty."""
    table = scenario_table(raw)
    axes = {k: v for k, v in raw.items()
            if isinstance(v, list) and not isinstance(table.get(k), list)}
    empty = sorted(k for k, v in axes.items() if not v)
    if empty:
        raise ConfigError(f"sweep axes must not be empty: {', '.join(empty)}")
    if not axes:
        return [dict(raw)]
    keys = sorted(axes)
    members = []
    for combo in itertools.product(*(axes[k] for k in keys)):
        member = dict(raw)
        member.update(dict(zip(keys, combo)))
        members.append(member)
    return members


def _sweep_member(payload: tuple[dict, str]) -> dict:
    raw, out_dir = payload
    member = dict(raw, output_dir=out_dir)
    try:
        cfg = resolve_config(member)
    except ConfigError as exc:
        return {"config": member, "passed": False,
                "exit": EXIT_BAD_CONFIG, "error": str(exc)}
    code, outcome = _execute(cfg)
    if code == EXIT_ABORTED:
        return {"config": member, "passed": False, "exit": code,
                "error": outcome}
    return {"config": cfg.to_dict(), "passed": outcome.passed, "exit": code,
            "failed_checks": [c.name for c in outcome.checks if not c.passed]}


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    raw = _load_config(args.config)
    members = _expand_members(raw)
    base_dir = raw.get("output_dir", f"runs/{raw['scenario']}_sweep")
    if not isinstance(base_dir, str) or not base_dir:
        raise ConfigError(f"output_dir must be a non-empty string, got {base_dir!r}")
    payloads = [(member, f"{base_dir}/member_{i:03d}")
                for i, member in enumerate(members)]
    results: list[dict] = []
    # the pool forks all its workers at the first submit: no more than members
    workers = min(args.jobs, len(payloads))
    if workers > 1:
        # imported here: only a parallel sweep needs it, and it costs every
        # other command about 17 ms of start-up
        from concurrent.futures import ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_sweep_member, payloads))
        except OSError as exc:
            print(f"process pool unavailable ({exc}); running the "
                  f"{len(payloads)} members serially", file=sys.stderr)
            results = []
    if not results:
        results = [_sweep_member(p) for p in payloads]

    root = output_root(base_dir)
    verdict = {"scenario": raw["scenario"], "members": results,
               "passed": all(r["passed"] for r in results)}
    write_json(root / "sweep_verdict.json", verdict)
    for i, r in enumerate(results):
        state = "PASSED" if r["passed"] else f"FAILED ({r.get('error', 'checks')})"
        print(f"member {i:03d}: {state}")
    print(f"sweep: {'PASSED' if verdict['passed'] else 'FAILED'} "
          f"({len(results)} members), verdict in {root}")
    if verdict["passed"]:
        return EXIT_PASS
    codes = {r["exit"] for r in results if not r["passed"]}
    return max(codes)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framesync",
        description="Consensus flows for orthonormal-frame ensembles: run "
                    "canned scenarios, check their guarantees, write reports.",
    )
    parser.add_argument("--output-root", metavar="DIR",
                        help=f"root for all artifacts (overrides ${OUTPUT_ENV})")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario config")
    p_run.add_argument("config", help="path to a scenario JSON file")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate",
                           help="validate a config and print its resolved form")
    p_val.add_argument("config", help="path to a scenario JSON file")
    p_val.set_defaults(func=_cmd_validate)

    p_sweep = sub.add_parser(
        "sweep", help="expand list-valued keys into a family of runs")
    p_sweep.add_argument("config", help="path to a scenario JSON file")
    p_sweep.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                         help="parallel workers, at most one per member "
                              "(1 disables multiprocessing)")
    p_sweep.set_defaults(func=_cmd_sweep)

    # accept --output-root after the verb too; SUPPRESS keeps a value given
    # before the verb from being clobbered by the subparser's default
    for p in (p_run, p_val, p_sweep):
        p.add_argument("--output-root", metavar="DIR",
                       default=argparse.SUPPRESS,
                       help=f"root for all artifacts (overrides ${OUTPUT_ENV})")

    p_list = sub.add_parser(
        "scenarios", help="list the scenarios with their keys and defaults")
    p_list.set_defaults(func=_cmd_scenarios)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # set for this call only; forked sweep workers inherit it
    previous = os.environ.get(OUTPUT_ENV)
    if args.output_root:
        os.environ[OUTPUT_ENV] = args.output_root
    try:
        code = args.func(args)
        return EXIT_PASS if code is None else code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except FramesyncError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ABORTED
    finally:
        os.environ.pop(OUTPUT_ENV, None)
        if previous is not None:
            os.environ[OUTPUT_ENV] = previous


if __name__ == "__main__":
    sys.exit(main())
