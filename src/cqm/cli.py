"""Command line front end: run verification suites from a JSON config.

Exit codes: 0 all checks passed, 1 a check failed or a suite raised (its report
entry is then one failed ``suite-error`` check), 2 a bad or unreadable config.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, pathint
from .bundle import ModelParams, _is_number
from .experiments import EXPERIMENT_KINDS, REGISTRY, Check, Param, run_experiment

__all__ = ["main", "load_config", "run_from_config", "ConfigError"]


class ConfigError(Exception):
    """Invalid experiment configuration."""


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    validate_config(cfg)
    return cfg


def _is_finite_number(val) -> bool:
    return _is_number(val) and math.isfinite(val)


def _param_error(p: Param, val) -> str | None:
    """Why ``val`` is not a valid value of the declared parameter ``p``, or None."""
    if p.type is int and not (type(val) is int and p.minimum <= val <= p.maximum
                              and not (p.even and val % 2)):
        return f"must be an {'even ' * p.even}integer in [{p.minimum}, {p.maximum}]"
    if p.type is float and not (_is_finite_number(val) and val > p.minimum):
        return f"must be a finite number > {p.minimum}"
    if p.type is dict:
        try:
            p.build(val)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            return f"cannot be built: {exc!r}"
    return None


def validate_config(cfg: dict) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if unknown := sorted(set(cfg) - {"model", "experiment", "seed", "tol_scale",
                                     "params", "out_dir"}):
        raise ConfigError(f"unknown config keys {unknown}")
    if not isinstance(cfg.get("out_dir", ""), str):
        raise ConfigError("'out_dir' must be a string")
    if "model" not in cfg:
        raise ConfigError("config needs a 'model' section")
    try:
        ModelParams.from_dict(cfg["model"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad model section: {exc}") from exc
    kind = cfg.get("experiment", "all")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(
            f"unknown experiment {kind!r}; choose from {', '.join(EXPERIMENT_KINDS)}")
    if "seed" not in cfg:
        raise ConfigError("randomized suites require a 'seed'")
    # bool too; numpy's generators take only non-negative seeds
    if type(cfg["seed"]) is not int or cfg["seed"] < 0:
        raise ConfigError("'seed' must be a non-negative integer")
    tol_scale = cfg.get("tol_scale", 1.0)
    if not (_is_finite_number(tol_scale) and tol_scale > 0):
        raise ConfigError("'tol_scale' must be a finite positive number")
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("'params' must be an object keyed by experiment")
    for name, sub in params.items():
        if name not in REGISTRY:
            raise ConfigError(f"params for unknown experiment {name!r}; "
                              f"choose from {', '.join(REGISTRY)}")
        if not isinstance(sub, dict):
            raise ConfigError(f"params for {name!r} must be an object")
        declared = {p.name: p for p in REGISTRY[name].params}
        for key, val in sub.items():
            if key.startswith("tol"):
                raise ConfigError(f"{name}.{key}: tolerances are pinned; use tol_scale")
            if key in declared and (error := _param_error(declared[key], val)):
                raise ConfigError(f"{name}.{key} {error}")


def _environment() -> dict:
    """Interpreter, numpy (SIMD levels, BLAS build), CPUs and threads the run had."""
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        affinity = None
    build = np.show_config(mode="dicts")
    return {
        "python": "%d.%d.%d" % sys.version_info[:3],
        "numpy": np.__version__,
        # the levels numpy dispatches to; NPY_DISABLE_CPU_FEATURES lowers them
        "simd": build["SIMD Extensions"],
        "blas": {key: build["Build Dependencies"]["blas"][key] for key in ("name", "version")},
        "affinity": affinity,
        "chain_threads": pathint._chain_threads(),
        "threads": {var: os.environ.get(var) for var in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _peak_rss_mib() -> float | None:
    """The process's peak resident set so far in MiB (``ru_maxrss``: KiB on
    Linux, bytes on macOS), or None where ``resource`` is missing."""
    try:
        import resource
    except ImportError:  # Windows has no resource module
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def run_from_config(cfg: dict, out_dir: Path | None) -> dict:
    """Execute the configured suites and assemble the report structure."""
    model_params = ModelParams.from_dict(cfg["model"])
    kind = cfg.get("experiment", "all")
    names = list(REGISTRY) if kind == "all" else [kind]
    seed = cfg["seed"]
    tol_scale = float(cfg.get("tol_scale", 1.0))
    params = cfg.get("params", {})

    report = {
        "version": __version__,
        "seed": seed,
        "tol_scale": tol_scale,
        "experiments": {},
        "passed": True,
        "timing": {"environment": _environment()},
    }
    total0 = time.perf_counter()

    def run_one(name: str):
        """Checks, error message, formatted traceback and wall time of a suite."""
        sub_out = (out_dir / name) if out_dir is not None else None
        t0 = time.perf_counter()
        error = trace = None
        try:
            checks = run_experiment(name, model_params, params.get(name, {}),
                                    seed, sub_out)
        except Exception as exc:  # a crashing suite is one failed check
            trace = traceback.format_exc()
            checks = [Check("suite-error", type(exc).__name__, 1.0, 0.0)]
            error = str(exc)
        return checks, error, trace, time.perf_counter() - t0

    n_workers = min(pathint._chain_threads(), len(names))
    if n_workers == 1:
        results = map(run_one, names)  # each suite runs as the loop reaches it
    else:
        from concurrent.futures import ThreadPoolExecutor

        # one suite per CPU; numpy releases the GIL in the array work.  The
        # calling thread runs pathint (the longest, registered last) itself:
        # glibc gives each thread a malloc arena and keeps freed blocks
        # resident in it, so pathint's 4 MiB matrices, run on a fresh pool
        # thread, would raise the peak RSS of every further run in the
        # process.  A pool of n_workers - 1 runs the others, the last first.
        *others, last = names
        with ThreadPoolExecutor(n_workers - 1) as pool:
            futures = {name: pool.submit(run_one, name) for name in reversed(others)}
            own = run_one(last)
        results = [futures[name].result() for name in others] + [own]
    for name, (checks, error, trace, seconds) in zip(names, results):
        entry = report["experiments"][name] = {"laws": list(REGISTRY[name].laws)}
        if trace is not None:
            sys.stderr.write(trace)
            entry["error"] = error
        report["timing"][name] = seconds
        scaled = [replace(c, residual=float(c.residual), tol=float(c.tol * tol_scale))
                  for c in checks]
        exp_passed = all(c.passed for c in scaled)
        entry.update(checks=[c.to_dict() for c in scaled], passed=exp_passed)
        report["passed"] = report["passed"] and exp_passed
    report["timing"]["total"] = time.perf_counter() - total0
    report["timing"]["peak_rss_mib"] = _peak_rss_mib()
    return report


def _write_report(report: dict, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "report.json"
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return path


def _cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.tol_scale is not None:
            cfg["tol_scale"] = args.tol_scale
        validate_config(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for name, sub in cfg.get("params", {}).items():
        for key in sorted(set(sub) - {p.name for p in REGISTRY[name].params}):
            print(f"warning: unknown parameter {name}.{key} ignored", file=sys.stderr)
    out_dir = Path(args.out if args.out is not None else cfg.get("out_dir", "results"))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create output directory: {exc}", file=sys.stderr)
        return 2
    report = run_from_config(cfg, out_dir)
    path = _write_report(report, out_dir)
    n_checks = sum(len(e["checks"]) for e in report["experiments"].values())
    n_fail = sum(1 for e in report["experiments"].values()
                 for c in e["checks"] if not c["passed"])
    print(f"{n_checks - n_fail}/{n_checks} checks passed; report: {path}")
    for ename, e in report["experiments"].items():
        for c in e["checks"]:
            if not c["passed"]:
                residual = math.nan if c["residual"] is None else c["residual"]
                print(f"  FAIL {ename}/{c['name']}: " + e.get(
                    "error", f"residual {residual:.3e} vs tol {c['tol']:.1e}"))
    return 0 if report["passed"] else 1


def _cmd_list(_args) -> int:
    for name, exp in REGISTRY.items():
        print(f"{name}: {exp.description}")
        for check, law, tol, *needs in exp.checks:
            print(f"    check {check} ({law}): residual < {tol!r}"
                  + "".join(f", when {p} is set" for p in needs))
        for p in exp.params:
            low = {int: f" in [{p.minimum}, {p.maximum}]",
                   float: f" > {p.minimum}"}.get(p.type, "")
            print(f"    {p.name}: {'even ' * p.even}{p.type.__name__}{low}, "
                  f"default {p.default!r}")
    print("all: every suite above")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cqm", description="verification suites for bundle mechanics")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run suites from a JSON config")
    p_run.add_argument("config", help="path to the experiment config")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--tol-scale", type=float, default=None,
                       help="uniform tolerance multiplier")
    p_run.set_defaults(fn=_cmd_run)
    p_list = sub.add_parser("list", help="list registered experiments")
    p_list.set_defaults(fn=_cmd_list)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
