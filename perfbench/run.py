#!/usr/bin/env python3
"""cqm benchmark: time to a correct `cqm run` report, end to end and by layer.

    python3 perfbench/run.py --workload default-all --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones.
The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; everything before it is the
environment fingerprint and a human-readable summary.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
# setup_s is a fresh-interpreter cost, noisy from run to run: take a median
SETUP_REPEATS = 5
DEADLINE_S = 170.0

# end-to-end metric -> unit
E2E_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
             "check_pass_ratio": "ratio", "worst_margin": "ratio"}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in ((".calls", "count"), (".errors", "count"),
                         (".steps", "count"), (".point_steps", "count"),
                         (".entries", "count"), (".mentries", "Mentries"),
                         (".gflop_per_s", "GFLOP/s"), (".gflop", "GFLOP"),
                         (".unique_ratio", "ratio"), ("_mib_max", "MiB"),
                         (".ns_per_point_step", "ns"), (".probes_per_s", "1/s")):
        if name.endswith(suffix):
            return unit
    if name.endswith(("self_s", ".s", "overhead_s")):
        return "s"
    raise ValueError(f"no unit for metric {name!r}")


def pass_time(passes: list[list[float]]) -> float:
    """Seconds of one pass: the sum over invocations of each one's median.

    The host's speed varies from second to second.  A median per invocation
    ignores the slow stretches that hit a few of its repeats, where the
    median of whole passes would let a stretch that hits any invocation of a
    pass count against the whole pass.
    """
    return sum(statistics.median(times) for times in zip(*passes))


def child_env() -> tuple[dict, dict]:
    """Environment for the measured processes, and the thread settings made.

    BLAS runs single-threaded: on a small shared machine a second BLAS thread
    makes pass times depend on what else runs on the other CPU, which widened
    the run-to-run spread of the BLAS-bound workloads two- to fivefold.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    made = {var: BLAS_THREADS for var in THREAD_VARS}
    env.update(made)
    return env, made


def fingerprint(env: dict, made: dict, load: tuple) -> dict:
    return {"cpu_count": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "threads": {k: v for k, v in env.items() if k.endswith("_NUM_THREADS")},
            "threads_set_by_benchmark": made,
            "loadavg_at_start": list(load)}


def _worker(args: list[str], env: dict, deadline: float, **kw) -> subprocess.CompletedProcess:
    timeout = max(1.0, deadline - time.monotonic())
    return subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                          env=env, timeout=timeout, check=True, **kw)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # on SIGTERM, unwind so that the running worker is killed and awaited and
    # the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "cqm" / "__init__.py").is_file():
        print(f"no cqm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    load = os.getloadavg()
    env, made = child_env()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        cfgdir = tmp / "configs"
        cfgdir.mkdir()
        for i, (label, cfg) in enumerate(WORKLOADS[args.workload](args.seed)):
            (cfgdir / f"{i:02d}-{label}.json").write_text(json.dumps(cfg, indent=2))

        setup_s = []
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                proc = _worker(["setup", str(cfgdir)], env, deadline,
                               capture_output=True, text=True)
                setup = json.loads(proc.stdout.strip().splitlines()[-1])
                setup_s.append(setup["setup_s"])
        result_path = tmp / "result.json"
        # the program's own console output goes to stderr
        _worker(["run", str(cfgdir), repr(args.seconds), str(args.trace),
                 str(result_path)], env, deadline, stdout=sys.stderr)
        res = json.loads(result_path.read_text())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark process failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    src = (ROOT / "src").resolve()
    if not Path(res["cqm_file"]).resolve().is_relative_to(src):
        print(f"cqm was imported from {res['cqm_file']}, not {src}", file=sys.stderr)
        return 2

    fp = {**res["fingerprint"], **fingerprint(env, made, load)}
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    verdict = res["verdict"]
    run_s = pass_time(res["run_s"])
    print(f"workload {args.workload} seed {args.seed}: warm-up pass "
          f"{res['warmup_s']:.3f} s (discarded); timed passes "
          + ", ".join(f"{sum(p):.3f}" for p in res["run_s"])
          + f" s; sum of per-invocation medians {run_s:.3f} s")
    print(f"checks: {verdict['passed']}/{verdict['attempted']} passed over all passes; "
          f"nearest to its gate: {verdict['worst_check']} at "
          f"{verdict['worst_margin']:.4g} of tol")
    for msg in verdict["unexpected"]:
        print(f"GATE: {msg}")

    if args.trace:
        from tracing import WAIT_NOTE

        traced_s = pass_time(res["traced_run_s"])
        values = dict(res["layers"])
        values["trace.overhead_s"] = traced_s - run_s
        print("traced passes: " + ", ".join(f"{sum(p):.3f}" for p in res["traced_run_s"])
              + f" s; sum of per-invocation medians {traced_s:.3f} s traced, "
              f"{run_s:.3f} s untraced")
        print("largest self times (last traced pass): " + "; ".join(
            f"{name} {s:.3f} s/{n} calls" for name, s, n in res["top_self"]))
        print(f"note: {WAIT_NOTE}; pathint.free_kernel_exact.mentries, "
              "pathint.chain.*, pathint.kernel_mib_max, qgrid.evolve.point_steps "
              "and classical.hpf_table.entries are computed from call arguments")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        values = {"run_s": run_s, "setup_s": statistics.median(setup_s),
                  "peak_rss_mb": res["peak_rss_mb"],
                  "check_pass_ratio": verdict["check_pass_ratio"],
                  "worst_margin": verdict["worst_margin"]}
        print("setup runs: " + ", ".join(f"{t:.3f}" for t in setup_s) + " s")
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}

    print(json.dumps({"correct": not verdict["unexpected"],
                      "attempted": verdict["attempted"],
                      "failed": len(verdict["unexpected"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
