"""Measurement process started by run.py; not meant to be run by hand.

    worker.py setup <cfgdir>
        Fresh-interpreter cost of a `cqm run` before any suite starts: import
        `cqm.cli`, then load and validate every config in <cfgdir>.  Prints
        one JSON line.
    worker.py run <cfgdir> <seconds> <trace 0|1> <result.json>
        One warm-up pass, then timed passes over the configs through
        `cqm.cli.main`, each gated for correctness, as many as fit in
        <seconds> (at least one).  With trace 1, half the time goes to
        untraced passes and half to traced ones.  Writes the seconds of every
        invocation of every pass to <result.json>.
"""
import dataclasses
import gc
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path


def _configs(cfgdir: Path) -> list[tuple[str, Path]]:
    # files are named NN-label.json so that sorting keeps the workload order
    return [(p.stem.split("-", 1)[1], p) for p in sorted(cfgdir.glob("*.json"))]


def setup(cfgdir: Path) -> None:
    t0 = time.perf_counter()
    import cqm.cli

    for _, path in _configs(cfgdir):
        cqm.cli.load_config(path)
    print(json.dumps({"setup_s": time.perf_counter() - t0,
                      "cqm_file": cqm.__file__}))


def _fingerprint() -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def run(cfgdir: Path, seconds: float, trace: bool, result_path: Path) -> None:
    import cqm.cli
    from cqm.experiments import REGISTRY

    from gate import Verdict, report_body

    configs = _configs(cfgdir)
    suites = {}
    for label, path in configs:
        kind = json.loads(path.read_text()).get("experiment", "all")
        suites[label] = list(REGISTRY) if kind == "all" else [kind]
    out_root = cfgdir.parent / "out"
    verdict = Verdict()
    reference: dict[str, str] = {}

    def one_pass() -> list[float]:
        """Run every config once; returns the seconds each `cqm run` took."""
        busy = []
        for label, path in configs:
            out = out_root / label
            t0 = time.perf_counter()
            code = cqm.cli.main(["run", str(path), "--out", str(out)])
            busy.append(time.perf_counter() - t0)
            rp = out / "report.json"
            report = json.loads(rp.read_text()) if rp.exists() else None
            verdict.judge(label, suites[label], code, report, reference.get(label))
            if label not in reference and report is not None:
                reference[label] = report_body(report)
            shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        return busy

    def timed_passes(budget: float, pass_fn) -> list[list[float]]:
        """Passes while another one, at the mean pass time so far, still
        ends within `budget` seconds; at least one."""
        passes: list[list[float]] = []
        t_start = time.perf_counter()
        while not passes or ((time.perf_counter() - t_start)
                             * (len(passes) + 1) / len(passes) <= budget):
            passes.append(pass_fn())
        return passes

    warmup_s = sum(one_pass())
    budget = seconds / 2 if trace else seconds
    run_s = timed_passes(budget, one_pass)
    result = {"fingerprint": _fingerprint(), "cqm_file": cqm.__file__,
              "warmup_s": warmup_s, "run_s": run_s}

    if trace:
        from tracing import Tracer, layer_metrics, top_self_times, traced

        samples: list[dict] = []
        top: list = []

        def traced_pass() -> list[float]:
            nonlocal top
            tracer = Tracer()
            with traced(tracer):
                busy = one_pass()
            samples.append(layer_metrics(tracer))
            top = top_self_times(tracer)
            return busy

        result["traced_run_s"] = timed_passes(budget, traced_pass)
        result["layers"] = {k: statistics.median(s[k] for s in samples)
                            for k in samples[0]}
        result["top_self"] = top

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["verdict"] = {**dataclasses.asdict(verdict),
                         "check_pass_ratio": verdict.check_pass_ratio}
    result_path.write_text(json.dumps(result))


if __name__ == "__main__":
    mode, cfgdir = sys.argv[1], Path(sys.argv[2])
    if mode == "setup":
        setup(cfgdir)
    elif mode == "run":
        run(cfgdir, float(sys.argv[3]), sys.argv[4] == "1", Path(sys.argv[5]))
    else:
        sys.exit(f"unknown mode {mode!r}")
