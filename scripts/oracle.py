#!/usr/bin/env python3
"""Refactor oracle: run a fixed list of `cqm run` configs on one source tree
and compare what two trees produced, or list the code none of them reaches.

    python scripts/oracle.py run TREE MANIFEST.json
    python scripts/oracle.py diff OLD.json NEW.json
    python scripts/oracle.py reach TREE

`run` runs every config of `committed_configs()` on `TREE/src`, each in a fresh
interpreter with one BLAS thread, and writes a manifest holding, per config,
the exit code, every check's residual and verdict, the sha256 of the report
body (the report without `timing`) and the sha256 of each artifact.  `diff`
prints every residual that moved (old -> new), every verdict, body, artifact
and exit code that differs, and exits 1 on any difference.  To compare a
change with its parent, check the parent out beside the working tree, e.g.
`git worktree add ../parent HEAD~1`, and run both trees.  The config list is
the same for both: the `probe-heavy` configs are read from this checkout's
`perfbench/workloads.py`.

Every child run inherits the environment, so `NPY_DISABLE_CPU_FEATURES` set
for `run` lets one machine imitate a lower SIMD level:
`NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"` runs at X86_V3
(AVX2 without AVX-512), and adding X86_V3 runs at the X86_V2 baseline.  The
manifest records the variable.  Diffing a tree's manifest at the full level
against its manifest at a lower one shows what depends on the level.

`reach` runs every config in this process on `TREE/src`, under a line trace
of every thread (`sys.settrace` and `threading.settrace`), and prints each
statement of a function in `TREE/src/cqm` that no config executes, as
`path:line: source`.  `raise` statements are left out, since an input check
that no config trips is not dead code, and so are module-level and class-body
statements, which run at import.  The list is where to look for code that
nothing calls.
"""
from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
README_MODEL = {"n_particles": 2, "spatial_dim": 1, "masses": [1.0, 2.0], "hbar": 1.0}
THREE_2D = {"n_particles": 3, "spatial_dim": 2, "masses": [1.0, 2.0, 0.5], "hbar": 1.0}
ONE = {"n_particles": 1, "spatial_dim": 1, "masses": [1.0], "hbar": 1.0}
FIELD_1D = {"times": [0.0, 0.25, 0.5, 0.75, 1.0],
            "values": [[0.0], [0.3], [0.5], [0.3], [0.0]], "support": [0.0, 1.0]}
FIELD_2D = {"times": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
            "values": [[0.0, 0.0], [0.2, -0.1], [0.5, -0.3], [0.4, -0.2],
                       [0.1, 0.05], [0.0, 0.0]]}
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _config(model: dict, experiment: str, seed: int, params: dict | None = None) -> dict:
    cfg = {"model": dict(model), "experiment": experiment, "seed": seed}
    if params:
        cfg["params"] = params
    return cfg


def committed_configs() -> dict[str, dict]:
    """The oracle's config list, by name."""
    readme = {"verify-cocycle": {"n_probes": 10000}}
    configs = {f"readme-seed{seed}": _config(README_MODEL, "all", seed, readme)
               for seed in (42, 7)}
    workloads = runpy.run_path(str(REPO / "perfbench" / "workloads.py"))
    for name, cfg in workloads["probe_heavy"](42):
        configs[f"probe-heavy-{name}"] = cfg
    configs["all-hbar0.7"] = _config(dict(README_MODEL, hbar=0.7), "all", 42)
    for label, model in (("N3d2", THREE_2D), ("N1", ONE)):
        for suite in ("verify-cocycle", "classical", "dress"):
            configs[f"{label}-{suite}"] = _config(model, suite, 3)
    configs["classical-field-1d"] = _config(ONE, "classical", 3,
                                            {"classical": {"gauge_field": FIELD_1D}})
    configs["classical-field-2d"] = _config(README_MODEL, "classical", 3,
                                            {"classical": {"gauge_field": FIELD_2D}})
    # odd sizes: the odd reflection of the chain and an odd slice count
    configs["pathint-odd"] = _config(README_MODEL, "pathint", 3, {"pathint": {
        "n_points": 257, "n_slices": 7, "n_points_2d": 64}})
    # a 1024^2 relational state: the free phase spans many row blocks
    configs["frame-1024"] = _config(README_MODEL, "frame", 3, {"frame": {"n_points": 1024}})
    # a grid fine enough that the quantum suite's step is half the phase bound
    configs["quantum-1024"] = _config(README_MODEL, "quantum", 3,
                                      {"quantum": {"n_points": 1024}})
    # a non-square table: a transposed fill or a wrongly shared column of
    # hpf.csv shows as an artifact difference
    configs["hpf-nonsquare"] = _config(README_MODEL, "hpf", 3, {"hpf": {"nt": 8, "nx": 301}})
    # the largest declared path size of the classical suite
    configs["classical-Mmax"] = _config(README_MODEL, "classical", 3, {"classical": {"M": 500}})
    return configs


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_config(tree: Path, cfg: dict, workdir: Path) -> dict:
    """One fresh `cqm run` of ``cfg`` on ``tree``'s sources, its output in
    ``workdir / "out"``: its manifest entry."""
    workdir.mkdir(parents=True)
    cfg_path, out = workdir / "config.json", workdir / "out"
    cfg_path.write_text(json.dumps(cfg))
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"),
               **{name: "1" for name in THREADS})
    proc = subprocess.run([sys.executable, "-m", "cqm.cli", "run", str(cfg_path),
                           "--out", str(out)], env=env, capture_output=True)
    entry = {"exit": proc.returncode, "checks": {}, "body": None, "artifacts": {}}
    report_path = out / "report.json"
    if report_path.exists():
        report = json.loads(report_path.read_text())
        report.pop("timing", None)
        entry["body"] = _sha256(json.dumps(report, sort_keys=True).encode())
        for suite, e in report["experiments"].items():
            for c in e["checks"]:
                entry["checks"][f"{suite}/{c['name']}"] = [c["residual"], c["passed"]]
        entry["artifacts"] = {
            p.relative_to(out).as_posix(): _sha256(p.read_bytes())
            for p in sorted(out.rglob("*")) if p.is_file() and p != report_path}
    return entry


def run_configs(tree: Path, configs: dict[str, dict]) -> dict:
    """The manifest of every config in ``configs`` run on ``tree``."""
    with tempfile.TemporaryDirectory() as tmp:
        return {"tree": str(tree),
                "disable_cpu_features": os.environ.get("NPY_DISABLE_CPU_FEATURES"),
                "configs": {name: run_config(tree, cfg, Path(tmp) / name)
                            for name, cfg in configs.items()}}


def _verdict(entry: list | None) -> str:
    return "absent" if entry is None else f"{entry[0]!r} ({'pass' if entry[1] else 'FAIL'})"


def diff_manifests(old: dict, new: dict) -> list[str]:
    """One line per difference between two manifests; empty when they agree."""
    lines = []
    old_cfg, new_cfg = old["configs"], new["configs"]
    for name in sorted(old_cfg.keys() | new_cfg.keys()):
        if name not in old_cfg or name not in new_cfg:
            lines.append(f"{name}: only in the {'new' if name in new_cfg else 'old'} manifest")
            continue
        a, b = old_cfg[name], new_cfg[name]
        if a["exit"] != b["exit"]:
            lines.append(f"{name}: exit {a['exit']} -> {b['exit']}")
        if a["body"] != b["body"]:
            lines.append(f"{name}: report body differs")
        for check in sorted(a["checks"].keys() | b["checks"].keys()):
            ra, rb = a["checks"].get(check), b["checks"].get(check)
            if ra != rb:
                lines.append(f"{name}: {check} {_verdict(ra)} -> {_verdict(rb)}")
        for art in sorted(a["artifacts"].keys() | b["artifacts"].keys()):
            if a["artifacts"].get(art) != b["artifacts"].get(art):
                lines.append(f"{name}: artifact {art} differs")
    return lines


def _function_statements(path: Path) -> dict[int, str]:
    """Start line -> source line of each statement inside a function of
    ``path``, ``raise`` statements left out, and statements that compile to
    no code (docstrings) too."""
    source = path.read_text()
    code_lines, stack = set(), [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        code_lines.update(line for *_, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    lines = source.splitlines()
    return {node.lineno: lines[node.lineno - 1].strip()
            for fn in ast.walk(ast.parse(source))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for top in fn.body for node in ast.walk(top)
            if isinstance(node, ast.stmt) and not isinstance(node, ast.Raise)
            and node.lineno in code_lines}


def unreached(tree: Path, configs: dict[str, dict]) -> dict[Path, dict[int, str]]:
    """Per source file of ``tree``'s package, the function statements (line ->
    source) that no config of ``configs`` executes, each run in this process."""
    src = (Path(tree) / "src").resolve()
    loaded = sys.modules.get("cqm")
    if loaded is not None and Path(loaded.__file__).resolve().parent != src / "cqm":
        raise SystemExit(f"cqm is already imported from {loaded.__file__}, "
                         f"not from {src / 'cqm'}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from cqm import cli

    files = {str(p): p for p in sorted((src / "cqm").glob("*.py"))}
    executed = {name: set() for name in files}

    def trace_calls(frame, event, arg):
        lines = executed.get(frame.f_code.co_filename)
        if lines is None:
            return None  # no line events in frames outside the package
        add = lines.add

        def trace_lines(frame, event, arg):
            add(frame.f_lineno)
            return trace_lines

        return trace_lines(frame, event, arg)

    previous = sys.gettrace(), threading.gettrace()
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in configs.items():
            cfg_path = Path(tmp) / f"{name}.json"
            cfg_path.write_text(json.dumps(cfg))
            sys.settrace(trace_calls)
            threading.settrace(trace_calls)
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    cli.main(["run", str(cfg_path), "--out", str(Path(tmp) / name)])
            finally:
                sys.settrace(previous[0])
                threading.settrace(previous[1])
    return {files[name]: {line: text for line, text in
                          _function_statements(files[name]).items()
                          if line not in executed[name]}
            for name in files}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run the config list on one source tree")
    p_run.add_argument("tree", type=Path)
    p_run.add_argument("manifest", type=Path)
    p_diff = sub.add_parser("diff", help="compare two manifests")
    p_diff.add_argument("old", type=Path)
    p_diff.add_argument("new", type=Path)
    p_reach = sub.add_parser("reach", help="list the statements no config executes")
    p_reach.add_argument("tree", type=Path)
    args = ap.parse_args(argv)
    if args.command == "reach":
        configs = committed_configs()
        missed = unreached(args.tree, configs)
        for path, statements in missed.items():
            for line, text in sorted(statements.items()):
                print(f"{path.relative_to(Path(args.tree).resolve())}:{line}: {text}")
        total = sum(map(len, missed.values()))
        print(f"{len(configs)} configs, {total} statements not executed")
        return 0
    if args.command == "run":
        manifest = run_configs(args.tree, committed_configs())
        args.manifest.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
        print(f"{len(manifest['configs'])} configs -> {args.manifest}")
        return 0
    old, new = (json.loads(p.read_text()) for p in (args.old, args.new))
    lines = diff_manifests(old, new)
    for line in lines:
        print(line)
    print(f"{len(new['configs'])} configs, {len(lines)} differences")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
