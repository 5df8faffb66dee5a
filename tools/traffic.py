"""Print the functions of graphssl that no experiment run enters.

Runs the seven experiments in-process through ``graphssl.cli.main``, each
writing into a temporary directory, at small sizes: the benchmark's smoke
sizes for its four workloads and small sizes for the other experiments,
plus the channel experiment on a 72^2 grid (its label regions take the
full-Hessian Newton route) and the rates sweep at alpha = 1.5 (the eigenpair
route).  A ``sys.settrace`` hook, limited to the files of ``src/graphssl``,
records every line that runs.  The tool prints each function or method
whose code no run entered, then the number of functions entered and of
lines run.

An unentered function is a candidate for deletion, not a verdict: the
tests, the demos and ``bench/`` call the library too, and a reader checks
those callers by grep.

Run from the repository root:

    python3 tools/traffic.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "graphssl"

# (experiment, parameters); the first four are the benchmark's smoke sizes
RUNS = [
    ("rates-krige", {"models": "krige,probit", "n_seeds": 1, "alpha": 2.0,
                     "n_values": 100, "eps_count": 20, "continuum_grid_n": 64}),
    ("smallnoise", {"n": 100, "iterations": 2000, "burn_in": 200}),
    ("mcmc-moons", {"grid_n": 40, "modes": 50, "iterations": 1500, "burn_in": 150}),
    ("channel", {"grid_n": 32, "h_values": "1.0 0.0", "alpha_values": "1 2"}),
    ("channel", {"grid_n": 72, "h_values": "1.0 0.0"}),
    ("rates-probit", {"models": "krige,probit", "n_seeds": 1, "alpha": 1.5,
                      "n_values": 100, "eps_count": 20, "continuum_grid_n": 32}),
    ("extrapolation", {"n": 150}),
    ("spectra", {"n_values": 200, "n_seeds": 1, "continuum_grid_n": 32,
                 "weyl_grid_n_3d": 10}),
]


def functions(path: Path) -> dict[int, str]:
    """First code line (the first decorator, if any) -> qualified name, for
    every function and method defined in the file."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[first] = prefix + child.name
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")

    visit(ast.parse(path.read_text()), "")
    return found


def trace_runs(workdir: Path) -> tuple[set, set, list]:
    """Run every entry of RUNS under the trace; returns the (file, first
    line) of each code object entered, the (file, line) of each line run,
    and the (run, exit code) of each run that did not exit 0."""
    from graphssl.cli import main

    root = str(PACKAGE)
    entered, lines = set(), set()

    def local(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def hook(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(root):
            return None
        entered.add((code.co_filename, code.co_firstlineno))
        return local

    failed = []
    for k, (experiment, params) in enumerate(RUNS):
        config = workdir / f"run{k}.ini"
        config.write_text(f"[{experiment}]\n"
                          + "".join(f"{key} = {value}\n" for key, value in params.items()))
        argv = [experiment, "--config", str(config), "--out", str(workdir / f"out{k}")]
        with contextlib.redirect_stdout(io.StringIO()):
            sys.settrace(hook)
            try:
                code = main(argv)
            finally:
                sys.settrace(None)
        if code != 0:
            failed.append((f"{experiment} {params}", code))
    return entered, lines, failed


def main() -> int:
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        entered, lines, failed = trace_runs(Path(tmp))
    seconds = time.perf_counter() - start

    total, missed = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        for first, name in sorted(functions(path).items()):
            total += 1
            if (str(path), first) not in entered:
                missed.append(f"graphssl.{path.stem}:{name}")
    print("functions and methods that no run entered:")
    for name in missed:
        print(f"  {name}")
    print(f"{total - len(missed)} of {total} functions entered, {len(lines)} lines run, "
          f"{len(RUNS)} runs in {seconds:.1f} s")
    for run, code in failed:
        print(f"run failed with exit code {code}: {run}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
