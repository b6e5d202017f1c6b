"""Mutation survey of the ``quasieig`` package.

Two operators, applied one at a time to the six modules in ``MODULES``:

* ``pass``: a statement inside a function body (its docstring aside)
  becomes ``pass``;
* ``drop and[i]`` / ``drop or[i]``: operand ``i`` of an ``and`` or ``or``
  inside a function body is dropped.

Each mutant runs the tier-1 suite with ``pytest -x`` in a private copy of
the tree, one copy per worker, its module's own test file first so that
most mutants fail fast.  A mutant whose suite passes survives.  A
suite still running after the timeout counts as a kill: some mutants
loop forever.  Each survivor prints as ``(module, function, line, kind)``
followed by the mutated code.

Run from anywhere, with no options:

    python tools/mutate.py

It uses only the standard library.  A full run takes about 20 minutes on
2 vCPUs.  It is not a tier-1 or CI step.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from queue import Queue

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quasieig"
MODULES = ("analysis", "cli", "cones", "lp", "matcore", "quasi")
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]


def _is_docstring(stmt: ast.stmt, body: list) -> bool:
    return (
        stmt is body[0]
        and isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


def mutants(source: bytes) -> list:
    """Every mutant of one module as ``(function, line, kind, mutated bytes)``.
    AST offsets count UTF-8 bytes, so the splices work on bytes."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def span(node):
        return starts[node.lineno - 1] + node.col_offset, starts[node.end_lineno - 1] + node.end_col_offset

    def splice(node, text: bytes) -> bytes:
        i, j = span(node)
        return source[:i] + text + source[j:]

    out = []

    def visit(node, scope: str, in_function: bool):
        for child in ast.iter_child_nodes(node):
            name = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}" if scope else child.name
            if in_function and isinstance(child, ast.stmt):
                body = getattr(node, "body", [])
                if not _is_docstring(child, body):
                    out.append((scope, child.lineno, "pass", splice(child, b"pass")))
            if in_function and isinstance(child, ast.BoolOp):
                op = "and" if isinstance(child.op, ast.And) else "or"
                for i, dropped in enumerate(child.values):
                    kept = [source[slice(*span(v))] for v in child.values if v is not dropped]
                    text = b"(" + f" {op} ".encode().join(b"(" + k + b")" for k in kept) + b")"
                    out.append((scope, dropped.lineno, f"drop {op}[{i}]", splice(child, text)))
            inside = in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, name, inside)

    visit(ast.parse(source), "", False)
    return out


def _test_files(first: str) -> list:
    """Every tier-1 test file, ``tests/test_{first}.py`` first."""
    files = sorted(f"tests/{p.name}" for p in (ROOT / "tests").glob("test_*.py"))
    return sorted(files, key=lambda f: f != f"tests/test_{first}.py")


def _run_suite(tree: Path, files: list, timeout: float) -> tuple[bool, float]:
    """``(passed, seconds)`` for tier-1 in ``tree``; a timeout is a failure."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    start = time.monotonic()
    try:
        done = subprocess.run(PYTEST + files, cwd=tree, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return False, time.monotonic() - start
    return done.returncode == 0, time.monotonic() - start


def _copy_tree(dest: Path) -> Path:
    skip = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", dest)
    return dest


def main() -> int:
    sources = {mod: (PACKAGE / f"{mod}.py").read_bytes() for mod in MODULES}
    work = [(mod, *m) for mod in MODULES for m in mutants(sources[mod])]
    workers = max(1, min(2, os.cpu_count() or 1))
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        trees = Queue()
        for w in range(workers):
            trees.put(_copy_tree(Path(tmp) / f"w{w}"))
        tree = trees.get()
        passed, seconds = _run_suite(tree, _test_files(""), timeout=None)
        trees.put(tree)
        if not passed:
            print("the unmutated suite fails; no survey", file=sys.stderr)
            return 1
        timeout = max(60.0, 4.0 * seconds)
        print(f"{len(work)} mutants, {workers} workers, suite {seconds:.1f} s, "
              f"timeout {timeout:.0f} s", file=sys.stderr)

        def judge(item):
            mod, function, line, kind, mutated = item
            tree = trees.get()
            target = tree / "src" / "quasieig" / f"{mod}.py"
            try:
                target.write_bytes(mutated)
                survived, _ = _run_suite(tree, _test_files(mod), timeout)
            finally:
                target.write_bytes(sources[mod])
                trees.put(tree)
            return survived

        survivors = 0
        with ThreadPoolExecutor(workers) as pool:
            for n, (item, survived) in enumerate(zip(work, pool.map(judge, work)), 1):
                if survived:
                    survivors += 1
                    mod, function, line, kind, _ = item
                    code = sources[mod].splitlines()[line - 1].decode().strip()
                    print(f"{(mod, function, line, kind)!r}  # {code}", flush=True)
                print(f"\r{n}/{len(work)} done, {survivors} survive", end="", file=sys.stderr)
        print(file=sys.stderr)
    print(f"{survivors} of {len(work)} mutants survive")
    return 0


if __name__ == "__main__":
    sys.exit(main())
