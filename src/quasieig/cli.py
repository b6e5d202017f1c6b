"""Command-line surface: matrix/cone ingestion, subcommand dispatch, and
deterministic JSON reports.

Exit codes: 0 success, 1 usage or parse error, 2 inapplicable check,
3 numerical failure or falsified check.
"""

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import analysis
from .cones import Cone, random_orthogonal
from .errors import (
    ConvergenceFailure,
    NotNormal,
    NumericalBreakdown,
    ParseError,
    QuasiEigError,
)
from .matcore import as_matrix, classify, operator_norm
from .quasi import brute_minimax, quasi_pair


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    matrix_path: str
    cone_spec: str = "orthant"
    tol: float = 1e-9
    grid_k: int = 2000
    seed: int = 0
    output: str = "human"  # "human" | "json"
    perturbation_path: str | None = None

    def __post_init__(self):
        if self.subcommand not in _COMMANDS:
            raise ValueError(f"unknown subcommand {self.subcommand!r}")
        if not 0.0 < self.tol <= 1e-2:
            raise ValueError("tol must lie in (0, 1e-2]")
        if self.grid_k < 10:
            raise ValueError("grid_k must be at least 10")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def parse_matrix_file(path: str) -> np.ndarray:
    """Load a matrix from JSON ({"n": ..., "rows": [[...], ...]}) or from
    whitespace text (first line n, then n rows of n reals)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise ParseError("matrix file is not UTF-8 text")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_matrix_json(text)
    return _parse_matrix_text(text)


def _parse_matrix_json(text: str) -> np.ndarray:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno)
    if not isinstance(obj, dict) or "n" not in obj or "rows" not in obj:
        raise ParseError('JSON matrix must be an object with "n" and "rows"')
    n, rows = obj["n"], obj["rows"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError('"n" must be a positive integer')
    if not isinstance(rows, list) or len(rows) != n:
        raise ParseError(f'"rows" must hold {n} rows')
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"row {i} does not have {n} entries", line=i + 1)
        for j, x in enumerate(row):
            if not isinstance(x, (int, float)) or isinstance(x, bool):
                raise ParseError(f"entry ({i}, {j}) is not a number", line=i + 1, column=j + 1)
    return as_matrix(rows)


def _parse_matrix_text(text: str) -> np.ndarray:
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty matrix file")
    try:
        n = int(lines[0].split()[0])
    except (ValueError, IndexError):
        raise ParseError("first line must hold the dimension", line=1, column=1)
    if n < 1:
        raise ParseError("dimension must be positive", line=1)
    rows = []
    lineno = 1
    for raw in lines[1:]:
        lineno += 1
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != n:
            raise ParseError(f"expected {n} entries, found {len(parts)}", line=lineno)
        row = []
        for col, tok in enumerate(parts):
            try:
                row.append(float(tok))
            except ValueError:
                raise ParseError(f"bad number {tok!r}", line=lineno, column=col + 1)
        rows.append(row)
        if len(rows) == n:
            break
    if len(rows) != n:
        raise ParseError(f"expected {n} rows, found {len(rows)}")
    return as_matrix(rows)


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def emit_matrix(m: np.ndarray) -> str:
    """Canonical JSON for a matrix; floats carry 17 significant digits so
    parse(emit(m)) reproduces m bit-exactly."""
    m = as_matrix(m)
    return emit_json({"n": m.shape[0], "rows": m})


def emit_json(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return emit_json(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(emit_json(x) for x in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{emit_json(v)}" for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _resolve_cone(spec: str, n: int) -> Cone:
    if spec == "orthant":
        return Cone.orthant(n)
    if spec.startswith("rotation:"):
        try:
            seed = int(spec.split(":", 1)[1])
        except ValueError:
            seed = -1
        if seed < 0:
            raise ParseError(f"bad rotation seed in cone spec {spec!r}")
        return Cone.rotated(random_orthogonal(n, seed))
    u = parse_matrix_file(spec)
    return Cone.rotated(u)  # raises NotOrthogonal past 1e-10


def _digest(m: np.ndarray) -> str:
    return hashlib.sha256(emit_matrix(m).encode()).hexdigest()


# Exit code of an error a run raises; the first matching row wins.
_ERROR_EXITS = (
    (NotNormal, 2),
    ((NumericalBreakdown, ConvergenceFailure), 3),
    ((QuasiEigError, OSError), 1),
)


def run(config: RunConfig) -> tuple[int, dict]:
    """Dispatch a config; returns (exit code, report object).

    Exit 2 when the subcommand produced theorem reports and none applies;
    otherwise 0 when every applicable report holds, else 3.  Errors map
    through ``_ERROR_EXITS``."""
    report: dict = {}
    try:
        m = parse_matrix_file(config.matrix_path)
        cone = _resolve_cone(config.cone_spec, m.shape[0])
        report.update(
            subcommand=config.subcommand,
            input_digest=_digest(m),
            lambda_upper=None,
            lambda_lower=None,
            u_right=None,
            v_left=None,
            flags={},
            theorem_reports=[],
            tol=config.tol,
            seed=config.seed,
        )
        reps = _COMMANDS[config.subcommand][0](config, m, cone, report)
    except (QuasiEigError, OSError) as exc:
        report["error"] = str(exc)
        return next(code for kind, code in _ERROR_EXITS if isinstance(exc, kind)), report
    report["theorem_reports"] = [asdict(r) for r in reps]
    applicable = [r for r in reps if r.applicable]
    if reps and not applicable:
        return 2, report
    return (0 if all(r.holds for r in applicable) else 3), report


def _fill_quasi(report: dict, pair) -> None:
    report["lambda_upper"] = pair.lambda_upper
    report["lambda_lower"] = pair.lambda_lower
    report["u_right"] = pair.u_right
    report["v_left"] = pair.v_left
    report["flags"].update(
        {
            "u_interior": pair.u_interior,
            "v_interior": pair.v_interior,
            "is_saddle": pair.is_saddle,
            "eigen_residual_right": pair.eigen_residual_right,
            "eigen_residual_left": pair.eigen_residual_left,
        }
    )


# Each runner takes (config, m, cone, report), fills the report's values
# and flags, and returns its theorem reports.  Runners look library
# functions up when called, so a wrapper installed on the module sees them.


def _quasi(config: RunConfig, m: np.ndarray, cone: Cone, report: dict) -> list:
    _fill_quasi(report, quasi_pair(m, cone, config.tol))
    return []


def _classify(config: RunConfig, m: np.ndarray, cone: Cone, report: dict) -> list:
    report["flags"].update(asdict(classify(m)))
    return []


def _perturb(config: RunConfig, m: np.ndarray, cone: Cone, report: dict) -> list:
    if config.perturbation_path is None:
        raise ParseError("perturb requires --perturbation")
    d = parse_matrix_file(config.perturbation_path)
    facts = analysis.MatrixFacts(m)
    _fill_quasi(report, facts.pair(cone, config.tol))
    return [analysis.perturbation_bound_check(facts, cone, d, config.tol)]


def _normal(config: RunConfig, m: np.ndarray, cone: Cone, report: dict) -> list:
    facts = analysis.MatrixFacts(m)
    report["flags"]["rotation_blocks"] = [list(b) for b in facts.form.rotation_blocks]
    report["flags"]["real_eigs"] = list(facts.form.real_eigs)
    return [analysis.theorem4_classify(facts, cone, config.tol)]


def _invariance(config: RunConfig, m: np.ndarray, cone: Cone, report: dict) -> list:
    u = random_orthogonal(m.shape[0], config.seed)
    return [analysis.invariance_check(m, cone, u, config.tol)]


def _oracle(config: RunConfig, m: np.ndarray, cone: Cone, report: dict) -> list:
    sup_inf, inf_sup = brute_minimax(m, cone, config.grid_k)
    report["lambda_upper"] = sup_inf
    report["flags"]["sup_inf"] = sup_inf
    report["flags"]["inf_sup"] = inf_sup
    return []


def _verify(config: RunConfig, m: np.ndarray, cone: Cone, report: dict) -> list:
    """Run every checker for one matrix on one ``MatrixFacts`` record, so
    each instance is solved and each fact derived once."""
    tol = config.tol
    facts = analysis.MatrixFacts(m)
    pair = facts.pair(cone, tol)
    _fill_quasi(report, pair)
    flags = facts.flags
    report["flags"].update(asdict(flags))
    reps = [
        analysis.bounds_check(facts, cone, tol),
        analysis.perron_check(facts, tol),
        analysis.max_re_check(facts, tol),
        analysis.isc_check(facts, tol),
        analysis.invariance_check(facts, cone, random_orthogonal(m.shape[0], config.seed), tol),
    ]
    if flags.normal:
        reps.append(analysis.theorem4_classify(facts, cone, tol))
    if pair.u_interior or pair.v_interior:
        rng = np.random.default_rng(config.seed)
        d = rng.standard_normal(m.shape)
        d *= 0.05 * max(facts.norm, 1.0) / max(operator_norm(d), 1e-30)
        reps.append(analysis.perturbation_bound_check(facts, cone, d, tol))
    return reps


# Each row names a subcommand's runner and the options it reads apart from
# --matrix and --json; any other option is a usage error.
_COMMANDS = {
    "quasi": (_quasi, ("cone", "tol")),
    "classify": (_classify, ()),
    "perron": (lambda config, m, cone, report: [analysis.perron_check(m, config.tol)], ("tol",)),
    "maxre": (lambda config, m, cone, report: [analysis.max_re_check(m, config.tol)], ("tol",)),
    "perturb": (_perturb, ("cone", "tol", "perturbation")),
    "normal": (_normal, ("cone", "tol")),
    "invariance": (_invariance, ("cone", "tol", "seed")),
    "oracle": (_oracle, ("cone", "grid")),
    "verify": (_verify, ("cone", "tol", "seed")),
}

# Each option's flag is ``--`` plus its key.  Its default is the RunConfig
# field's: the parser leaves an option it was not given unset.
_OPTIONS = {
    "cone": dict(dest="cone_spec", help="'orthant', 'rotation:SEED' or an orthogonal matrix file"),
    "tol": dict(type=float, help="search tolerance, in (0, 1e-2]"),
    "grid": dict(dest="grid_k", type=int, help="grid steps per simplex edge, at least 10"),
    "seed": dict(type=int, help="seed of the random orthogonal change of variables"),
    "perturbation": dict(dest="perturbation_path", required=True, help="perturbation matrix file"),
}


def _print_human(report: dict, code: int) -> None:
    if "error" in report:
        print(f"error: {report['error']}")
    if report.get("lambda_upper") is not None:
        print(f"lambda_upper = {report['lambda_upper']:.12g}")
    if report.get("lambda_lower") is not None:
        print(f"lambda_lower = {report['lambda_lower']:.12g}")
    if report.get("u_right") is not None:
        print(f"u_right = {np.asarray(report['u_right'])}")
    if report.get("v_left") is not None:
        print(f"v_left  = {np.asarray(report['v_left'])}")
    for key, val in report.get("flags", {}).items():
        print(f"{key} = {val}")
    for rep in report.get("theorem_reports", []):
        status = "HOLDS" if rep["holds"] else ("N/A" if not rep["applicable"] else "FAILS")
        print(f"[{status}] {rep['name']}: slack={rep['slack']:.3g} {rep['details']}")
    print(f"exit {code}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise ParseError(message)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="quasieig", description=__doc__)
    sub = p.add_subparsers(dest="subcommand", required=True)
    for name, (_, options) in _COMMANDS.items():
        sp = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        sp.add_argument(
            "--matrix", required=True, dest="matrix_path", metavar="MATRIX",
            help="matrix file (JSON or text)",
        )
        for option in options:
            sp.add_argument(f"--{option}", metavar=option.upper(), **_OPTIONS[option])
        sp.add_argument(
            "--json", action="store_const", const="json", dest="output",
            help="emit a JSON report",
        )
    return p


def main(argv=None) -> int:
    try:
        config = RunConfig(**vars(_build_parser().parse_args(argv)))
    except (ParseError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    code, report = run(config)
    if config.output == "json":
        print(emit_json(report))
    else:
        _print_human(report, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
