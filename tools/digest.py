"""Digests of the benchmark workloads' results, for bit-for-bit comparison.

Runs the ``pair_small`` pools of seeds 1-3 through ``quasi_pair`` and the
``verify`` pools of seeds 1-3 through the in-process ``verify`` command,
then prints one SHA-256 per workload with its LP and pivot totals:

* ``pair_small``: the pickled list of every ``QuasiEigenResult``, or of
  the error's type and message where a call raises;
* ``verify``: every exit code and JSON text.

Two checkouts give the same results bit for bit when they print the same
lines.  The digests depend on numpy and its BLAS, so compare checkouts
only on one machine and environment.  Run from anywhere:

    python tools/digest.py

It uses the standard library and numpy, and imports the library from
``src/`` and the instance pools from ``bench/workloads.py`` of the same
checkout.
"""

import hashlib
import os
import pickle
import sys
import tempfile
from pathlib import Path

# One BLAS thread, as the benchmark runs: products then sum in one order.
os.environ.update({var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from quasieig import analysis, lp, quasi  # noqa: E402
from quasieig.errors import QuasiEigError  # noqa: E402

SEEDS = (1, 2, 3)


def _counted():
    """Route every LP of the library through a counter; returns its live
    ``[lps, pivots]``."""
    totals = [0, 0]
    solve = lp.solve_max_eps

    def counted(problem):
        sol = solve(problem)
        totals[0] += 1
        totals[1] += sol.pivots
        return sol

    quasi.solve_max_eps = analysis.solve_max_eps = counted
    return totals


def _pair(inst):
    try:
        return workloads.call_pair(inst)
    except QuasiEigError as exc:
        return type(exc).__name__, str(exc)


def _verify(inst):
    code, _, text = workloads.call_verify(inst)
    return code, text


def main() -> int:
    totals = _counted()
    runs = (("pair_small", _pair), ("verify", _verify))
    with tempfile.TemporaryDirectory(prefix="digest-") as tmp:
        for name, call in runs:
            totals[:] = 0, 0
            results = []
            for seed in SEEDS:
                pool = workloads.WORKLOADS[name].build(seed, str(Path(tmp) / f"{name}-{seed}"))
                results.extend(call(inst) for inst in pool)
            digest = hashlib.sha256(pickle.dumps(results, protocol=4)).hexdigest()
            print(f"{name}: {len(results)} results, {totals[0]} LPs, {totals[1]} pivots, sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
