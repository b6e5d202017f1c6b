"""Seeded workloads for the quasieig benchmark: instance pools, the call
each workload makes, and the correctness check run on every result.

Every pool is a fixed table of slots (family, n, cone kind).  The seed
draws only the matrix entries and the cone rotations, so two seeds give
the same mix of sizes and families and comparable amounts of work.

Checks never skip an instance.  A slot may name the failure reasons that
ROADMAP item 3 already documents for it (``known``); a failure whose
reasons all lie in that set is still counted in ``fail_frac``, but it
does not make the run incorrect.  Any other failure does.
"""

import dataclasses
import os
from dataclasses import dataclass, field

import numpy as np

from quasieig import cli, matcore, quasi
from quasieig.cones import Cone, random_orthogonal
from quasieig.errors import QuasiEigError

#: The library's default tolerance; the benchmark passes no tolerance.
TOL = 1e-9
ORACLE_GRID_K = 2000
ORACLE_AGREEMENT = 1e-2

EX1 = np.diag([2.0, 1.0])  # paper example 1: a diagonal matrix
EX2 = np.array([[1.0, -1.0], [1.0, 1.0]])  # paper example 2: a rotation-scaling


@dataclass(frozen=True, eq=False)
class Instance:
    """One input of a workload.

    ``metzler`` marks off-diagonal entries >= 0 (over the orthant the
    upper value is then the largest eigenvalue real part); ``isc_sign``
    is +1/-1 for irreducible sign-constant matrices (both values equal
    the eigenvalue with positive eigenvectors), 0 otherwise.  ``scale``
    is the factor the family matrix was multiplied by.
    """

    label: str
    a: np.ndarray = field(repr=False)
    cone: Cone = field(repr=False)
    scale: float = 1.0
    metzler: bool = False
    isc_sign: int = 0
    known: frozenset = frozenset()
    config: object = None  # verify: the cli.RunConfig naming the matrix file

    @property
    def n(self) -> int:
        return self.a.shape[0]


# ---------------------------------------------------------------- families


def _perron(rng, n):
    """Irreducible nonnegative: uniform entries plus an enforced cycle."""
    a = rng.uniform(0.0, 1.0, (n, n))
    for i in range(n):
        a[i, (i + 1) % n] = max(a[i, (i + 1) % n], 0.2)
    return a


def _metzler(rng, n):
    a = _perron(rng, n)
    np.fill_diagonal(a, rng.uniform(-1.0, 1.0, n))
    return a


def _isc(rng, n, sign):
    a = _metzler(rng, n)
    if sign < 0:
        off = ~np.eye(n, dtype=bool)
        a[off] = -a[off]
    return a


def _normal(rng, n, min_gap=0.05):
    """Rotation-scaling blocks and real scalars, conjugated by a random
    orthogonal matrix; eigenvalue real parts kept ``min_gap`` apart."""
    while True:
        nblocks = int(rng.integers(0, n // 2 + 1))
        thetas = rng.uniform(0.15, np.pi - 0.15, nblocks)
        radii = rng.uniform(0.3, 2.0, nblocks)
        reals = rng.uniform(-2.0, 2.0, n - 2 * nblocks)
        parts = np.sort(np.concatenate([radii * np.cos(thetas), reals]))
        if np.all(np.diff(parts) >= min_gap):
            break
    o = np.zeros((n, n))
    for i, (r, t) in enumerate(zip(radii, thetas)):
        o[2 * i: 2 * i + 2, 2 * i: 2 * i + 2] = r * np.array(
            [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]
        )
    o[np.arange(2 * nblocks, n), np.arange(2 * nblocks, n)] = reals
    v = random_orthogonal(n, int(rng.integers(0, 2**31)))
    return v @ o @ v.T


def _family(label, rng, n):
    """(matrix, metzler, isc_sign) for a family label."""
    if label == "generic":
        return rng.uniform(-1.0, 1.0, (n, n)), False, 0
    if label == "perron":
        return _perron(rng, n), True, 1
    if label == "metzler":
        return _metzler(rng, n), True, 1
    if label in ("isc+", "isc-"):
        sign = 1 if label == "isc+" else -1
        return _isc(rng, n, sign), sign > 0, sign
    if label == "normal":
        return _normal(rng, n), False, 0
    if label == "jordan":
        return np.diag(np.ones(n - 1), 1), True, 0
    if label in ("reducible-perron", "reducible-generic"):
        a, metzler, _ = _family(label.split("-")[1], rng, n)
        a[n // 2:, : n // 2] = 0.0  # block upper-triangular
        return a, metzler, 0
    if label == "n1":
        return np.array([[rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)]]), True, 1
    if label == "paper1":
        return EX1.copy(), True, 0
    if label == "paper2":
        return EX2.copy(), False, 0
    raise ValueError(f"unknown family {label!r}")


def _cone(kind, rng, n):
    if kind == "orthant":
        return Cone.orthant(n)
    return Cone.rotated(random_orthogonal(n, int(rng.integers(0, 2**31))))


# Failure reasons ROADMAP item 3 documents for a slot, by family.
_JORDAN_OVERSHOOT = frozenset({"value", "certificate"})
_SMALL_SCALE_COLLAPSE = frozenset({"value", "certificate", "sandwich"})
_LARGE_SCALE_BREAKDOWN = frozenset({"raised:NumericalBreakdown"})
_NORMAL_FALSE_FAILS = frozenset({"exit3:normal_cone_classification"})

# (label, n, cone kind, scale, known failure reasons).  Six draws of a
# 40-slot table: one draw leaves the per-pass cost too seed-dependent,
# because a generic input may take the single-vertex shortcut or not.
_PAIR_SMALL = 6 * (
    [("paper1", 2, "orthant"), ("paper1", 2, "rotated"),
     ("paper2", 2, "orthant"), ("paper2", 2, "rotated")]
    + [("generic", n, k) for n, k in [(2, "orthant"), (4, "rotated"), (6, "orthant"),
                                      (8, "rotated"), (3, "orthant"), (5, "rotated")]]
    + [("isc+", n, k) for n, k in [(3, "orthant"), (5, "rotated"), (7, "orthant")]]
    + [("isc-", n, k) for n, k in [(4, "orthant"), (6, "rotated"), (8, "orthant")]]
    + [("metzler", n, k) for n, k in [(2, "orthant"), (4, "rotated"), (6, "orthant"), (8, "rotated")]]
    + [("perron", n, k) for n, k in [(3, "orthant"), (5, "rotated"), (7, "orthant"), (4, "rotated")]]
    + [("normal", n, k) for n, k in [(3, "orthant"), (4, "rotated"), (6, "orthant"), (8, "rotated")]]
    + [("jordan", k, "orthant", 1.0, _JORDAN_OVERSHOOT) for k in (2, 3, 4, 6)]
    + [("reducible-perron", 4, "orthant"), ("reducible-perron", 6, "orthant"),
       ("reducible-generic", 5, "rotated"), ("n1", 1, "orthant"), ("n1", 1, "rotated")]
    + [("perron", 4, "orthant", 1e-150, _SMALL_SCALE_COLLAPSE),
       ("perron", 4, "orthant", 1e7, _LARGE_SCALE_BREAKDOWN),
       ("perron", 4, "orthant", 1e150, _LARGE_SCALE_BREAKDOWN)]
)

_VERIFY = 3 * [
    (fam, n, "orthant", 1.0, _NORMAL_FALSE_FAILS if fam == "normal" else frozenset())
    for fam, n in [
        ("isc+", 4), ("isc-", 6), ("perron", 8), ("metzler", 6), ("normal", 4), ("generic", 7),
        ("isc+", 10), ("isc-", 12), ("perron", 5), ("metzler", 11), ("normal", 9), ("generic", 12),
    ]
]

_ORACLE = [
    ("generic", 3, "orthant"), ("generic", 3, "rotated"), ("perron", 3, "orthant"),
    ("generic", 2, "rotated"), ("metzler", 3, "rotated"), ("isc-", 3, "orthant"),
    ("generic", 3, "rotated"), ("generic", 2, "orthant"),
]


def _pool(slots, rng):
    out = []
    for slot in slots:
        label, n, kind, scale, known = slot + (1.0, frozenset())[len(slot) - 3:]
        a, metzler, isc_sign = _family(label, rng, n)
        out.append(
            Instance(
                label=label if scale == 1.0 else f"{label}*{scale:g}",
                a=a * scale,
                cone=_cone(kind, rng, n),
                scale=scale,
                metzler=metzler and kind == "orthant",
                isc_sign=isc_sign if kind == "orthant" else 0,
                known=known,
            )
        )
    return out


# ------------------------------------------------------------------- calls


def call_pair(inst):
    return quasi.quasi_pair(inst.a, inst.cone)


def call_verify(inst):
    code, report = cli.run(inst.config)
    return code, report, cli.emit_json(report)


def call_oracle(inst):
    return quasi.brute_minimax(inst.a, inst.cone, ORACLE_GRID_K)


# ------------------------------------------------------------------ checks


def _value_tol(inst):
    """Twice the library tolerance, scaled with ||A|| (floor 1 at unit
    scale, so the scale families are judged in their own units)."""
    base = np.linalg.norm(inst.a / inst.scale, 2)
    return 2.0 * TOL * inst.scale * max(1.0, base)


class PairChecker:
    """Checks a ``quasi_pair`` result against eigenvalue identities, the
    README certificate and the symmetric-part sandwich."""

    def __init__(self):
        self._refs = {}

    def _ref(self, inst):
        ref = self._refs.get(id(inst))
        if ref is None:
            re = np.array([lam.real for lam, _ in matcore.eig_oracle(inst.a)])
            sym = np.linalg.eigvalsh(0.5 * (inst.a + inst.a.T))
            ref = self._refs[id(inst)] = (re.max(), re.min(), sym[0], sym[-1], _value_tol(inst))
        return ref

    def __call__(self, inst, r):
        re_max, re_min, sym_lo, sym_hi, tau = self._ref(inst)
        up, lo = r.lambda_upper, r.lambda_lower
        value_ok = not inst.metzler or abs(up - re_max) <= tau
        if inst.isc_sign:
            target = re_max if inst.isc_sign > 0 else re_min
            value_ok = value_ok and max(abs(up - target), abs(lo - target)) <= tau
        try:
            cert_ok = (quasi.inner_inf(inst.a, inst.cone, r.u_right) >= up - tau
                       and quasi.inner_sup(inst.a, inst.cone, r.v_left) <= lo + tau)
        except QuasiEigError:  # a returned vector outside the cone certifies nothing
            cert_ok = False
        sandwich_ok = sym_lo - tau <= lo and up <= sym_hi + tau and lo <= up + tau
        return [name for name, ok in (("value", value_ok), ("certificate", cert_ok),
                                      ("sandwich", sandwich_ok)) if not ok]


def check_verify(inst, result):
    code, report, text = result
    if code == 0 and text:
        return []
    failing = sorted(
        rep["name"] for rep in report.get("theorem_reports", [])
        if rep["applicable"] and not rep["holds"]
    )
    return [f"exit{code}:" + ",".join(failing or [report.get("error", "")])]


class OracleChecker:
    """The grid values must agree with ``quasi_pair``'s upper value to
    ``1e-2 max(1, ||A||)``; the reference solve runs once per instance."""

    def __init__(self):
        self._refs = {}

    def __call__(self, inst, result):
        ref = self._refs.get(id(inst))
        if ref is None:
            ref = self._refs[id(inst)] = quasi.quasi_pair(inst.a, inst.cone).lambda_upper
        tol = ORACLE_AGREEMENT * max(1.0, np.linalg.norm(inst.a, 2))
        return [] if max(abs(x - ref) for x in result) <= tol else ["oracle"]


# --------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    name: str
    slots: list
    call: object
    make_checker: object
    writes_files: bool = False
    probe: str = "small"  # the run.py reference probe that loads the machine as the calls do

    def build(self, seed, workdir):
        """The instance pool for ``seed``; verify also writes its matrix
        files under ``workdir``."""
        pool = _pool(self.slots, np.random.default_rng(seed))
        if not self.writes_files:
            return pool
        os.makedirs(workdir, exist_ok=True)
        out = []
        for i, inst in enumerate(pool):
            path = os.path.join(workdir, f"m{i:02d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(cli.emit_matrix(inst.a))
            config = cli.RunConfig(subcommand="verify", matrix_path=path,
                                   seed=seed * 100 + i, output="json")
            out.append(dataclasses.replace(inst, config=config))
        return out


WORKLOADS = {
    "pair_small": Workload("pair_small", _PAIR_SMALL, call_pair, PairChecker),
    "verify": Workload("verify", _VERIFY, call_verify, lambda: check_verify, writes_files=True),
    "oracle": Workload("oracle", _ORACLE, call_oracle, OracleChecker, probe="grid"),
}
