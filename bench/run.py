"""quasieig benchmark: one closed-loop caller driving the library in-process.

    python3 bench/run.py --workload pair_small --seed 1 --seconds 30 --trace 0

The caller issues each call after the previous one returns, from one
process with BLAS pinned to one thread.  It builds the workload's inputs
from ``--seed``, times calls for ``--seconds``, then checks every result
outside the timed region.  Timings are scaled to a reference speed by a
fixed probe computation timed around each call (``_best_times``).  It
prints one line per metric, with units and the machine it ran on, and as
its last line a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` calls for
half of ``--seconds`` untraced, then for whole passes over the inputs
traced (so the layer counts repeat exactly for a seed), and reports the
per-layer metrics and the tracing overhead between the two; it writes
the spans to ``.bench_out/``.  See ``bench/README.md`` for why each workload
exists and which layer metric should move which end-to-end metric.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)  # before numpy loads BLAS

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 15
#: After each timed call, reference probes run for this share of its time.
PROBE_FRAC = 0.05
#: Seconds of probes before and after each set-up.
SETUP_PROBE_S = 0.01
_PROBE_T = np.random.default_rng(0).random((10, 20))
_PROBE_B = np.random.default_rng(1).random((8, 8)) + 8.0 * np.eye(8)
_PROBE_G = np.random.default_rng(2).random((50_000, 3), dtype=np.float32) + np.float32(0.1)
_PROBE_M = np.random.default_rng(3).random((3, 3), dtype=np.float32)

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import quasieig; print(time.perf_counter() - t)"
)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _git_commit():
    if not (ROOT / ".git").exists():  # a plain checkout: do not report an enclosing repo
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def _import_seconds():
    """Wall time of ``import quasieig`` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip())


def _setup(workload, seed, workdir):
    """One set-up: build the inputs and make one warm-up call.  Returns the
    pool and its seconds, the import of the library included."""
    import_s = _import_seconds()
    t0 = time.perf_counter()
    pool = workload.build(seed, str(workdir))
    warm = min((inst for inst in pool if inst.n >= 2), key=lambda inst: inst.n)
    workload.call(warm)
    return pool, import_s + time.perf_counter() - t0


def _probe_small():
    """20 rank-one updates of a 10x20 array and 20 solves of an 8x8
    system: small-array numpy and Python work, as in the library's LP
    pivots."""
    t = _PROBE_T.copy()
    for _ in range(20):
        j = int(np.argmin(t[0]))
        i = int(np.argmax(t[1:, j])) + 1
        t = t - np.outer(t[:, j], t[i]) / (t[i, j] + 3.0)
        np.linalg.solve(_PROBE_B, t[1:9, 0])


def _probe_grid():
    """A float32 product, divide and min-max over a 50000x3 grid, as in
    the grid oracle."""
    num = _PROBE_G @ _PROBE_M
    np.divide(num, _PROBE_G, out=num)
    return float(num.min(axis=1).max())


#: Reference probes by name, each a fixed computation without the library
#: whose time tracks the machine's speed for one kind of work, and the
#: probe's best time on the reference machine (2-vCPU Intel Xeon, shared)
#: in seconds: the speed the reported call timings are scaled to.
PROBES = {"small": (_probe_small, 0.3e-3), "grid": (_probe_grid, 2.8e-3)}


def _probes(probe, budget):
    """Times of back-to-back runs of ``probe``, at least one, until they
    add up to ``budget`` seconds."""
    times = []
    clock = time.perf_counter
    while not times or sum(times) < budget:
        t0 = clock()
        probe()
        times.append(clock() - t0)
    return times


def _loop(pool, call, seconds, whole_passes, first=0, probe=None):
    """Call through the pool in order, from index ``first``, until
    ``seconds`` have passed (and, with ``whole_passes``, the pass is
    complete).  Returns records ``(pool index, latency, result,
    exception, probe time)`` and the elapsed time.

    With a ``probe`` function, each call is followed by probes for
    ``PROBE_FRAC`` of its time, and its probe time is the median of the
    probes after it and after the call before: the machine's speed around
    the call.  Otherwise the probe time is None."""
    records = []
    clock = time.perf_counter
    before = _probes(probe, 0.0) if probe else None
    start = clock()
    i = first
    while True:
        idx = i % len(pool)
        t0 = clock()
        try:
            result, error = call(pool[idx]), None
        except Exception as exc:  # a call that raises is a counted failure
            result, error = None, exc
        latency = clock() - t0
        ref = None
        if probe:
            after = _probes(probe, PROBE_FRAC * latency)
            ref = statistics.median(before + after)
            before = after
        records.append((idx, latency, result, error, ref))
        i += 1
        elapsed = clock() - start
        if elapsed >= seconds and (not whole_passes or i % len(pool) == 0):
            return records, elapsed


def _set_up_and_loop(workload, seed, workdir, seconds):
    """Set up ``SETUP_REPEATS`` times, each followed by an equal slice of the
    untraced loop, which goes on through the pool where the last slice
    stopped; the last slice runs on to the end of a pass.  Returns the
    first pool, the records, the loop's elapsed time, and the best set-up
    time scaled to the reference speed and unscaled.

    Each set-up is scaled by the "small" probe timed just before and
    after it, as the call timings are (see ``_best_times``); spread over
    the run, the best of them drops the short slow spells."""
    probe_small, ref_s = PROBES["small"]
    pool, records, elapsed, scaled, raw = None, [], 0.0, [], []
    for rep in range(SETUP_REPEATS):
        before = _probes(probe_small, SETUP_PROBE_S)
        built, setup_s = _setup(workload, seed, workdir / f"setup{rep}")
        speed = statistics.median(before + _probes(probe_small, SETUP_PROBE_S))
        pool = pool or built
        scaled.append(setup_s * ref_s / speed)
        raw.append(setup_s)
        first = records[-1][0] + 1 if records else 0
        last = rep == SETUP_REPEATS - 1  # ends on a whole pass, so every input is called
        part, part_s = _loop(pool, workload.call, seconds / SETUP_REPEATS, last, first,
                             probe=PROBES[workload.probe][0])
        records += part
        elapsed += part_s
    return pool, records, elapsed, min(scaled), min(raw)


def _check(pool, records, checker):
    """(input, failure reasons) per input.  Every call made with an input
    is checked; the input fails when any of them raised or the check
    found a reason.  Counting inputs, not calls, makes ``attempted`` and
    ``failed`` the same for a seed however many calls fit in the run."""
    found = {}
    for idx, _, result, error, _ in records:
        if error:
            reasons = [f"raised:{type(error).__name__}"]
        else:
            try:
                reasons = checker(pool[idx], result)
            except Exception as exc:  # outside every known defect: the run is incorrect
                reasons = [f"check-raised:{type(exc).__name__}"]
        found.setdefault(idx, set()).update(reasons)
    return [(pool[idx], sorted(reasons)) for idx, reasons in sorted(found.items())]


def _best_times(records, ref_s=None):
    """Each input's best latency over its repeats in ``records``; with
    ``ref_s``, each latency is first scaled to the reference speed,
    ``latency * ref_s / probe time``.

    The machine's speed swings by up to 2x, in spells of seconds to tens
    of minutes, so a raw time measures the neighbours as much as the
    library.  The best of an input's repeats, spread over the run, drops
    the short spells; scaling by the probe timed around the same call
    drops the long ones, which can cover a whole run."""
    best = {}
    for idx, t, _, _, ref in records:
        if ref_s:
            t *= ref_s / ref
        best[idx] = min(t, best.get(idx, t))
    return list(best.values())


def _timings(times, prefix=""):
    return {
        prefix + "calls_per_s": len(times) / sum(times),
        prefix + "call_p50_ms": float(np.median(times)) * 1e3,
        prefix + "call_p90_ms": float(np.percentile(times, 90)) * 1e3,
    }


def _end_to_end(records, setup_s, raw_setup_s, ref_s):
    """The end-to-end metrics, at the reference speed, and the raw ones
    (``raw.``) with the probe's median time, which the traced run reports."""
    return {
        **_timings(_best_times(records, ref_s)),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **_timings(_best_times(records), prefix="raw."),
        "raw.setup_s": raw_setup_s,
        "raw.probe_ms_p50": statistics.median(r[4] for r in records) * 1e3,
    }


def _with_units(values, specs):
    """``values`` in the order of the ``BENCHMARK.json`` list ``specs``, as
    (value, unit) pairs."""
    return {m["name"]: (values[m["name"]], m["unit"]) for m in specs}


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "quasieig" / "__init__.py").is_file():
        print(f"error: no quasieig sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    info = {"machine": _machine(),
            "run": {"git_commit": _git_commit(), "workload": workload.name, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "caller": "closed loop, 1 client"}}
    print("# " + json.dumps(info, sort_keys=True))

    workdir = OUT / f"work-{os.getpid()}"
    try:
        untraced_s = args.seconds / 2 if args.trace else args.seconds
        probe, ref_s = PROBES[workload.probe]
        probe()  # warm: the first run pays for numpy's lazy set-up
        pool, records, elapsed, setup_s, raw_setup_s = _set_up_and_loop(
            workload, args.seed, workdir, untraced_s)
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced, _ = _loop(pool, tracer.root(workload.call), args.seconds / 2, True)
            finally:
                tracer.uninstall()
        else:
            traced = []
        e2e = _end_to_end(records, setup_s, raw_setup_s, ref_s)
        checked = _check(pool, records + traced, workload.make_checker())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [(inst, reasons) for inst, reasons in checked if reasons]
    unexpected = [(inst, r) for inst, r in failed if not set(r) <= inst.known]
    summary = {}
    for inst, reasons in failed:
        key = f"{inst.label} n={inst.n} {'+'.join(reasons)}"
        summary[key] = summary.get(key, 0) + 1
    for key, count in sorted(summary.items()):
        print(f"# failure x{count}: {key}")
    print(f"# {len(records)} untraced calls in {elapsed:.3f} s, probes included; timings are the "
          f"best of each of {len(_best_times(records))} inputs' repeats, scaled to a "
          f"{workload.probe!r} probe time of {ref_s * 1e3:g} ms (median probe time in this run {e2e['raw.probe_ms_p50']:.4g} ms)")
    for name in ("calls_per_s", "call_p50_ms", "call_p90_ms", "setup_s"):
        print(f"# raw.{name} = {e2e['raw.' + name]!r} (unscaled)")
    print(f"# fail_frac = {len(failed) / len(checked)!r} frac "
          f"({len(failed)} of {len(checked)} inputs; {len(unexpected)} outside the known defects)")

    if args.trace:
        for name, (value, unit) in _with_units(e2e, spec["end_to_end"]).items():
            print(f"# untraced {name} = {value!r} {unit}")
        metrics = spans.layer_metrics(tracer.spans)
        metrics.update({name: value for name, value in e2e.items() if name.startswith("raw.")})
        cps = e2e["raw.calls_per_s"]
        times = _best_times(traced)
        metrics.update({"trace.calls_per_s_untraced": cps,
                        "trace.calls_per_s_traced": len(times) / sum(times),
                        "trace.overhead_frac": 1.0 - len(times) / sum(times) / cps})
        metrics = _with_units(metrics, spec["per_layer"])
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"trace-{workload.name}-seed{args.seed}.jsonl"
        tracer.dump(span_file, info)
        print(f"# {len(traced)} traced calls, {len(tracer.spans)} spans written to "
              f"{span_file.relative_to(ROOT)}")
    else:
        metrics = _with_units(e2e, spec["end_to_end"])
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
