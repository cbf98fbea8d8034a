"""Layered benchmark of the nonholo library.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload racer-simulate --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

``--trace 0`` measures the end-to-end metrics with no tracing for
``--seconds``, with times scaled to the reference machine speed by the probe
in ``probe.py``; ``--trace 1`` runs a fixed list of operations, each untraced
and then traced, and reports the per-layer metrics (see ``spans.py``); it
ignores ``--seconds`` so that its counts repeat exactly.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are a readable report and one ``context`` JSON line (machine,
environment, seed, accuracy figures, measurement limits).  The exit code is
0 only when every correctness check passed.

The library is imported from ``src/`` of the checkout this file sits in;
nothing is built or installed.  Everything runs in this one process on one
thread; scratch files are written under the checkout and removed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

_SCRIPT_T0 = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("racer-simulate", "ball-frame-simulate", "ball-checkfit", "racer-dither")
SETUP_REPEATS = 25
INPUT_POOL = 64  # operations cycle through this many seeded inputs
MEASUREMENT_LIMITS = (
    "in-process time.perf_counter timers only, scaled to the reference machine speed by a probe "
    "run after each operation (probe.py); no CPU pinning, no cache drops, "
    "no change to machine state; one process, one thread"
)


def _loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def _fresh_setup():
    """Import the library and the workloads afresh and build the models."""
    for name in [m for m in sys.modules if m.split(".")[0] in ("nonholo", "workloads", "spans")]:
        del sys.modules[name]
    wl_module = importlib.import_module("workloads")
    mods = wl_module.build_models()
    return wl_module, mods


def _run_op(wl, mods, inp):
    """One timed operation; returns ``(seconds, result or None)``."""
    t0 = time.perf_counter()
    try:
        result = wl.run(mods, inp)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - t0, None
    return time.perf_counter() - t0, result


def _check_all(wl, mods, op_inputs, results, reference_input, reference_bytes):
    """Check every result; returns ``(failed, per-op check dicts)``.

    ``op_inputs[i]`` is the input of ``results[i]``; every result for
    ``reference_input`` must reproduce ``reference_bytes`` exactly.
    """
    failed = 0
    checks = []
    for i, (inp, res) in enumerate(zip(op_inputs, results)):
        if res is None:
            failed += 1
            continue
        try:
            info = wl.check(mods, inp, res)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
            continue
        ok = min(info["margins"].values()) > 0.0
        if inp is reference_input and wl.primary(res) != reference_bytes:
            info["rerun_identical"] = False
            ok = False
        if not ok:
            print(f"check failed on operation {i}: {info}", file=sys.stderr)
            failed += 1
        checks.append(info)
    return failed, checks


def _accuracy(checks) -> dict:
    """Median over operations of each guard margin, the smallest of those
    medians, and the workload's worst figures.

    Operations of one workload may check different guards (the dither
    workload alternates two kinds); each guard's median is over the
    operations that check it.
    """
    out = {}
    margins, figures = {}, {}
    for c in checks:
        for key, value in c["margins"].items():
            margins.setdefault(key, []).append(value)
        for key, value in c.items():
            if key != "margins" and isinstance(value, (int, float)):
                figures.setdefault(key, []).append(value)
    if not margins:
        return out
    for key, values in margins.items():
        out[f"margin_log10.{key}"] = statistics.median(values)
    out["guard_margin_log10"] = min(out[f"margin_log10.{key}"] for key in margins)
    for key, values in figures.items():
        out[f"worst.{key}"] = max(values)
    return out


def _named_figures(name: str, rate: float, acc: dict, failed: int, attempted: int) -> dict:
    """The workload's throughput and accuracy under their specific names."""
    figures = {"error_rate": failed / attempted}
    figures["points_per_s" if name == "ball-checkfit" else "steps_per_s"] = rate
    if "worst.oracle_dev" in acc:
        figures["oracle_dev_log10"] = math.log10(max(acc["worst.oracle_dev"], 1e-300))
    if "worst.residual_max" in acc:
        figures["residual_headroom_log10"] = acc["margin_log10.residual"]
    if "margin_log10.psi" in acc:
        figures["psi_margin_log10"] = acc["margin_log10.psi"]
    return figures


def _context(args, env_threads, worker_count, load_start, extra) -> dict:
    import numpy

    return {
        "context": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "nproc": os.cpu_count(),
            "loadavg_start": load_start,
            "loadavg_end": _loadavg(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "NONHOLO_THREADS_in_environment": env_threads,
            "NONHOLO_THREADS_during_run": os.environ.get("NONHOLO_THREADS"),
            "worker_count": worker_count,
            "measurement_limits": MEASUREMENT_LIMITS,
            **extra,
        }
    }


def _measure(seconds, wl, mods, inputs, probe):
    """Untraced closed loop for ``seconds``; the end-to-end metrics.

    Each operation is followed by a probe chunk of about the same length, so
    that the throughput can be scaled to the reference machine speed.
    """
    warm_s, warm = _run_op(wl, mods, inputs[0])
    reference = wl.primary(warm) if warm is not None else None
    probe_n = probe.iterations_for(warm_s)
    times, probe_times, results, op_inputs = [], [], [], []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        inp = inputs[len(results) % len(inputs)]
        dt, res = _run_op(wl, mods, inp)
        times.append(dt)
        probe_times.append(probe.run(probe_n))
        results.append(res)
        op_inputs.append(inp)
    failed, checks = _check_all(wl, mods, op_inputs, results, inputs[0], reference)
    if warm is None:
        failed += 1
    # units over the loop's busy time, scaled by the probe's rate over the
    # same interval: the machine's drift cancels in the ratio of the two
    rate = sum(wl.units(inp) for inp in op_inputs) / sum(times)
    probe_rate = probe_n * len(probe_times) / sum(probe_times)
    scaled_rate = rate * probe.REFERENCE_RATE / probe_rate
    op_rates = [wl.units(inp) / t for inp, t in zip(op_inputs, times)]
    op_rates = statistics.quantiles(op_rates, n=4) if len(op_rates) > 1 else op_rates * 3
    acc = _accuracy(checks)
    metrics = {
        "units_per_ref_s": {"value": scaled_rate, "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        "guard_margin_log10": {"value": acc.get("guard_margin_log10", 0.0), "unit": "decades"},
    }
    extra = {
        "unit": wl.unit,
        "operations": len(times),
        "measured_units_per_s": rate,
        "probe_rate": probe_rate,
        "probe_iterations_per_op": probe_n,
        "op_rate_quartiles": op_rates,
        "figures": _named_figures(wl.name, rate, acc, failed, len(results)),
        "accuracy": acc,
    }
    return len(results), failed, metrics, extra


def _measure_traced(wl, mods, inputs, spans):
    """A fixed list of operations, each untraced then traced; the per-layer metrics.

    The list is fixed, not timed, so the counts repeat exactly for a seed.
    """
    ops = [inputs[i % len(inputs)] for i in range(wl.trace_ops)]
    _, warm = _run_op(wl, mods, ops[0])
    reference = wl.primary(warm) if warm is not None else None

    rec = spans.Recorder()
    traced_mods = {k: rec.wrap_bundle(b) for k, b in mods.items()}
    plain_wall = traced_wall = 0.0
    results = []
    first_counts = None
    # alternating keeps both sides under the same machine load
    for inp in ops:
        dt, res = _run_op(wl, mods, inp)
        plain_wall += dt
        results.append(res)
        with rec.installed():
            dt, res = _run_op(wl, traced_mods, inp)
        traced_wall += dt
        results.append(res)
        if first_counts is None:
            first_counts = rec.counts()

    # the counts of one operation must repeat exactly on a second traced run
    again = spans.Recorder()
    with again.installed():
        _run_op(wl, {k: again.wrap_bundle(b) for k, b in mods.items()}, ops[0])
    counts_repeat = again.counts() == first_counts

    # traced results go through the same checks: tracing must not change outputs
    failed, _ = _check_all(wl, mods, [inp for inp in ops for _ in range(2)], results, ops[0], reference)
    failed += 0 if warm is not None else 1
    if not counts_repeat:
        print(f"span counts differ on a repeated operation: {again.counts()} vs {first_counts}", file=sys.stderr)
        failed += 1

    units = sum(wl.units(inp) for inp in ops)
    steps = sum(wl.integrate_steps(inp) for inp in ops)
    points = sum(wl.scan_points(inp) for inp in ops)
    layer = rec.summary(units, steps, points, traced_wall)
    layer["trace_overhead"] = traced_wall / plain_wall
    metrics = {key: {"value": value, "unit": spans.layer_unit(key)} for key, value in layer.items()}
    extra = {
        "unit": wl.unit,
        "operations": len(ops),
        "units": units,
        "plain_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "counts_repeat_exactly": counts_repeat,
    }
    return len(results), failed, metrics, extra


def _declared_metrics(trace: int) -> set:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def _run_all(args) -> int:
    """Run every workload, each in its own process, one after another."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return _run_all(args)

    if not (SRC / "nonholo" / "__init__.py").is_file():
        print(f"library source not found under {SRC}", file=sys.stderr)
        return 2
    load_start = _loadavg()
    # scans run serially: the thread pool is never part of a measurement
    env_threads = os.environ.pop("NONHOLO_THREADS", None)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]

    import probe

    # each set-up is followed by a probe chunk of about its length; the
    # reported set-up time is the median over repeats of the time scaled to
    # the reference machine speed
    setup_times, setup_scaled, probe_n = [], [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl_module, mods = _fresh_setup()
        wl = wl_module.WORKLOADS[args.workload]
        inputs = [wl.make_input(mods, args.seed, i) for i in range(INPUT_POOL)]
        setup_times.append(time.perf_counter() - t0)
        probe_n = probe_n or probe.iterations_for(setup_times[0])
        setup_scaled.append(setup_times[-1] * (probe_n / probe.run(probe_n)) / probe.REFERENCE_RATE)
    first_call_s = time.perf_counter() - _SCRIPT_T0

    import nonholo
    import nonholo.jump_analysis
    import spans

    if Path(nonholo.__file__).resolve().parent != (SRC / "nonholo").resolve():
        print(f"imported nonholo from {nonholo.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    worker_count = nonholo.jump_analysis.worker_count()
    if worker_count != 1:
        print(f"worker_count() is {worker_count}, expected 1", file=sys.stderr)
        return 2

    if args.trace:
        attempted, failed, metrics, extra = _measure_traced(wl, mods, inputs, spans)
    else:
        attempted, failed, metrics, extra = _measure(args.seconds, wl, mods, inputs, probe)
        metrics = {"setup_s": {"value": statistics.median(setup_scaled), "unit": "s"}, **metrics}
        extra["measured_setup_s"] = statistics.median(setup_times)
    extra["setup_s_each"] = setup_times
    extra["script_start_to_first_call_s"] = first_call_s

    mismatch = set(metrics) ^ _declared_metrics(args.trace)
    if mismatch:
        print(f"metrics {sorted(mismatch)} differ from BENCHMARK.json", file=sys.stderr)
        return 2

    for key, m in metrics.items():
        print(f"{args.workload} {key} = {m['value']!r} {m['unit']}")
    for key, value in extra.get("figures", {}).items():
        print(f"{args.workload} {key} = {value!r}")
    print(json.dumps(_context(args, env_threads, worker_count, load_start, extra)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
