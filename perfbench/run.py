#!/usr/bin/env python3
"""fishcoop benchmark: one workload per run, timed untraced or traced.

    python3 perfbench/run.py --workload grid_desk --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --trace 1

Run from the root of a source checkout; the package is imported from its
``src/``. Workloads, metric names and units come from ``BENCHMARK.json``.

A run sets up several times in fresh processes (``setup_s``), then runs
units of its workload, each with the same inputs from ``--seed``, while
``--seconds`` allow. Other tenants of a shared host slow it down for
minutes at a time, so untraced times are scaled to one reference host
speed, measured while they run (``speed.py``). With ``--trace 0`` the run
reports the end-to-end metrics. With
``--trace 1`` untraced and traced units alternate: per-layer metrics are per
traced unit (counts exact, times the fastest of the traced units), and
``tracing.overhead_s`` is the traced minus the untraced unit time.
Every unit's outputs are checked off the clock. The last line of standard
output is one JSON object; a human-readable report precedes it, and the full
record (machine, checks, hashes, per-unit values) goes to ``perfbench/out/``.
Exit code 0: every check passed; 1: a check failed; 2: could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import selectors
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
# fishcoop's matrices are small: a second BLAS thread spun a second core for
# no speed-up, and stalled whole units whenever the host took that core away
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1"}
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 30


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_fishcoop():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fishcoop

    if not Path(fishcoop.__file__).resolve().is_relative_to(src):
        raise ImportError(f"fishcoop imported from {fishcoop.__file__}, not {src}")
    return fishcoop


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
        **{name: os.environ.get(name) for name in BLAS_THREADS},
    }


def setup_workload(name: str, seed: int, work_dir: Path):
    """Import, configure and build one unit's inputs: what ``setup_s`` times."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, work_dir)
    workload.prepare()
    return workload


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Seconds from process start to ready inputs, once per fresh process:
    as measured, and at reference speed by the slowdown the process
    measured right after (``speed.slowdown_now``)."""
    times, scaled = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(proc.stdout, selectors.EVENT_READ)
                ready = sel.select(timeout=PROBE_TIMEOUT_S) and proc.stdout.readline()
            elapsed = time.perf_counter() - start
            rest, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if ready != "ready\n" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err.strip()}")
        times.append(elapsed)
        scaled.append(elapsed / float(rest))
    return times, scaled


def run_unit(workload, tracer, meter) -> dict:
    """Run one unit on the clock, then check its outputs off the clock."""
    from workloads import Outcome

    inputs = workload.prepare()
    workload.tracer = tracer
    mark = tracer.mark() if tracer else None
    error = None
    start = time.perf_counter()
    try:
        if tracer:
            with tracer.installed():
                raw = workload.run(inputs)
        else:
            raw = workload.run(inputs)
    except Exception:  # a crashed unit is a failed unit, not a crashed benchmark
        error = traceback.format_exc()
    end = time.perf_counter()
    wall = end - start
    work, scaled, slowdown = meter.scaled(start, end)
    workload.tracer = None
    if error is None:
        outcome = workload.check(inputs, raw)
    else:
        outcome = Outcome(workload.ops, workload.ops, [], 0, "")
        outcome.check("unit ran without an exception", False, error)
    return {
        "traced": tracer is not None,
        "wall_s": wall,
        "work_s": work,
        "scaled_s": scaled,
        "slowdown": slowdown,
        "outcome": outcome,
        "layers": tracer.unit_layers(mark) if tracer else None,
    }


def run_units(args, workload, tracer, meter) -> list[dict]:
    """Untraced units, or pairs of an untraced and a traced unit in
    alternating order, until the next would overrun ``--seconds``."""
    units = []
    start = time.perf_counter()
    while True:
        if tracer is None:
            units.append(run_unit(workload, None, meter))
            step = statistics.median(u["wall_s"] for u in units)
        else:
            pair = len(units) // 2
            for traced in ((False, True) if pair % 2 == 0 else (True, False)):
                units.append(run_unit(workload, tracer if traced else None, meter))
            step = 2 * statistics.median(u["wall_s"] for u in units)
        if time.perf_counter() - start + step > args.seconds:
            return units


def end_to_end(spec, units, setup_scaled) -> dict:
    """Gated metrics: ``end_to_end`` of BENCHMARK.json."""
    scaled = [u["scaled_s"] for u in units]
    wall = statistics.median(scaled)
    values = {
        "setup_s": (statistics.median(setup_scaled), setup_scaled,
                    "median of set-ups in fresh processes at reference host speed"),
        "wall_s": (wall, scaled, "median unit time at reference host speed"),
        "agent_steps_per_s": (units[0]["outcome"].agent_steps / wall, None,
                              f"{units[0]['outcome'].agent_steps} agent-steps per unit / wall_s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, None,
                        "this process"),
    }
    return {m["name"]: (values[m["name"]][0], m["unit"], *values[m["name"]][1:])
            for m in spec["end_to_end"]}


def op_latencies(workload_name: str, units) -> dict:
    """Operation latencies and the failed ratio, printed next to the gated metrics."""
    ops = [s for u in units for s in u["outcome"].op_seconds]
    attempted = sum(u["outcome"].attempted for u in units)
    failed = sum(u["outcome"].failed for u in units)
    extras = {
        "failed_ratio": (failed / attempted, "ratio", [failed / attempted],
                         f"{failed} failed of {attempted} operations"),
        "wall_unscaled_s": (statistics.median(u["work_s"] for u in units), "s",
                            [u["work_s"] for u in units], "median unit time as measured"),
        "host_slowdown": (statistics.median(u["slowdown"] for u in units), "ratio",
                          [u["slowdown"] for u in units],
                          "median over units of measured over scaled time"),
    }
    if workload_name == "grid_desk":
        extras["trial_s_p50"] = (statistics.median(ops), "s", ops, "median of trials")
    if workload_name == "rollout_eval":
        ms = [1e3 * s for s in ops]
        extras["episode_ms_p50"] = (statistics.median(ms), "ms", ms, "median of episodes")
        p90 = statistics.quantiles(ms, n=10)[8] if len(ms) >= 100 else float("nan")
        extras["episode_ms_p90"] = (p90, "ms", ms, "90th percentile of episodes")
    return extras


def per_layer(spec, units, checks) -> dict:
    """Per-layer metrics (``per_layer`` of BENCHMARK.json) from the traced units."""
    import numpy as np

    traced = [u for u in units if u["traced"]]
    plain = [u for u in units if not u["traced"]]
    result = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        layer, _, stat = name.rpartition(".")
        if name == "learner.minibatch_ratio":
            run = sum(u["layers"]["learner.ppo_loss_and_grads"]["calls"] for u in traced)
            most = sum(u["layers"]["learner.minibatch"]["max"] for u in traced)
            value = run / most if most else 0.0
        elif name == "tracing.overhead_s":
            value = (statistics.median(u["scaled_s"] for u in traced)
                     - statistics.median(u["scaled_s"] for u in plain))
        elif stat in ("calls", "iterations", "bytes"):
            per_unit = [
                u["layers"][layer]["calls"] if stat == "calls"
                else u["outcome"].exact.get(name, 0)
                for u in traced
            ]
            value = per_unit[0]
            if stat != "bytes" and len(set(per_unit)) > 1:
                checks.append({"check": f"{name} repeats across traced units", "ok": False,
                               "detail": str(per_unit)})
        elif stat in ("busy_s", "self_s"):
            value = min(u["layers"][layer][stat] for u in traced)
        elif stat in ("us_p50", "ms_p50"):
            durations = np.concatenate([u["layers"][layer]["durations"] for u in traced])
            scale = 1e6 if stat == "us_p50" else 1e3
            value = float(np.median(durations)) * scale if len(durations) else 0.0
        else:
            raise ValueError(f"no rule for per-layer metric {name}")
        result[name] = (value, metric["unit"], None, "")
    return result


def fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def report(args, machine, checks, metrics, extras, units) -> None:
    print(f"fishcoop benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} units={len(units)}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    for check in checks:
        status = "ok  " if check["ok"] else "FAIL"
        print(f"check {status} {check['check']} {check['detail']}".rstrip())
    for name, (value, unit, samples, how) in {**metrics, **extras}.items():
        line = f"metric {name} = {fmt(value)} {unit}"
        if samples is not None and len(samples) > 1:
            q1, _, q3 = quartiles(samples)
            line += f" (q1 {fmt(q1)}, q3 {fmt(q3)}, n={len(samples)}, {how})"
        elif how:
            line += f" ({how})"
        print(line)


def write_record(args, machine, checks, metrics, extras, units, setup) -> Path:
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "checks": checks,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in {**metrics, **extras}.items()},
        "setup_s": setup,
        "units": [
            {
                "traced": u["traced"],
                "wall_s": u["wall_s"],
                "work_s": u["work_s"],
                "scaled_s": u["scaled_s"],
                "slowdown": u["slowdown"],
                "attempted": u["outcome"].attempted,
                "failed": u["outcome"].failed,
                "agent_steps": u["outcome"].agent_steps,
                "op_seconds": u["outcome"].op_seconds,
                "fingerprint": u["outcome"].fingerprint,
                "exact": u["outcome"].exact,
                "checks": u["outcome"].checks,
                **u["outcome"].record,
            }
            for u in units
        ],
    }
    path.write_text(json.dumps(record, indent=1, default=str))
    return path


def run_all(args) -> int:
    """Each workload in its own process, then one combined JSON line."""
    spec = load_spec()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload["name"],
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode == 2 or not lines:
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload['name']}.{name}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for name, value in BLAS_THREADS.items():
        os.environ.setdefault(name, value)  # before NumPy loads; probes inherit it

    try:
        spec = load_spec()
        import_fishcoop()
    except (OSError, ValueError, ImportError) as exc:
        print(f"cannot run the benchmark here: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    if args.workload not in names:
        parser.error(f"--workload must be one of {names} or all")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    workload = None
    try:
        if args.setup_probe:
            workload = setup_workload(args.workload, args.seed, work_dir)
            print("ready", flush=True)
            from speed import slowdown_now

            print(slowdown_now(), flush=True)
            return 0
        setup_times, setup_scaled = ([], []) if args.trace else measure_setup(args)
        workload = setup_workload(args.workload, args.seed, work_dir)
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        machine = machine_record()
        from speed import SpeedMeter

        with SpeedMeter() as meter:
            units = run_units(args, workload, tracer, meter)
        checks = [
            {**c, "detail": f"unit {i}{' traced' if u['traced'] else ''}: {c['detail']}"}
            for i, u in enumerate(units) for c in u["outcome"].checks if not c["ok"]
        ]
        passed = {c["check"] for u in units for c in u["outcome"].checks if c["ok"]}
        checks += [{"check": name, "ok": True, "detail": f"all {len(units)} units"}
                   for name in sorted(passed - {c["check"] for c in checks})]
        fingerprints = {u["outcome"].fingerprint for u in units}
        checks.append({
            "check": "every unit's outputs identical" + (", traced or not" if tracer else ""),
            "ok": len(fingerprints) == 1,
            "detail": f"{len(fingerprints)} distinct output hashes over {len(units)} units",
        })
        if tracer:
            metrics = per_layer(spec, units, checks)
            extras = {}
            tracer.save(OUT / f"{args.workload}-seed{args.seed}.spans.npz")
        else:
            metrics = end_to_end(spec, units, setup_scaled)
            extras = op_latencies(args.workload, units)
            extras["setup_unscaled_s"] = (statistics.median(setup_times), "s", setup_times,
                                          "median of set-ups as measured")
        attempted = sum(u["outcome"].attempted for u in units)
        failed = sum(u["outcome"].failed for u in units)
        correct = failed == 0 and all(c["ok"] for c in checks)
        report(args, machine, checks, metrics, extras, units)
        path = write_record(args, machine, checks, metrics, extras, units,
                            {"measured": setup_times, "scaled": setup_scaled})
        print(f"record: {path.relative_to(ROOT)}")
    except (OSError, RuntimeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
