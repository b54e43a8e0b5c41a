"""weakdev benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload doubling-thm2 [--seed 1] [--seconds 20] [--trace 0]

Workloads: doubling-thm2, infmem-thm1, coupling, profile-sweep (see
perfbench/README.md).  The run uses the weakdev sources under src/ next to
this directory, in this single process, as a closed loop of whole rounds
until --seconds have passed.  Every round's outputs are checked.

--trace 0 prints the end-to-end metrics: setup_s (median over fresh
processes), run_s (median round wall time) and peak_rss_mb.  --trace 1
runs rounds untraced and then traced, probes single layers, and prints the
per-layer metrics; its spans go to .perfbench/trace-<workload>-<seed>.csv.gz.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench"
SETUP_SAMPLES = 3
DEFAULT_SEED = 1
# Shares of --seconds for the untraced and traced rounds of a traced run;
# the layer probes take most of the rest.
TRACE_SPLIT = (0.3, 0.3)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["doubling-thm2", "infmem-thm1", "coupling", "profile-sweep"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def fresh_setups(args, workdir: Path) -> list[dict]:
    """Time SETUP_SAMPLES fresh processes from start to their ready line."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", args.workload,
               "--workdir", str(workdir), "--seed", str(args.seed)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or not line.strip():
            raise RuntimeError(f"set-up process exited with {code}")
        sample = json.loads(line)
        sample["setup_s"] = wall
        samples.append(sample)
    return samples


def steal_s() -> float:
    """CPU time the hypervisor gave to others since boot, all CPUs (Linux)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def run_rounds(wl, seconds: float, first: int, tracer=None) -> list:
    """Whole rounds until `seconds` have passed; at least one."""

    def timed(rnd, fn, *fn_args):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                return fn(*fn_args)
            return tracer.span("bench.round", "bench", fn, *fn_args)
        finally:
            rnd.seconds += time.perf_counter() - t0

    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(wl.run_round(first + len(rounds), timed))
    return rounds


def report(rounds) -> tuple[bool, int, int]:
    problems = [p for r in rounds for p in r.problems]
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    return (not problems, sum(r.attempted for r in rounds), sum(r.failed for r in rounds))


def end_to_end(args, wl, setups):
    stolen = steal_s()
    rounds = run_rounds(wl, args.seconds, 0)
    stolen = steal_s() - stolen
    run_s = statistics.median(r.seconds for r in rounds)
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "run_s": (run_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    extra = {f"{wl.work_unit}_per_s": (wl.work_per_round() / run_s,
                                       "lane-steps/s" if wl.work_unit == "lane_steps" else "lags/s")}
    times = " ".join(f"{r.seconds:.3f}" for r in rounds)
    print(f"# {args.workload}: {len(rounds)} rounds of {wl.work_per_round()} {wl.work_unit}: "
          f"{times} s; CPU time stolen by the host meanwhile: {stolen:.2f} s")
    return rounds, metrics, extra


def traced(args, wl, setups):
    import layers
    import probes
    from spans import Tracer

    plain = run_rounds(wl, args.seconds * TRACE_SPLIT[0], 0)
    tracer = Tracer()
    tracer.install(layers.targets(), layers.POOLS)
    try:
        traced_rounds = run_rounds(wl, args.seconds * TRACE_SPLIT[1], len(plain), tracer)
    finally:
        tracer.uninstall()
    metrics = layers.derive(tracer.spans, len(traced_rounds))
    untraced_s = statistics.fmean(r.seconds for r in plain)
    metrics["trace.overhead_s"] = (metrics["trace.run_s"][0] - untraced_s, "s")
    metrics["cli.import_s"] = (statistics.median(s["import_s"] for s in setups), "s")
    metrics.update(probes.run(wl, args.seed))

    rounds = plain + traced_rounds
    if args.workload == "doubling-thm2":
        rounds.append(determinism_round(wl))
    WORK_ROOT.mkdir(exist_ok=True)
    tracer.write(WORK_ROOT / f"trace-{args.workload}-{args.seed}.csv.gz")
    layer_sum = sum(metrics[name][0] for name in layers.SELF_METRICS)
    print(f"# {args.workload}: {len(plain)} untraced and {len(traced_rounds)} traced rounds, "
          f"{len(tracer.spans)} spans; layer self times sum to {layer_sum:.6f} s "
          f"of traced run_s {metrics['trace.run_s'][0]:.6f} s")
    return rounds, metrics, {}


def determinism_round(wl):
    """doubling-thm2's report must be byte-identical at --threads 1 and 2."""
    from workloads import Round, run_cli

    rnd = Round()
    reports = []
    for threads in (1, 2):
        run_cli(wl.verify_args(0, threads))
        reports.append(wl.report.read_bytes())
    rnd.check(reports[0] == reports[1], "report differs between --threads 1 and --threads 2")
    return rnd


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "weakdev" / "__init__.py").is_file():
        print(f"perfbench: no weakdev sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    workdir = WORK_ROOT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make(args.workload, workdir, args.seed)
        wl.prepare()
        setups = fresh_setups(args, workdir)
        wl.build()
        rounds, metrics, extra = (traced if args.trace else end_to_end)(args, wl, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct, attempted, failed = report(rounds)
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"attempted {attempted} failed {failed} correct {correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
