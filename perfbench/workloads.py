"""The four benchmark workloads, each run as rounds of identical operations.

A round makes its inputs from (workload seed, round index), runs the timed
part through weakdev's public entry points, then checks every output
against the reference computations in checks.py.  A round returns its timed
wall time, the operations it attempted and failed, and any check that did
not hold; any such problem makes the run incorrect.

Work per round (lane-steps or profile lags) is counted from the inputs and
the models' public burn_in / window, never from the program's own counters.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import weakdev.cli
from weakdev.bounds import (
    DependenceProfile,
    hoeffding_threshold,
    select_k_star_prime,
    thm2_threshold,
)
from weakdev.harness import build_model, hoeffding_phi, load_config
from weakdev.processes import (
    BernoulliShiftGeometric,
    InfiniteMemoryChain,
    LipschitzKernelChain,
)

# Rebound by the tracer, like the names inside weakdev.
cli_main = weakdev.cli.main

ALPHA = 0.01
# Per-check false-alarm probability of the doubling-map coupling maximum.
FALSE_ALARM = 1e-12


def threads_at_most(wanted: int) -> int:
    return max(1, min(wanted, os.cpu_count() or 1))


def round_seed(seed: int, index: int) -> int:
    return random.Random(f"perfbench:{seed}:{index}").getrandbits(62)


def run_cli(args: list[str]) -> tuple[int, str]:
    """weakdev's click command in this process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(args, prog_name="weakdev", standalone_mode=False)
    return (code or 0), buf.getvalue()


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@dataclass
class Round:
    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


# Model flags and configs shared by the workloads and the probes.
MODELS = {
    "iid-uniform": {"variant": "iid-uniform"},
    "doubling-map": {"variant": "doubling-map"},
    "kernel-chain": {"variant": "kernel-chain", "kappa": 0.7},
    "bernoulli-shift": {"variant": "bernoulli-shift", "theta": 0.5},
    "infinite-memory-geometric": {
        "variant": "infinite-memory",
        "weights": {"family": "geometric", "c": 0.5, "ratio": 0.5},
    },
    "infinite-memory-polynomial": {
        "variant": "infinite-memory",
        "weights": {"family": "polynomial", "c": 0.25, "power": 3.0},
    },
}


def model_flags(label: str) -> list[str]:
    doc = MODELS[label]
    flags = ["--model", doc["variant"]]
    for key in ("kappa", "theta"):
        if key in doc:
            flags += [f"--{key}", repr(doc[key])]
    w = doc.get("weights")
    if w:
        flags += ["--weight-family", w["family"], "--weight-c", repr(w["c"])]
        flags += ["--weight-ratio", repr(w["ratio"])] if "ratio" in w else []
        flags += ["--weight-power", repr(w["power"])] if "power" in w else []
    return flags


def init_steps(model) -> int:
    """Lane-steps a session spends before time 1: burn-in or initial window."""
    if isinstance(model, (LipschitzKernelChain, InfiniteMemoryChain)):
        return model.burn_in
    if isinstance(model, BernoulliShiftGeometric):
        return model.window
    return 0


class Workload:
    name: str
    work_unit: str  # "lane_steps" or "profile_lags"
    chunk: int  # replications per simulation call, for the layer probes
    sim_labels: tuple[str, ...]  # models the workload simulates

    def __init__(self, workdir: Path, seed: int):
        self.workdir = Path(workdir)
        self.seed = seed

    def prepare(self) -> None:
        """Write the inputs a fresh set-up process reads."""

    def build(self) -> None:
        """Parse the config or build the models: the tail of set-up."""

    def run_round(self, index: int, timed) -> Round:
        raise NotImplementedError

    def work_per_round(self) -> int:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# weakdev verify


class Verify(Workload):
    work_unit = "lane_steps"
    n = 1000
    x_grid = (0.5, 1.0, 2.0)

    def __init__(self, workdir, seed, name, label, theorem, reps, threads):
        super().__init__(workdir, seed)
        self.name, self.label, self.theorem = name, label, theorem
        self.reps, self.threads = reps, threads_at_most(threads)
        self.chunk = min(reps, 16384)
        self.sim_labels = (label,)
        self.report = self.workdir / "report.csv"
        if label == "doubling-map":
            self.rdelta = checks.doubling_rdelta
        else:
            w = MODELS[label]["weights"]
            ref = checks.InfiniteMemoryReference("geometric", w["c"], w["ratio"], self.n)
            self.rdelta = ref.rdelta

    def config_path(self, index: int) -> Path:
        path = self.workdir / f"config-{index}.json"
        doc = {
            "model": MODELS[self.label],
            "observable": "centered-identity",
            "n": self.n,
            "x_grid": list(self.x_grid),
            "theorem": self.theorem,
            "reps": self.reps,
            "base_seed": round_seed(self.seed, index),
            "alpha": ALPHA,
            "out": str(self.report),
        }
        path.write_text(json.dumps(doc))
        return path

    def prepare(self) -> None:
        self.config_path(0)

    def build(self) -> None:
        self.model = load_config(self.workdir / "config-0.json").model

    def verify_args(self, index: int, threads: int) -> list[str]:
        return ["verify", "--config", str(self.config_path(index)), "--threads", str(threads)]

    def run_round(self, index: int, timed) -> Round:
        args = self.verify_args(index, self.threads)
        rnd = Round()
        code, _ = timed(rnd, run_cli, args)
        rows = read_csv(self.report)
        self.check_rows(rows, rnd)
        claimed_fail = any(r["verdict"] != "pass" for r in rows if r["theorem"] == self.theorem)
        rnd.check(code == (1 if claimed_fail else 0), f"verify exit code {code}")
        return rnd

    def check_rows(self, rows: list[dict], rnd: Round) -> None:
        n, reps = self.n, self.reps
        rnd.check(len(rows) == 2 * len(self.x_grid), f"{len(rows)} report rows")
        ks = set()
        for row in rows:
            x = float(row["x"])
            bound = math.exp(-x)
            where = f"{row['theorem']} x={x}"
            p_hat, ci_high = float(row["p_hat"]), float(row["ci_high"])
            hits = round(p_hat * reps)
            rnd.check(abs(hits / reps - p_hat) < 1e-12, f"{where}: p_hat not a count")
            rnd.check(
                checks.close(ci_high, checks.ci_high(hits, reps, ALPHA), checks.REL_CI),
                f"{where}: ci_high {ci_high} differs from the exact interval",
            )
            rnd.check(checks.close(float(row["bound_value"]), bound), f"{where}: bound_value")
            verdict = "pass" if ci_high <= bound else "fail"
            rnd.check(row["verdict"] == verdict, f"{where}: verdict {row['verdict']}")
            var = float(row["variance_used"])
            threshold = float(row["threshold"])
            if row["theorem"] == "iid_eq1_ref":
                rnd.check(checks.close(threshold, checks.iid_eq1(n, var, x)), f"{where}: threshold")
                continue
            rnd.check(row["theorem"] == self.theorem, f"{where}: unexpected theorem")
            rnd.attempted += 1
            rnd.failed += verdict != "pass"
            k = int(row["k_selected"])
            ks.add((k, var))
            if self.theorem == "thm2":
                want_k = checks.scan_k_star_prime(
                    [self.rdelta(r) / r for r in range(1, n + 1)], n, x
                )
                want_t = checks.thm2(n, var, k, x)
            else:
                want_k = checks.scan_k_star(self.rdelta, var, n)
                want_t = checks.thm1(n, var, k, x)
            rnd.check(k == want_k, f"{where}: k_selected {k}, scan gives {want_k}")
            rnd.check(checks.close(threshold, want_t), f"{where}: threshold {threshold}")
            if self.label == "doubling-map":
                rnd.check(
                    checks.close(var, checks.doubling_sigma_sq(k)), f"{where}: variance_used"
                )
        if self.theorem == "thm1":
            rnd.check(len(ks) == 1, "thm1 rows disagree on (k, variance)")

    def work_per_round(self) -> int:
        n, reps, burn = self.n, self.reps, init_steps(self.model)
        steps = len(self.x_grid) * (n + burn)
        if self.theorem == "thm1":
            # dyadic variance grid, plus the separate k=1 lane for sigma_1^2
            grid = sorted({min(1 << p, n) for p in range(n.bit_length() + 1)} | {1, n})
            steps += sum(k + burn for k in grid) + (1 + burn)
        return reps * steps


# ---------------------------------------------------------------------------
# weakdev estimate-coupling


class Coupling(Workload):
    name = "coupling"
    work_unit = "lane_steps"
    r_grid = tuple(range(1, 21))
    j_grid = (1, 100, 500)
    reps = 1000
    chunk = reps
    sim_labels = ("kernel-chain", "bernoulli-shift", "doubling-map")
    rho = {"kernel-chain": 0.7, "bernoulli-shift": 0.5, "doubling-map": 0.5}

    def build(self) -> None:
        self.models = {label: build_model(MODELS[label]) for label in self.sim_labels}

    def rdelta(self, label: str, r: int) -> float:
        if label == "kernel-chain":
            return checks.kernel_rdelta(MODELS[label]["kappa"], r)
        if label == "bernoulli-shift":
            return checks.bernoulli_rdelta(MODELS[label]["theta"], r)
        return checks.doubling_rdelta(r)

    def run_round(self, index: int, timed) -> Round:
        rnd = Round()
        jobs = []
        for m, label in enumerate(self.sim_labels):
            out = self.workdir / f"coupling-{label}.csv"
            args = ["estimate-coupling", *model_flags(label),
                    "--r-grid", ",".join(map(str, self.r_grid)),
                    "--j-grid", ",".join(map(str, self.j_grid)),
                    "--reps", str(self.reps), "--seed", str(round_seed(self.seed, 3 * index + m)),
                    "--threads", "1", "--out", str(out)]
            jobs.append((label, out, args))

        def run_all():
            return [run_cli(args)[0] for _, _, args in jobs]

        codes = timed(rnd, run_all)
        eps = checks.doubling_max_tolerance(self.reps, FALSE_ALARM)
        for (label, out, _), code in zip(jobs, codes):
            rnd.check(code == 0, f"{label}: estimate-coupling exit code {code}")
            rows = read_csv(out)
            seen = set()
            for row in rows:
                r, j = (int(part.split("=")[1]) for part in row["k_or_n"].split(","))
                seen.add((r, j))
                where = f"{label} r={r} j={j}"
                max_sum, witness = float(row["estimate"]), float(row["se_or_ci_low"])
                cap = checks.pathwise_cap(self.rho[label], r)
                rnd.check(max_sum <= cap * (1.0 + 1e-9) + 1e-15, f"{where}: {max_sum} > cap {cap}")
                rnd.check(checks.close(witness, max_sum / r), f"{where}: witness != max_sum/r")
                if label == "doubling-map":
                    ratio = max_sum / (2.0 ** (1 - r) * (1.0 - 2.0**-r))
                    rnd.check(1.0 - eps <= ratio <= 1.0 + 1e-9, f"{where}: max|X-X*| = {ratio}")
                rnd.attempted += 1
                rnd.failed += witness > self.rdelta(label, r) / r
            want = {(r, j) for r in self.r_grid for j in self.j_grid}
            rnd.check(seen == want and len(rows) == len(want), f"{label}: wrong (r, j) rows")
        return rnd

    def work_per_round(self) -> int:
        steps = 0
        for label in self.sim_labels:
            init = init_steps(self.models[label])
            for r in self.r_grid:
                for j in self.j_grid:
                    steps += 2 * (2 * r + j - 1) + 2 * init
        return self.reps * steps


# ---------------------------------------------------------------------------
# weakdev profile, then selection and thresholds


class ProfileSweep(Workload):
    name = "profile-sweep"
    work_unit = "profile_lags"
    n = 8000
    labels = tuple(MODELS)
    chunk = 4096
    sim_labels = ("iid-uniform", "doubling-map", "kernel-chain", "bernoulli-shift",
                  "infinite-memory-geometric")
    # per-term variance fed to thm2: the iid-uniform value 1/12
    sigma_sq = 1.0 / 12.0
    sampled_lags = 6

    def build(self) -> None:
        self.models = {label: build_model(MODELS[label]) for label in self.labels}

    def inputs(self, index: int):
        rng = random.Random(round_seed(self.seed, index))
        xs = sorted(round(rng.uniform(0.5, 3.0), 4) for _ in range(3))
        lags = sorted({1, 2, self.n} | {rng.randint(3, self.n - 1) for _ in range(self.sampled_lags)})
        js = sorted({1, self.n - 1} | {rng.randint(2, self.n - 2) for _ in range(self.sampled_lags)})
        return xs, lags, js

    def run_round(self, index: int, timed) -> Round:
        rnd = Round()
        xs, lags, js = self.inputs(index)
        n = self.n

        def sweep():
            results = []
            for label in self.labels:
                out = self.workdir / f"profile-{label}.csv"
                code, _ = run_cli(["profile", *model_flags(label), "--n", str(n), "--out", str(out)])
                rows = read_csv(out)
                profile = DependenceProfile(
                    delta=np.array([float(r["delta"]) for r in rows]), kind=rows[0]["kind"]
                )
                ks = [select_k_star_prime(profile, n, x).k for x in xs]
                phis = hoeffding_phi(profile, n)
                hoeff = [hoeffding_threshold(n, phis, x) for x in xs]
                t2 = [None if k is None else thm2_threshold(n, self.sigma_sq, k, x)
                      for k, x in zip(ks, xs)]
                results.append((label, code, rows, ks, phis, hoeff, t2))
            return results

        for label, code, rows, ks, phis, hoeff, t2 in timed(rnd, sweep):
            rnd.attempted += 1
            rnd.failed += code != 0 or None in ks
            self.check_profile(rnd, label, rows, xs, lags, js, ks, phis, hoeff, t2)
        return rnd

    def check_profile(self, rnd, label, rows, xs, lags, js, ks, phis, hoeff, t2) -> None:
        n = self.n
        delta = [float(r["delta"]) for r in rows]
        rnd.check([int(r["r"]) for r in rows] == list(range(1, n + 1)), f"{label}: lags")
        rnd.check({r["kind"] for r in rows} == {"linf"}, f"{label}: kind")
        rnd.check(checks.non_increasing_in_unit_interval(delta), f"{label}: not monotone in [0,1]")
        doc = MODELS[label]
        r = np.arange(1, n + 1, dtype=np.float64)
        closed = {
            "iid-uniform": lambda: 0.0 * r,
            "doubling-map": lambda: checks.doubling_rdelta(r),
            "kernel-chain": lambda: checks.kernel_rdelta(doc["kappa"], r),
            "bernoulli-shift": lambda: checks.bernoulli_rdelta(doc["theta"], r),
        }.get(label)
        if closed is not None:
            want = np.minimum(closed() / r, 1.0)
            ok = np.abs(np.array(delta) - want) <= 1e-12 * want
            rnd.check(bool(np.all(ok)), f"{label}: profile differs from its closed form")
        else:
            w = doc["weights"]
            ref = checks.InfiniteMemoryReference(
                w["family"], w["c"], w.get("ratio", w.get("power")), max(lags)
            )
            for lag in lags:
                rnd.check(
                    checks.delta_matches(delta[lag - 1], ref.rdelta(lag), lag, ref.slack),
                    f"{label}: delta'_{lag} = {delta[lag - 1]} differs from the double minimum",
                )
        for x, k, t_h, t_2 in zip(xs, ks, hoeff, t2):
            want = checks.scan_k_star_prime(delta, n, x)
            rnd.check(k == want, f"{label} x={x}: k*' {k}, scan gives {want}")
            rnd.check(checks.close(t_h, checks.hoeffding(n, phis, x), 1e-9), f"{label}: hoeffding")
            if k is not None:
                rnd.check(checks.close(t_2, checks.thm2(n, self.sigma_sq, k, x)), f"{label}: thm2")
        for j in js:
            rnd.check(
                checks.close(float(phis[j - 1]), checks.dyadic_phi(delta, n, j)),
                f"{label}: phi_{j}",
            )

    def work_per_round(self) -> int:
        return self.n * len(self.labels)


def make(name: str, workdir: Path, seed: int) -> Workload:
    if name == "doubling-thm2":
        return Verify(workdir, seed, name, "doubling-map", "thm2", reps=32768, threads=2)
    if name == "infmem-thm1":
        return Verify(workdir, seed, name, "infinite-memory-geometric", "thm1", reps=512, threads=1)
    if name == "coupling":
        return Coupling(workdir, seed)
    if name == "profile-sweep":
        return ProfileSweep(workdir, seed)
    raise ValueError(f"unknown workload {name!r}")
