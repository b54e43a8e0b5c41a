"""Which weakdev names the tracer wraps, and the per-layer metrics from spans.

Each target is rebound in the module that calls it, so a span opens exactly
where one layer hands work to the next.  Layers are weakdev's modules; the
benchmark's own glue between calls is the "bench" layer.
"""

from __future__ import annotations

from collections import defaultdict

import weakdev.cli as cli
import weakdev.estimation as estimation
import weakdev.harness as harness
import weakdev.processes as processes
from weakdev.coefficients import WeightSequence
from weakdev.processes import ObservableF
from weakdev.rng import VectorXoshiro

import workloads
from spans import covered, self_times

LAYERS = ("cli", "harness", "estimation", "processes", "rng", "coefficients", "bounds", "bench")
# One self-time metric per layer; together they add up to trace.run_s.
SELF_METRICS = tuple("cli.command_self_s" if l == "cli" else f"{l}.self_s" for l in LAYERS)

PROFILE_SPANS = {
    "coefficients.doubling_map_profile": "doubling-map",
    "coefficients.markov_contraction_profile": "kernel-chain",
    "coefficients.bernoulli_shift_linf_profile": "bernoulli-shift",
    "coefficients.infinite_memory_profile.geometric": "infinite-memory-geometric",
    "coefficients.infinite_memory_profile.polynomial": "infinite-memory-polynomial",
}
SELECT_SPANS = ("bounds.select_k_star", "bounds.select_k_star_prime")
THRESHOLD_SPANS = (
    "bounds.thm1_threshold",
    "bounds.thm2_threshold",
    "bounds.iid_bernstein_threshold",
    "bounds.hoeffding_threshold",
)


def targets():
    """(owner, attribute, span name, layer[, label]) for Tracer.install."""
    t = [
        (workloads, "cli_main", "cli.main", "cli"),
        (cli, "load_config", "harness.load_config", "harness"),
        (cli, "build_model", "harness.build_model", "harness"),
        (cli, "run_verification", "harness.run_verification", "harness"),
        (cli, "emit_report", "harness.emit_report", "harness"),
        (cli, "dependence_profile_for", "harness.dependence_profile_for", "harness"),
        (harness, "dependence_profile_for", "harness.dependence_profile_for", "harness"),
        (harness, "mc_variance_profile", "harness.mc_variance_profile", "harness"),
        (harness, "hoeffding_phi", "harness.hoeffding_phi", "harness"),
        (workloads, "hoeffding_phi", "harness.hoeffding_phi", "harness"),
        (harness, "per_rep_sums", "estimation.per_rep_sums", "estimation"),
        (harness, "estimate_sigma_profile", "estimation.estimate_sigma_profile", "estimation"),
        (harness, "tail_from_sums", "estimation.tail_from_sums", "estimation"),
        (estimation, "clopper_pearson", "estimation.clopper_pearson", "estimation"),
        (cli, "estimate_coupling_delta", "estimation.estimate_coupling_delta", "estimation"),
        (cli, "write_estimates_csv", "estimation.write_estimates_csv", "estimation"),
        (estimation, "observable_sums", "processes.observable_sums", "processes"),
        (estimation, "coupled_distance_sums", "processes.coupled_distance_sums", "processes"),
        (estimation, "stationary_init_batch", "processes.stationary_init_batch", "processes"),
        (harness, "observable_for", "processes.observable_for", "processes"),
        (harness, "analytic_sigma_profile", "processes.analytic_sigma_profile", "processes"),
        (ObservableF, "values", "processes.ObservableF.values", "processes"),
        (VectorXoshiro, "next_u64", "rng.next_u64", "rng"),
        (VectorXoshiro, "next_uniform", "rng.next_uniform", "rng"),
        (processes, "VectorXoshiro", "rng.VectorXoshiro", "rng"),
        (estimation, "replication_seeds", "rng.replication_seeds", "rng"),
        (harness, "doubling_map_profile", "coefficients.doubling_map_profile", "coefficients"),
        (harness, "markov_contraction_profile", "coefficients.markov_contraction_profile",
         "coefficients"),
        (harness, "bernoulli_shift_linf_profile", "coefficients.bernoulli_shift_linf_profile",
         "coefficients"),
        (harness, "infinite_memory_profile", "coefficients.infinite_memory_profile",
         "coefficients", lambda weights, n: weights.family),
        (cli, "write_profile_csv", "coefficients.write_profile_csv", "coefficients"),
        (WeightSequence, "tail_sum", "coefficients.tail_sum", "coefficients"),
        (harness, "variance_profile", "bounds.variance_profile", "bounds"),
        (processes, "variance_profile", "bounds.variance_profile", "bounds"),
        (harness, "select_k_star", "bounds.select_k_star", "bounds"),
        (harness, "select_k_star_prime", "bounds.select_k_star_prime", "bounds"),
        (workloads, "select_k_star_prime", "bounds.select_k_star_prime", "bounds"),
    ]
    for name in ("thm1_threshold", "thm2_threshold", "iid_bernstein_threshold",
                 "hoeffding_threshold"):
        t.append((harness, name, f"bounds.{name}", "bounds"))
    t.append((workloads, "thm2_threshold", "bounds.thm2_threshold", "bounds"))
    t.append((workloads, "hoeffding_threshold", "bounds.hoeffding_threshold", "bounds"))
    return t


POOLS = (estimation,)


def derive(spans, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-round layer metrics from the spans of `rounds` traced rounds."""
    spans = [s for s in spans if s[4] > s[3]]
    own = self_times(spans)
    by_id = {s[0]: s for s in spans}
    layer_self = defaultdict(float)
    name_self = defaultdict(float)
    inclusive = defaultdict(float)
    calls = defaultdict(int)
    children = defaultdict(list)
    for sid, name, layer, t0, t1, parent, _tid in spans:
        layer_self[layer] += own.get(sid, 0.0)
        name_self[name] += own.get(sid, 0.0)
        inclusive[name] += t1 - t0
        calls[name] += 1
        if parent in by_id:
            children[parent].append(sid)
    # per_rep_sums minus the wall time its observable_sums children cover
    prs_self = 0.0
    for sid, name, _layer, t0, t1, _parent, _tid in spans:
        if name == "estimation.per_rep_sums":
            kids = [by_id[c] for c in children[sid] if by_id[c][1] == "processes.observable_sums"]
            prs_self += (t1 - t0) - covered([(k[3], k[4]) for k in kids])
    run_s = sum(t1 - t0 for _sid, name, _l, t0, t1, _p, _t in spans if name == "bench.round")

    m: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        m[name] = (value / rounds, unit)

    put("trace.run_s", run_s, "s")
    for layer, name in zip(LAYERS, SELF_METRICS):
        put(name, layer_self[layer], "s")
    put("rng.next_u64_calls", calls["rng.next_u64"], "count")
    for what in ("observable_sums", "coupled_distance_sums"):
        put(f"processes.{what}_s", inclusive[f"processes.{what}"], "s")
        put(f"processes.{what}_calls", calls[f"processes.{what}"], "count")
    put("estimation.per_rep_sums_self_s", prs_self, "s")
    put("estimation.estimate_coupling_delta_self_s",
        name_self["estimation.estimate_coupling_delta"], "s")
    put("estimation.clopper_pearson_s", inclusive["estimation.clopper_pearson"], "s")
    put("estimation.clopper_pearson_calls", calls["estimation.clopper_pearson"], "count")
    for span, model in PROFILE_SPANS.items():
        put(f"coefficients.profile_s.{model}", inclusive[span], "s")
    put("coefficients.tail_sum_calls", calls["coefficients.tail_sum"], "count")
    put("bounds.select_s", sum(inclusive[s] for s in SELECT_SPANS), "s")
    put("bounds.select_calls", sum(calls[s] for s in SELECT_SPANS), "count")
    put("bounds.threshold_s", sum(inclusive[s] for s in THRESHOLD_SPANS), "s")
    put("bounds.threshold_calls", sum(calls[s] for s in THRESHOLD_SPANS), "count")
    put("harness.run_verification_self_s", name_self["harness.run_verification"], "s")
    put("harness.hoeffding_phi_s", inclusive["harness.hoeffding_phi"], "s")
    put("harness.emit_report_s", inclusive["harness.emit_report"], "s")
    return m
