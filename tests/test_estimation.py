import ast
import csv
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st
from scipy import stats

from weakdev.bounds import iid_bernstein_threshold, varest_bound
from weakdev.cli import main
from weakdev.coefficients import doubling_map_profile
from weakdev.errors import ValidationError
import weakdev.estimation as estimation
from weakdev.estimation import (
    DEFAULT_ALPHA,
    CouplingEstimate,
    clopper_pearson,
    estimate_coupling_delta,
    estimate_sigma_profile,
    per_rep_sums,
    tail_from_sums,
)
from weakdev.processes import (
    BernoulliShiftGeometric,
    DoublingMap,
    IidUniform,
    LipschitzKernelChain,
    ObservableF,
    coupled_distance_sums,
    observable_for,
    observable_sums,
)
from weakdev.rng import derive_seed, replication_seeds

from test_processes import doubling_sigma_sq

_IID = IidUniform()
_DBL = DoublingMap()

SRC = Path(__file__).resolve().parents[1] / "src" / "weakdev"


def _identity(model) -> ObservableF:
    return observable_for(model, "centered-identity")


# ---------------------------------------------------------------------------
# Clopper-Pearson


@pytest.mark.parametrize("hits,reps", [(0, 50), (1, 50), (7, 50), (25, 50), (49, 50), (50, 50)])
def test_clopper_pearson_matches_scipy(hits, reps):
    lo, hi = clopper_pearson(hits, reps, alpha=0.01)
    ref = stats.binomtest(hits, reps).proportion_ci(confidence_level=0.99, method="exact")
    assert lo == pytest.approx(ref.low, abs=1e-10)
    assert hi == pytest.approx(ref.high, abs=1e-10)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 2_000_000),
    st.floats(0.0, 1.0),
    st.one_of(st.sampled_from([0.01, 0.05]), st.floats(1e-6, 0.999)),
)
def test_clopper_pearson_equals_scipy_stats_beta(reps, where, alpha):
    # the interval must be the beta.ppf quantiles exactly, edges included
    for hits in {0, 1, int(where * reps), reps - 1, reps}:
        lo = 0.0 if hits == 0 else float(stats.beta.ppf(alpha / 2.0, hits, reps - hits + 1))
        hi = (
            1.0
            if hits == reps
            else float(stats.beta.ppf(1.0 - alpha / 2.0, hits + 1, reps - hits))
        )
        assert clopper_pearson(hits, reps, alpha) == (lo, hi)


def test_clopper_pearson_edges():
    lo, hi = clopper_pearson(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.1
    lo, hi = clopper_pearson(100, 100)
    assert hi == 1.0 and 0.9 < lo < 1.0
    with pytest.raises(ValidationError):
        clopper_pearson(-1, 10)
    with pytest.raises(ValidationError):
        clopper_pearson(11, 10)
    with pytest.raises(ValidationError):
        clopper_pearson(5, 10, alpha=0.0)
    with pytest.raises(ValidationError):
        clopper_pearson(5, 10, alpha=1.0)


@pytest.mark.parametrize("hits, reps, field", [(2.5, 10, "hits"), (2, 10.0, "reps")])
def test_clopper_pearson_refuses_a_fractional_count(hits, reps, field):
    # 2.5 hits of 10 passed the range check and returned an interval
    with pytest.raises(ValidationError, match=f"need integer {field} >= 0") as ei:
        clopper_pearson(hits, reps)
    assert ei.value.field == field


@pytest.mark.parametrize("p", [0.01, 0.1, 0.5])
def test_clopper_pearson_coverage(p):
    rng = np.random.default_rng(0)
    n, trials = 200, 10_000
    ks = rng.binomial(n, p, size=trials)
    covered = 0
    for k, count in zip(*np.unique(ks, return_counts=True)):
        lo, hi = clopper_pearson(int(k), n, alpha=0.01)
        covered += count * (lo <= p <= hi)
    cover = covered / trials
    # exact intervals are conservative; allow 4 binomial SEs of slack
    assert cover >= 0.99 - 4.0 * math.sqrt(0.01 * 0.99 / trials)


# ---------------------------------------------------------------------------
# tail estimator


def test_tail_degenerate_thresholds():
    n = 6
    sums = per_rep_sums(_IID, _identity(_IID), n, 500, seed=1)
    est = tail_from_sums(sums, n)
    assert est.hits == 0 and est.p_hat == 0.0 and est.ci_low == 0.0
    est = tail_from_sums(sums, -float(n))
    assert est.hits == 500 and est.p_hat == 1.0 and est.ci_high == 1.0


def test_tail_ci_ordering_and_fields():
    est = tail_from_sums(per_rep_sums(_DBL, _identity(_DBL), 50, 2000, seed=3), 2.0, x=1.25)
    assert 0.0 <= est.ci_low <= est.p_hat <= est.ci_high <= 1.0
    assert est.x == 1.25 and est.reps == 2000 and est.alpha == DEFAULT_ALPHA
    assert est.p_hat == est.hits / est.reps


def test_tail_bernstein_holds_for_iid():
    n, x = 200, 1.0
    thr = iid_bernstein_threshold(n, 1.0 / 12.0, x)
    est = tail_from_sums(per_rep_sums(_IID, _identity(_IID), n, 3000, seed=11), thr, x=x)
    assert est.ci_high <= math.exp(-x)


def test_tail_from_sums_counts_hits():
    sums = per_rep_sums(_IID, _identity(_IID), 20, 1000, seed=5)
    est = tail_from_sums(sums, 1.0, x=0.5)
    hits = int(np.count_nonzero(sums >= 1.0))
    assert (est.hits, est.reps, est.p_hat) == (hits, 1000, hits / 1000)
    assert (est.ci_low, est.ci_high) == clopper_pearson(hits, 1000)


@pytest.mark.parametrize("sums, field", [
    (np.array([]), "sums"),
    (np.full(1000, math.nan), "sums[0]"),
    (np.array([1.0, math.inf, math.nan]), "sums[1]"),
    (np.array([0.5, 2.0, -math.inf]), "sums[2]"),
])
def test_tail_from_sums_refuses_an_empty_or_non_finite_sample(sums, field):
    # sums >= threshold is false for NaN, so an all-NaN sample read as 0 hits
    # and a certified pass; an infinite sum counted as a hit, and an empty
    # sample ended in ZeroDivisionError
    with pytest.raises(ValidationError) as ei:
        tail_from_sums(sums, 0.0)
    assert ei.value.field == field


def test_tail_from_sums_refuses_a_nan_threshold_but_not_an_infinite_one():
    # no sum is >= NaN, so a NaN threshold read as 0 hits and a certified pass
    with pytest.raises(ValidationError, match="NaN") as ei:
        tail_from_sums(np.zeros(1000), math.nan)
    assert ei.value.field == "threshold"
    assert tail_from_sums(np.zeros(1000), math.inf).hits == 0
    assert tail_from_sums(np.zeros(1000), -math.inf).hits == 1000


def test_tail_rejects_bad_reps():
    with pytest.raises(ValidationError):
        per_rep_sums(_IID, _identity(_IID), 5, 0, seed=1)


# ---------------------------------------------------------------------------
# variance estimator


def test_sigma_estimates_match_truth():
    ests = estimate_sigma_profile(_IID, _identity(_IID), [7], reps=20_000, seed=21)
    (e7,) = ests
    assert e7.k == 7
    assert abs(e7.sigma_sq_hat - 1.0 / 12.0) < 4.0 * e7.std_error

    (d5,) = estimate_sigma_profile(_DBL, _identity(_DBL), [5], reps=20_000, seed=22)
    assert abs(d5.sigma_sq_hat - doubling_sigma_sq(5)) < 4.0 * d5.std_error


def test_sigma_std_error_scales_with_reps():
    (small,) = estimate_sigma_profile(_IID, _identity(_IID), [3], reps=4000, seed=9)
    (big,) = estimate_sigma_profile(_IID, _identity(_IID), [3], reps=16000, seed=9)
    ratio = small.std_error / big.std_error
    assert 1.6 < ratio < 2.4  # ~2 by the 1/sqrt(reps) law


def test_sigma_estimate_independent_of_other_block_lengths():
    alone = estimate_sigma_profile(_DBL, _identity(_DBL), [5], reps=3000, seed=40)[0]
    grouped = estimate_sigma_profile(_DBL, _identity(_DBL), [1, 5, 16], reps=3000, seed=40)[1]
    assert alone == grouped
    # every k reads its block sums from the one run on lane derive_seed(seed, 1)
    sums = observable_sums(_DBL, _identity(_DBL), 5, replication_seeds(derive_seed(40, 1), 0, 3000))
    assert alone.sigma_sq_hat == float(np.var(sums, ddof=1)) / 5


def test_sigma_validation():
    with pytest.raises(ValidationError):
        estimate_sigma_profile(_IID, _identity(_IID), [3], reps=1, seed=1)
    with pytest.raises(ValidationError):
        estimate_sigma_profile(_IID, _identity(_IID), [0], reps=10, seed=1)


# ---------------------------------------------------------------------------
# coupling estimator


def test_coupling_doubling_bound():
    (est,) = estimate_coupling_delta(_DBL, [3], [2], reps=2000, seed=13)
    assert est.r == 3 and est.j == 2 and est.reps == 2000
    assert est.max_sum <= 2.0**-2
    assert est.witness == est.max_sum / 3


def test_coupling_kernel_bound():
    model = LipschitzKernelChain(kappa=0.5)
    (est,) = estimate_coupling_delta(model, [2], [2], reps=1000, seed=14)
    assert est.max_sum <= (0.5**2 + 0.5**3) * (1.0 + 1e-12)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(1, 20), min_size=1, max_size=3),
    st.lists(st.integers(1, 40), min_size=1, max_size=3),
    st.integers(0, 2**63 - 1),
)
def test_iid_coupling_estimate_is_zero(r_list, j_list, seed):
    # the starred iid run equals the original after the split, so every
    # block distance, and hence every witness, is exactly zero
    for est in estimate_coupling_delta(_IID, r_list, j_list, reps=20, seed=seed):
        assert est.max_sum == 0.0 and est.witness == 0.0


def test_coupling_seed_keyed_by_j():
    grid = estimate_coupling_delta(_DBL, [2, 4], [1, 3], reps=500, seed=16)
    assert [(e.r, e.j) for e in grid] == [(2, 1), (2, 3), (4, 1), (4, 3)]
    (alone,) = estimate_coupling_delta(_DBL, [4], [3], reps=500, seed=16)
    assert alone == grid[3]
    # the lane is the split's alone: other r and j leave an estimate as it is
    wider = estimate_coupling_delta(_DBL, [5, 4, 1], [7, 3], reps=500, seed=16)
    assert wider[3] == alone
    with pytest.raises(ValidationError):
        estimate_coupling_delta(_DBL, [2], [1], reps=0, seed=1)


# ---------------------------------------------------------------------------
# worker-count invariance

_SPAN = 40_000  # several chunks, so the pool actually schedules


def test_tail_worker_invariance():
    one = per_rep_sums(_DBL, _identity(_DBL), 4, _SPAN, seed=50, threads=1)
    four = per_rep_sums(_DBL, _identity(_DBL), 4, _SPAN, seed=50, threads=4)
    assert np.array_equal(one, four)
    assert tail_from_sums(one, 0.3) == tail_from_sums(four, 0.3)


def test_sigma_worker_invariance():
    one = estimate_sigma_profile(_IID, _identity(_IID), [2, 5, 1], reps=_SPAN, seed=51, threads=1)
    four = estimate_sigma_profile(_IID, _identity(_IID), [2, 5, 1], reps=_SPAN, seed=51, threads=4)
    assert one == four


def test_coupling_worker_invariance():
    one = estimate_coupling_delta(_DBL, [2, 5, 1], [1, 3], reps=_SPAN, seed=52, threads=1)
    four = estimate_coupling_delta(_DBL, [2, 5, 1], [1, 3], reps=_SPAN, seed=52, threads=4)
    assert one == four


# ---------------------------------------------------------------------------
# coupling chunks: the pairs of every j laid end to end, cut every _CHUNK

_CHUNKED_MODELS = [_DBL, LipschitzKernelChain(kappa=0.7), BernoulliShiftGeometric(theta=0.5)]


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("model", _CHUNKED_MODELS, ids=lambda m: m.name)
@pytest.mark.parametrize("chunk, reps", [(7, 25), (1000, 700)])
def test_coupling_chunks_match_one_run_per_j(monkeypatch, chunk, reps, model, threads):
    # chunk 7 packs several j into one chunk; at 1000, one j spans two chunks
    monkeypatch.setattr(estimation, "_CHUNK", chunk)
    rs, js = [3, 1, 6], [3, 1, 3, 40]
    got = estimate_coupling_delta(model, rs, js, reps=reps, seed=60, threads=threads)
    oracle = {j: coupled_distance_sums(model, rs, replication_seeds(derive_seed(60, j), 0, reps))
              .max(axis=0) for j in js}
    want = [CouplingEstimate(r=r, j=j, max_sum=float(oracle[j][c]),
                             witness=float(oracle[j][c]) / r, reps=reps)
            for c, r in enumerate(rs) for j in js]
    assert got == want


@pytest.mark.parametrize("threads", [1, 2])
def test_map_chunks_walks_its_chunks_lazily(threads):
    # 2^62 replications are 2^48 chunks: a list of them could not be built
    calls = itertools.count()

    def fn(lo, hi):
        if next(calls) == 1:
            raise RuntimeError("second chunk")
        return lo

    with pytest.raises(RuntimeError, match="second chunk"):
        for _ in estimation._map_chunks(fn, 2**62, threads):
            pass
    assert next(calls) <= threads + 1  # at most threads chunks in flight


def test_map_chunks_starts_the_next_chunk_before_it_yields():
    started = [threading.Event() for _ in range(3)]

    def fn(lo, hi):
        started[lo // estimation._CHUNK].set()
        return lo

    chunks = estimation._map_chunks(fn, 3 * estimation._CHUNK, 2)
    assert next(chunks) == 0
    # chunk 2 runs while the caller still holds chunk 0's result
    assert started[2].wait(timeout=10)
    assert list(chunks) == [estimation._CHUNK, 2 * estimation._CHUNK]


def test_coupling_memory_does_not_grow_with_reps(monkeypatch):
    monkeypatch.setattr(estimation, "_CHUNK", 1024)
    model = LipschitzKernelChain(kappa=0.7)

    def peak(reps):
        tracemalloc.start()
        try:
            estimate_coupling_delta(model, range(1, 9), [1, 5], reps=reps, seed=61)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, many = peak(1024), peak(32 * 1024)
    assert many < 1.5 * one, (one, many)


def test_a_fractional_length_is_refused_not_truncated():
    # int() read 2.5 as 2 (and 3.0 as 3): per_rep_sums gave the n = 2 sums,
    # estimate_sigma_profile reported k = 2 and the coupling estimate r = 2
    f = _identity(_DBL)
    sums = r"need sum lengths 1 <= k <= 2\^32 steps, got "
    for call, msg, field in (
        (lambda: per_rep_sums(_DBL, f, 2.5, 4, 1), sums + r"\[2\.5\]", None),
        (lambda: estimate_sigma_profile(_DBL, f, [2.5], 10, 1), sums + r"\[2\.5\]", None),
        (lambda: estimate_sigma_profile(_DBL, f, [1, 3.0], 10, 1), sums + r"\[1, 3\.0\]", None),
        (lambda: estimate_coupling_delta(_DBL, [2.5], [1], 10, 1),
         r"need block lengths r >= 1, got \[2\.5\]", "r_list"),
        (lambda: estimate_coupling_delta(_DBL, [2], [1.0], 10, 1),
         r"need split j >= 1, got 1\.0", "j_list"),
    ):
        with pytest.raises(ValidationError, match=f"^{msg}$") as exc:
            call()
        assert exc.value.field == field


def test_coupling_refuses_an_empty_or_sub_1_grid_up_front():
    for rs, js, field, msg in (
        ([0], [], "j_list", "need split j >= 1, got no j"),
        ([3], [2, 0], "j_list", "need split j >= 1, got 0"),
        ([3], [1, 2**64 + 1], "j_list", rf"need split j <= 2\^64 - 1, got {2**64 + 1}"),
        ([], [1], "r_list", r"need block lengths r >= 1, got \[\]"),
        ([2, 0], [1], "r_list", r"need block lengths r >= 1, got \[2, 0\]"),
    ):
        with pytest.raises(ValidationError, match=f"^{msg}$") as exc:
            estimate_coupling_delta(_DBL, rs, js, reps=4, seed=1)
        assert exc.value.field == field


def test_oversized_reps_are_refused_before_any_seed_is_derived(monkeypatch):
    f = _identity(_DBL)

    def no_seeds(*args):
        raise AssertionError("a seed was derived")

    monkeypatch.setattr(estimation, "derive_seed", no_seeds)
    monkeypatch.setattr(estimation, "replication_seeds", no_seeds)
    for call in (
        lambda: per_rep_sums(_DBL, f, 5, 2**32 + 1, seed=1),
        lambda: estimate_sigma_profile(_DBL, f, [3], reps=2**32 + 1, seed=1),
        lambda: estimate_coupling_delta(_DBL, [1], [1], reps=10**13, seed=1),
        lambda: estimate_coupling_delta(_DBL, [1], [1, 2], reps=2**31 + 1, seed=1),
    ):
        with pytest.raises(ValidationError, match=r"2\^32") as exc:
            call()
        assert exc.value.field == "reps"


def test_reps_cap_is_inclusive_and_counts_the_pairs_of_distinct_j(monkeypatch):
    monkeypatch.setattr(estimation, "_MAX_REPS", 8)
    f = _identity(_DBL)
    assert per_rep_sums(_DBL, f, 5, 8, seed=1).size == 8
    assert len(estimate_sigma_profile(_DBL, f, [3], reps=8, seed=1)) == 1
    assert len(estimate_coupling_delta(_DBL, [1], [1, 2, 1], reps=4, seed=1)) == 3
    for call in (
        lambda: per_rep_sums(_DBL, f, 5, 9, seed=1),
        lambda: estimate_sigma_profile(_DBL, f, [3], reps=9, seed=1),
        lambda: estimate_coupling_delta(_DBL, [1], [1, 2, 3], reps=3, seed=1),
    ):
        with pytest.raises(ValidationError) as exc:
            call()
        assert exc.value.field == "reps"


def test_oversized_reps_are_a_one_line_cli_error(tmp_path):
    # in its own interpreter with a timeout: the unbounded coupling walk of
    # 10^13 pairs would otherwise hang the suite, not fail it
    config = tmp_path / "big.json"
    config.write_text(json.dumps({"theorem": "thm2", "n": 64, "x_grid": [1.0], "reps": 10**11,
                                  "base_seed": 1, "model": {"variant": "doubling-map"},
                                  "out": str(tmp_path / "report.csv")}))
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    common = ["--model", "doubling-map"]
    for args in (["estimate-coupling", *common, "--r-grid", "1", "--j-grid", "1",
                  "--reps", "10000000000000"],
                 ["estimate-variance", *common, "--k-grid", "1", "--reps", "100000000000"],
                 ["verify", "--config", str(config)]):
        res = subprocess.run([sys.executable, "-c", "from weakdev.cli import main; main()", *args],
                             capture_output=True, text=True, env=env, timeout=60)
        assert res.returncode == 1, res.stderr
        (line,) = res.stderr.splitlines()
        assert line.startswith("Error: need ") and "reps" in line and "2^32" in line


def _pool_calls(tree: ast.AST) -> list[str]:
    """The innermost enclosing function of each ThreadPoolExecutor(...) call."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = getattr(child, "name", "<lambda>")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, inner)
                continue
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", None) or getattr(child.func, "attr", None)
                if name == "ThreadPoolExecutor":
                    found.append(where)
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_pool_calls_finds_each_way_of_making_a_pool():
    code = """
ThreadPoolExecutor(2)
def f():
    with futures.ThreadPoolExecutor(max_workers=2) as pool:
        pass
    def g():
        return lambda: ThreadPoolExecutor()
ThreadPoolExecutorish(1)
"""
    assert _pool_calls(ast.parse(code)) == ["<module>", "f", "<lambda>"]


def test_one_function_makes_every_thread_pool():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    pools = [(p.name, where) for p in modules for where in _pool_calls(ast.parse(p.read_text()))]
    assert pools == [("estimation.py", "_map_chunks")]


# ---------------------------------------------------------------------------
# variance upper bound vs the exact doubling profile


@pytest.mark.xfail(
    strict=True,
    reason="the envelope bound plateaus at 1/12 + (2/9)ln 2 ~ 0.23737 while "
    "sigma_k^2 rises toward 0.25; k = 27..64 violate the comparison",
)
def test_varest_dominates_analytic_doubling_variance():
    prof = doubling_map_profile(64)
    for k in range(1, 65):
        assert varest_bound(1.0 / 12.0, 0.25, prof, k) >= doubling_sigma_sq(k)


def test_varest_dominates_analytic_doubling_variance_small_k():
    # the domination does hold on the early block lengths
    prof = doubling_map_profile(64)
    for k in range(1, 27):
        assert varest_bound(1.0 / 12.0, 0.25, prof, k) >= doubling_sigma_sq(k)


# ---------------------------------------------------------------------------
# estimate CSVs, through the commands that write them

_ESTIMATE_HEADER = ["model", "f", "k_or_n", "statistic", "estimate", "se_or_ci_low", "ci_high",
                    "reps", "seed"]


def test_estimates_csv_roundtrip(tmp_path):
    var_out, coup_out = tmp_path / "var.csv", tmp_path / "coup.csv"
    common = ["--model", "doubling-map", "--reps", "100", "--seed", "7"]
    for args in (["estimate-variance", *common, "--k-grid", "5", "--out", str(var_out)],
                 ["estimate-coupling", *common, "--r-grid", "3", "--j-grid", "1",
                  "--out", str(coup_out)]):
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 0, res.output
    (sig,) = estimate_sigma_profile(_DBL, _identity(_DBL), [5], reps=100, seed=7)
    (coup,) = estimate_coupling_delta(_DBL, [3], [1], reps=100, seed=7)
    # a cell holding the delimiter is quoted, and the row still reads back
    assert ',"r=3,j=1",' in coup_out.read_text()
    got = []
    for path in (var_out, coup_out):
        with open(path, newline="") as fh:
            got.append(list(csv.reader(fh)))
    assert got[0][0] == got[1][0] == _ESTIMATE_HEADER
    assert got[0][1:] == [["doubling-map", "centered-identity", "5", "sigma_sq",
                           repr(sig.sigma_sq_hat), repr(sig.std_error), "", "100", "7"]]
    assert got[1][1:] == [["doubling-map", "", "r=3,j=1", "coupling_max_sum",
                           repr(coup.max_sum), repr(coup.witness), "", "100", "7"]]
    # floats are written by their round-trip repr, so they read back exactly
    assert float(got[0][1][4]) == sig.sigma_sq_hat and float(got[1][1][5]) == coup.witness
