"""End-to-end acceptance checks, one test per shipped claim.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion. Monte Carlo checks use fixed seeds everywhere, so reruns are
bit-identical. Criterion 4 states a variance-domination property that the
exact doubling-map variance violates for block lengths 27..64; the test
prints the analysis and is expected to fail until the claim itself changes.
"""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from weakdev.bounds import (
    bennett_h,
    bernstein_h1,
    h1_inverse,
    select_k_star,
    select_k_star_prime,
    thm2_bennett_tail,
    varest_bound,
    variance_profile,
)
from weakdev.bounds import DependenceProfile
from weakdev.cli import main
from weakdev.coefficients import doubling_map_profile
from weakdev.estimation import estimate_coupling_delta, estimate_sigma_profile
from weakdev.harness import parse_config, run_verification
from weakdev.processes import DoublingMap, IidUniform, analytic_sigma_profile, observable_for

from test_processes import doubling_sigma_sq

_SEED = 20260815


def test_criterion_01_rate_functions():
    # closed forms at x = 1, and the inverse identity across [0, 100]
    assert abs(bennett_h(1.0) - 0.3862943611198906) < 1e-10
    assert abs(bernstein_h1(1.0) - 0.2679491924311227) < 1e-10
    grid = np.concatenate(
        [np.linspace(0.0, 100.0, 4001), np.logspace(-12, 2, 300), [0.0]]
    )
    for x in grid:
        x = float(x)
        hx, h1x = bennett_h(x), bernstein_h1(x)
        assert 0.0 <= h1x <= hx
        assert abs(h1_inverse(h1x) - x) <= 1e-12 * max(1.0, x)


def test_criterion_02_block_size_selectors():
    rng = np.random.default_rng(_SEED)
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        delta = np.sort(rng.uniform(0.0, 1.0, size=n))[::-1].copy()
        sig = rng.uniform(0.0, 0.25, size=n)
        x = float(rng.uniform(1e-3, 10.0))
        prof = DependenceProfile(delta=delta, kind="linf")
        var = variance_profile(sig)
        scan = next(
            (k for k in range(1, n + 1) if k * delta[k - 1] <= var.envelope[k - 1]), None
        )
        assert select_k_star(prof, var).k == scan
        scan_p = next((k for k in range(1, n + 1) if n * delta[k - 1] <= k * x), None)
        assert select_k_star_prime(prof, n, x).k == scan_p

    # the doubling map at n = 1000, x = 1
    prof = doubling_map_profile(1000)
    f = observable_for(DoublingMap(), "centered-identity")
    analytic = analytic_sigma_profile(DoublingMap(), f, 1000)
    assert select_k_star(prof, analytic).k == 1
    assert select_k_star(prof, variance_profile(np.full(1000, 0.25))).k == 1
    assert select_k_star_prime(prof, 1000, 1.0).k == 5


def test_criterion_03_block_variance_oracle():
    assert abs(doubling_sigma_sq(5) - 0.18541666666666667) < 1e-12
    assert 0.2499 < doubling_sigma_sq(10**6) < 0.25

    f = observable_for(DoublingMap(), "centered-identity")
    ests = estimate_sigma_profile(
        DoublingMap(), f, [1, 2, 5, 16, 64], reps=100_000, seed=_SEED
    )
    for est in ests:
        truth = doubling_sigma_sq(est.k)
        gap = abs(est.sigma_sq_hat - truth)
        print(
            f"k={est.k}: sigma_sq_hat={est.sigma_sq_hat:.6f} truth={truth:.6f} "
            f"gap={gap:.2e} (4 SE = {4 * est.std_error:.2e})"
        )
        assert gap < 4.0 * est.std_error


def test_criterion_04_variance_bound_dominates():
    # sigma_1^2 + 2 E|f| sum_{r<k} delta_r against the exact sigma_k^2
    prof = doubling_map_profile(64)
    ks = np.arange(1, 65)
    bound = np.array([varest_bound(1.0 / 12.0, 0.25, prof, int(k)) for k in ks])
    exact = doubling_sigma_sq(ks.astype(np.float64))

    assert bound[4] == pytest.approx(0.23495370370370366, abs=1e-12)
    assert bound[4] >= exact[4]  # 0.23495 >= 0.18542 at k = 5

    bad = ks[bound < exact]
    if bad.size:
        plateau = 1.0 / 12.0 + (2.0 / 9.0) * math.log(2.0)
        print(
            "variance bound saturates at sigma_1^2 + 2 E|f| sum_r delta_r "
            f"= 1/12 + (2/9) ln 2 = {plateau:.17g}, while the exact block "
            "variance keeps rising toward 1/4 - 1/(3k) + o(1/k);"
        )
        print(
            f"the comparison fails for k = {bad.min()}..{bad.max()} "
            f"({bad.size} of 64 block lengths); at k = {bad.min()}: "
            f"bound {bound[bad.min() - 1]:.17g} < exact {exact[bad.min() - 1]:.17g}"
        )
    assert np.all(bound >= exact), f"violated at k in {bad.tolist()}"


def test_criterion_05_envelope_block_bound_holds():
    cfg = parse_config(
        {
            "model": "doubling-map",
            "n": 1000,
            "x_grid": [0.5, 1.0, 2.0],
            "theorem": "thm1",
            "reps": 100_000,
            "base_seed": _SEED,
        }
    )
    rows = [r for r in run_verification(cfg) if r.theorem == "thm1"]
    assert len(rows) == 3
    for r in rows:
        print(
            f"x={r.x}: k*={r.k_selected} threshold={r.threshold:.6f} "
            f"ci_high={r.ci_high:.6g} target={r.bound_value:.6g}"
        )
        assert r.ci_high <= math.exp(-r.x)
        assert r.verdict == "pass"


def test_criterion_06_bernstein_block_bound_holds():
    cfg = parse_config(
        {
            "model": "doubling-map",
            "n": 1000,
            "x_grid": [0.5, 1.0, 2.0],
            "theorem": "thm2",
            "reps": 100_000,
            "base_seed": _SEED + 1,
        }
    )
    rows = [r for r in run_verification(cfg) if r.theorem == "thm2"]
    assert [r.k_selected for r in rows] == [6, 5, 4]
    for r in rows:
        print(f"x={r.x}: k*'={r.k_selected} ci_high={r.ci_high:.6g} target={r.bound_value:.6g}")
        assert r.ci_high <= math.exp(-r.x)

    base = parse_config(
        {
            "model": "iid-uniform",
            "n": 1000,
            "x_grid": [0.5, 1.0, 2.0],
            "theorem": "iid_eq1",
            "reps": 100_000,
            "base_seed": _SEED + 2,
        }
    )
    for r in run_verification(base):
        assert r.variance_used == pytest.approx(1.0 / 12.0, abs=1e-15)
        print(f"iid baseline x={r.x}: ci_high={r.ci_high:.6g} target={r.bound_value:.6g}")
        assert r.ci_high <= math.exp(-r.x)


def test_criterion_07_coupling_certificates():
    ests = estimate_coupling_delta(
        DoublingMap(), list(range(1, 21)), [1, 100, 500], reps=10_000, seed=_SEED
    )
    by_r: dict[int, float] = {}
    for est in ests:
        # hard certificate: the block distance sum never exceeds 2^(1-r)
        assert est.max_sum <= 2.0 ** (1 - est.r), (est.r, est.j, est.max_sum)
        by_r[est.r] = max(by_r.get(est.r, 0.0), est.witness)
    for r in sorted(by_r):
        profile_value = (4.0 / 9.0) * 2.0**-r / r
        note = "pass" if by_r[r] <= profile_value else "fail"
        print(
            f"r={r:2d}: observed delta' witness {by_r[r]:.3e} "
            f"vs profile {profile_value:.3e} (informational {note})"
        )


def test_criterion_08_independent_case_reduction():
    # delta' = 0, k = 1 must reproduce the classical Bennett tail; the
    # reference below is coded directly from the one-block formula
    for n in (10, 100, 1000, 5000):
        for sig in (0.01, 1.0 / 12.0, 0.25):
            for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
                v = 2.0 * n * sig
                u = x / v
                classical = math.exp(-v * ((1.0 + u) * math.log1p(u) - u))
                got = thm2_bennett_tail(n, 1, sig, 0.0, x)
                assert abs(got - classical) <= 1e-12


def test_criterion_09_block_size_growth_reported(tmp_path):
    out = tmp_path / "asym.csv"
    runner = CliRunner()
    res = runner.invoke(
        main,
        [
            "asymptotics",
            "--family",
            "geometric",
            "--decay",
            "0.5",
            "--c",
            str(4.0 / 9.0),
            "--targets",
            "1e-2,1e-3,1e-4,1e-5,1e-6,1e-7,1e-8",
            "--out",
            str(out),
        ],
    )
    assert res.exit_code == 0, res.output
    assert "ratio spread" in res.output
    import csv as _csv

    with open(out, newline="") as fh:
        rows = list(_csv.reader(fh))
    assert rows[0] == ["target", "k_star", "ratio"]
    ratios = [float(r[2]) for r in rows[1:]]
    assert len(ratios) == 7
    spread = max(ratios) / min(ratios)
    print(f"k*/ln(1/v) across v = 1e-2..1e-8: spread = {spread:.4f}")
    assert spread <= 1.2


def test_criterion_10_worker_count_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "model": "doubling-map",
                "n": 1000,
                "x_grid": [0.5, 1.0, 2.0],
                "theorem": "thm2",
                "reps": 20_000,
                "base_seed": _SEED,
            }
        )
    )
    runner = CliRunner()
    reports = []
    for threads, name in ((1, "one.csv"), (8, "eight.csv")):
        out = tmp_path / name
        res = runner.invoke(
            main,
            ["verify", "--config", str(cfg_path), "--out", str(out), "--threads", str(threads)],
        )
        assert res.exit_code == 0, res.output
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
