"""Smoke runs of the example scripts and of the benchmark's trace targets,
each in its own interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("coupling_check.py", ["--r-max", "3", "--reps", "50"]),
        ("verify_doubling.py", ["--n", "50", "--reps", "200", "--outdir", "{tmp}"]),
        ("blocksize_asymptotics.py", []),
    ],
)
def test_script_runs_clean(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *(a.format(tmp=tmp_path) for a in args)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout and "VIOLATED" not in res.stdout


_RESOLVE_TRACE_TARGETS = """
import layers
missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
           for owner, attr, *_ in layers.targets() if not hasattr(owner, attr)]
missing += [f"{pool.__name__}.ThreadPoolExecutor"
            for pool in layers.POOLS if not hasattr(pool, "ThreadPoolExecutor")]
assert not missing, f"trace targets that no longer exist: {missing}"
"""


def test_benchmark_trace_targets_resolve():
    # the traced benchmark (perfbench/run.py --trace 1) rebinds each of these
    # names; one that a refactor of src/ removed would fail only there
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    res = subprocess.run(
        [sys.executable, "-c", _RESOLVE_TRACE_TARGETS],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert res.returncode == 0, res.stderr
