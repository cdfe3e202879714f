"""bench.py contract smoke: one JSON line on stdout with the required keys.
Runs headline-only on a tiny corpus in a fresh subprocess (bench owns its own
Ray session, like the driver's invocation)."""

from __future__ import annotations

import json
import os
import subprocess
import sys


def test_bench_headline_only_contract():
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "bench.py"), "--headline-only",
         "--docs", "40", "--cpus", "4"],
        env={**os.environ, "GRAFT_SF_DIR": "/root/testdata/sf0.001",
             "RAY_GRAFT_CPUS": "4"},
        capture_output=True, text=True, timeout=420,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = [l for l in proc.stdout.strip().splitlines() if l.startswith("{")]
    assert len(lines) == 1, proc.stdout
    out = json.loads(lines[0])
    for key in ["metric", "value", "unit", "queries", "sf", "num_cpus",
                "docs_per_sec"]:
        assert key in out
    assert out["unit"] == "sec"
    assert out["num_cpus"] == 4
    assert out["sf"] == 0.001
    assert out["queries"]["extract_receipts"] > 0
    assert out["headline_rows"] == 40


def test_bench_skip_names_are_registered(monkeypatch):
    """bench.py times every registered query not in BENCH_SKIP, so a skip
    entry that names no query is stale."""
    # importing bench sets this variable; monkeypatch undoes it afterwards
    monkeypatch.setenv("DPRAY_SKIP_ORACLE_DUMP", "1")
    import bench

    import __ray_entry__ as E

    assert set(bench.BENCH_SKIP) <= set(E.queries())
