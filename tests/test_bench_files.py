"""Committed benchmark records are whole: every BENCH_*.json at the
repository root parses, and each workload it names carries the parent and
the change summary of perfbench/run.py, both correct with no failed job."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_files_carry_both_sides_of_every_workload():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        record = json.loads(path.read_text())
        assert record["workloads"], path.name
        for workload, sides in record["workloads"].items():
            for side in ("parent", "change"):
                summary = sides[side]
                where = (path.name, workload, side)
                assert summary["correct"] is True, where
                assert summary["failed"] == 0, where
                assert summary["attempted"] > 0, where
                assert "jobs_per_s" in summary["metrics"], where
