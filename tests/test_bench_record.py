"""Schema of every committed BENCH_*.json (tools/bench_record.py): keys and types only, no timings."""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


def _assert_final_line(line, metric_names):
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(line["correct"], bool)
    assert isinstance(line["attempted"], int) and isinstance(line["failed"], int)
    assert set(line["metrics"]) == metric_names
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and isinstance(metric["unit"], str)


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_schema(path):
    record = json.loads(path.read_text())
    assert set(record) == {"commits", "machine", "perfbench", "pairs", "quartiles", "tier1"}
    assert set(record["commits"]) == set(SIDES)
    assert all(isinstance(c, str) and len(c) == 40 for c in record["commits"].values())
    machine = record["machine"]
    assert isinstance(machine["nproc"], int)
    assert all(isinstance(machine[k], str) for k in ("python", "numpy", "platform"))
    bench = record["perfbench"]
    assert bench["trace"] == 0 and isinstance(bench["seconds"], (int, float)) and bench["workloads"]
    names = set(record["pairs"][0]["parent"]["metrics"])  # the end-to-end metrics of its time
    assert names and all(isinstance(name, str) for name in names)
    for workload in bench["workloads"]:
        pairs = [p for p in record["pairs"] if p["workload"] == workload]
        assert len(pairs) >= 10, f"{workload}: fewer than ten pairs"
        assert [p["first"] for p in pairs] == [SIDES[i % 2] for i in range(len(pairs))], "sides must alternate"
        for pair in pairs:
            assert isinstance(pair["seed"], int)
            assert set(pair["reps"]) == set(SIDES) and all(isinstance(n, int) for n in pair["reps"].values())
            for side in SIDES:
                _assert_final_line(pair[side], names)
        assert set(record["quartiles"][workload]) == set(SIDES)
        for side in SIDES:
            table = record["quartiles"][workload][side]
            assert set(table) == names | {"reps"}
            for q1, median, q3 in table.values():
                assert q1 <= median <= q3
    for side in SIDES:
        run = record["tier1"][side]
        assert isinstance(run["wall_s"], float) and isinstance(run["returncode"], int)
        assert isinstance(run["summary"], str)
        assert isinstance(run["failed"], list) and all(isinstance(test, str) for test in run["failed"])
        assert len(run["slowest"]) == 4
        for test in run["slowest"]:
            assert isinstance(test["test"], str) and test["phase"] in ("setup", "call", "teardown")
            assert isinstance(test["seconds"], float)
