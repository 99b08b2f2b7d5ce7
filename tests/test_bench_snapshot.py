"""scripts/bench_snapshot.py: the snapshot file is assembled from perfbench's
result lines and records without running perfbench."""

import importlib.util
import json
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
spec = importlib.util.spec_from_file_location(
    "bench_snapshot", os.path.join(HERE, "..", "scripts", "bench_snapshot.py"))
bench_snapshot = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_snapshot)

RESULT_LINE = ('{"correct": true, "attempted": 17632, "failed": 683, "metrics": '
               '{"msg_rate": {"value": 2301.5, "unit": "1/s"}}}')
ENV = {"python": "3.11.7", "cryptography": "48.0.0", "nproc": 2,
       "source_sha256": "ab" * 32, "cpu_share": 0.93, "host_factor": 1.04,
       "loadavg": [0.5, 0.5, 0.5]}


def record(**env) -> dict:
    return {"env": {**ENV, **env}, "unscaled": {"msg_rate": 2210.0},
            "round_s": [[0, 0.4, 1.0, 1.02], [1, 0.4, 1.0, 1.06]]}


def test_plan_covers_both_seeds_untraced_and_seed_one_traced():
    runs = bench_snapshot.plan(["stream_age", "fleet", "churn"])
    assert len(runs) == 9
    assert {(w, s) for w, s, t in runs if t == 0} == {
        (w, s) for w in ("stream_age", "fleet", "churn") for s in (1, 2)}
    assert [(w, s) for w, s, t in runs if t == 1] == [
        ("stream_age", 1), ("fleet", 1), ("churn", 1)]


def test_assemble_keeps_result_line_unscaled_and_environment():
    result = json.loads(RESULT_LINE)
    traced = {"env": {**ENV, "cpu_share": 0.8}}
    doc = bench_snapshot.assemble(7, "pr7", [
        ("stream_age", 1, 0, result, record()),
        ("stream_age", 1, 1, result, traced),
    ])
    assert doc["bench"] == 7 and doc["label"] == "pr7"
    assert (doc["python"], doc["cryptography"], doc["nproc"]) == ("3.11.7", "48.0.0", 2)
    assert doc["source_sha256"] == "ab" * 32
    untraced_run, traced_run = doc["runs"]
    assert untraced_run["result"] == result
    assert untraced_run["unscaled"] == {"msg_rate": 2210.0}
    assert untraced_run["host_factor"] == 1.04
    assert untraced_run["host_factor_per_round"] == [1.02, 1.06]
    assert untraced_run["cpu_share"] == 0.93
    assert traced_run["cpu_share"] == 0.8 and "unscaled" not in traced_run
    json.dumps(doc)  # the file is plain JSON


def test_assemble_refuses_runs_of_different_sources():
    result = json.loads(RESULT_LINE)
    with pytest.raises(ValueError):
        bench_snapshot.assemble(7, "x", [
            ("fleet", 1, 0, result, record()),
            ("fleet", 2, 0, result, record(source_sha256="cd" * 32)),
        ])
