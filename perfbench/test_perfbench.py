"""Self-test of the benchmark. Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

It runs each workload at a small size, so it checks the benchmark's logic,
not its timings.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, Churn, Fleet, RoundStats, StreamAge, no_marks  # noqa: E402

SMALL = {
    "stream_age": lambda: StreamAge(messages=300, probes=10),
    "fleet": lambda: Fleet(devices=40, group_size=10),
    "churn": lambda: Churn(cycles=30),
}
DETERMINISTIC_E2E = ("wire_bytes_per_msg", "datagrams_per_msg", "complete_ratio")
DETERMINISTIC_LAYER = ("netsim.sim_latency_us.p99", "mqtt.topic_matches.per_publish",
                       "wire.over_budget", "connection.retransmits")


def deterministic(name: str, seed: int, work_dir: str) -> dict:
    workload = SMALL[name]()
    workload.inputs = 2
    workload.prepare(seed, work_dir)
    rounds = run.run_rounds(workload, seed, work_dir, None)
    assert not [e for r in rounds for e in r.errors]
    e2e = run.end_to_end(rounds, workload.inputs)
    layer, _, _ = run.traced_phase(workload, seed, work_dir, rounds)
    return {**{k: e2e[k] for k in DETERMINISTIC_E2E},
            **{k: layer[k] for k in DETERMINISTIC_LAYER}}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_deterministic_metrics_repeat_per_seed(name, tmp_path):
    first = deterministic(name, 1, str(tmp_path / "a"))
    again = deterministic(name, 1, str(tmp_path / "b"))
    other = deterministic(name, 2, str(tmp_path / "c"))
    assert first == again
    assert first != other


def test_stream_age_guards_move_with_the_seed(tmp_path):
    one = deterministic("stream_age", 1, str(tmp_path / "a"))
    two = deterministic("stream_age", 2, str(tmp_path / "b"))
    for key in ("wire_bytes_per_msg", "datagrams_per_msg", "netsim.sim_latency_us.p99",
                "mqtt.topic_matches.per_publish"):
        assert one[key] != two[key], key


def test_replayed_rounds_repeat_their_outcome(tmp_path):
    workload = SMALL["stream_age"]()
    workload.inputs = 2
    workload.prepare(5, str(tmp_path))
    rounds = run.run_rounds(workload, 5, str(tmp_path), 1e-9)
    rounds += [workload.round(5, k % 2, str(tmp_path), no_marks) for k in range(2)]
    assert not [e for r in rounds for e in r.errors]
    assert rounds[0].outcome() == rounds[2].outcome()
    assert rounds[1].outcome() == rounds[3].outcome()
    assert rounds[0].outcome() != rounds[1].outcome()


def test_counts_and_rates_weigh_each_input_once():
    def stats(delivered, timed_s):
        return RoundStats(expected=10, delivered=delivered, payload_bytes=delivered * 100,
                          timed_s=timed_s, setup_s=1.0)

    # Round k ran input k % 2: input 0 three times, input 1 twice. Counts come
    # from each input's first run; times are each input's mean.
    rounds = [stats(10, 1.0), stats(8, 2.0), stats(10, 3.0), stats(8, 2.4), stats(10, 2.0)]
    e2e = run.end_to_end(rounds, 2)
    assert e2e["msg_rate"] == pytest.approx(18 / (2.0 + 2.2))
    assert e2e["goodput_kBps"] == pytest.approx(1.8 / (2.0 + 2.2))
    assert e2e["complete_ratio"] == pytest.approx(18 / 20)


def test_probes_stay_out_of_the_clock_and_set_the_host_factor():
    before = len(hostspeed.probes)
    hostspeed.start()
    try:
        t_cpu, t_clock = time.process_time(), hostspeed.clock()
        while len(hostspeed.probes) < before + 3:
            sum(i * i for i in range(1000))
        d_clock, d_cpu = hostspeed.clock() - t_clock, time.process_time() - t_cpu
    finally:
        hostspeed.stop()
    new = hostspeed.probes[before:]
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert min(new) > 0
    assert abs((d_cpu - d_clock) - sum(new)) <= max(new)
    assert hostspeed.factor(before) == pytest.approx(hostspeed.REFERENCE_S / statistics.fmean(new))


def snapshot() -> dict:
    from quicmq import agents, connection, crypto, handshake, mqtt, netsim, wire

    owners = [agents, connection, crypto, handshake, mqtt, netsim, wire]
    owners += [v for m in list(owners) for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("quicmq")]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_tracer_restores_every_attribute():
    before = snapshot()
    t = tracing.install(tracing.Tracer())
    during = snapshot()
    t.uninstall()
    after = snapshot()
    assert sum(1 for k in before if during.get(k) is not before[k]) > 40
    assert before.keys() == after.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_tracer_self_time_excludes_children(monkeypatch):
    t = tracing.Tracer()
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: next(ticks))
    inner = t.spanned("wire.inner", lambda: None)
    outer = t.spanned("connection.outer", lambda: inner())
    outer()
    assert t.total_s["connection.outer"] == 10.0
    assert t.total_s["wire.inner"] == 2.0
    assert t.self_s["connection.outer"] == 8.0
    assert list(t.span_parent) == [-1, 0]


def test_stall_is_counted_not_hidden(tmp_path):
    workload = StreamAge(messages=1000, probes=10)
    workload.prepare(3, str(tmp_path))
    stats = [workload.round(3, r, str(tmp_path), no_marks) for r in range(4)]
    assert not [e for s in stats for e in s.errors]
    assert sum(s.expected - s.delivered for s in stats) > 0
    assert sum(s.layer["stalled_streams"] for s in stats) > 0


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
