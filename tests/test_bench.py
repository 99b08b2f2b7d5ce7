import hashlib
import json
import os
import socket
import subprocess
import sys

import pytest

from quicmq.bench import (
    BenchError,
    bench_conn_overhead,
    bench_half_open,
    bench_hol,
    bench_migrate,
    bench_stream_isolation,
)
from quicmq.cli import main


def test_conn_overhead_wired_counts_are_exact(tmp_path):
    res = bench_conn_overhead("wired", mode=None, iterations=2, seed=0,
                              state_dir=str(tmp_path))
    counts = res.data["packet_counts"]
    assert counts["tcp"] == {"publisher": 15, "subscriber": 19, "broker": 34}
    assert counts["quic1rtt"] == {"publisher": 10, "subscriber": 12, "broker": 22}
    assert counts["quic0rtt"] == {"publisher": 8, "subscriber": 10, "broker": 18}


def test_conn_overhead_single_mode(tmp_path):
    res = bench_conn_overhead("wired", mode="quic1rtt", iterations=1, seed=0)
    assert "reductions_pct" not in res.data
    assert res.data["packet_counts"]["quic1rtt"]["broker"] == 22


def test_conn_overhead_0rtt_requires_state_dir():
    with pytest.raises(BenchError):
        bench_conn_overhead("wired", mode="quic0rtt", iterations=1)


def test_conn_overhead_unknown_profile():
    with pytest.raises(BenchError):
        bench_conn_overhead("marsnet", mode="tcp")


def test_bench_json_is_deterministic(tmp_path):
    a = bench_conn_overhead("wireless", mode=None, iterations=3, seed=4,
                            state_dir=str(tmp_path / "a"))
    b = bench_conn_overhead("wireless", mode=None, iterations=3, seed=4,
                            state_dir=str(tmp_path / "b"))
    assert a.to_json() == b.to_json()


# sha256 of to_json() followed by repr(series_rows()). The JSON holds packet
# counts and simulated times only, so these move only when the wire format,
# the packet ladder or the simulated timing changes; a change that moves one
# must update it and say why.
PINNED_DIGESTS = {
    "conn_overhead_wired": "8584854b34f06f91667b2fafc14b0d6782b109ddede4bd543594dd84806736c2",
    "hol_wired": "32fd871e8cc18378d3fa53479f2f0530ea3ccc5401787dab536aa5efbb9ff3c1",
    "half_open_wired": "dbf30749867aba004e3e2f66c63bb7358cfcb06fc1c73b8aee229a7ac280cd36",
    "migrate_wired": "db38a298fa56ccfe3bf223af52b88a7e1f535a52104b2d8d59717aea8fb598ec",
    "conn_overhead_wireless": "bd938b48f92ee05adf5da52a644d273bfb7bce810dc27e59fbd66fc7c66f06b0",
    "hol_wireless": "4829ba98f9f46f476753c409599248cb6d8fc190f56c6470c90f169c5d91e999",
}


def test_bench_output_matches_pinned_digests(tmp_path):
    # The first four are the test_benchmark_determinism configurations.
    runs = {
        "conn_overhead_wired": lambda: bench_conn_overhead(
            "wired", mode=None, iterations=3, seed=9, state_dir=str(tmp_path / "a")),
        "hol_wired": lambda: bench_hol("wired", drop_rate=20, streams=2,
                                       messages=80, seed=9),
        "half_open_wired": lambda: bench_half_open(
            "wired", publishers=2, conns=10, restart_at=5.0, horizon=60.0, seed=9),
        "migrate_wired": lambda: bench_migrate("wired", changes=2, interval=20.0,
                                               duration=60.0, seed=9),
        "conn_overhead_wireless": lambda: bench_conn_overhead(
            "wireless", mode=None, iterations=5, seed=4, state_dir=str(tmp_path / "b")),
        "hol_wireless": lambda: bench_hol("wireless", drop_rate=10, streams=4,
                                          messages=400, seed=3),
    }
    digests = {}
    for name, run in runs.items():
        res = run()
        h = hashlib.sha256(res.to_json().encode())
        h.update(repr(res.series_rows()).encode())
        digests[name] = h.hexdigest()
    assert digests == PINNED_DIGESTS


def test_hol_improvement_positive_and_files(tmp_path):
    res = bench_hol("wired", drop_rate=10, streams=2, messages=60, seed=1)
    assert res.data["improvement_pct"] > 0
    assert res.data["quic_mean_us"] < res.data["tcp_mean_us"]
    json_path = tmp_path / "hol.json"
    res.write_json(str(json_path))
    doc = json.loads(json_path.read_text())
    assert doc["scenario"] == "hol"
    assert doc["config"]["seed"] == 1


def test_hol_rejects_bad_rate():
    with pytest.raises(BenchError):
        bench_hol("wired", drop_rate=33)


def test_stream_isolation_clean_stream_untouched():
    res = bench_stream_isolation("wired", drop_rate=10, messages=40, seed=2)
    assert res.data["clean_stream_identical"] is True
    assert res.data["clean_stream_latencies_us"] == res.data["lossless_latencies_us"]


def test_half_open_small_world():
    res = bench_half_open("wired", publishers=2, conns=10, restart_at=5.0,
                          horizon=60.0, seed=3)
    assert res.data["peak_connections"] == 10
    assert res.data["reclaim_after_restart_s"] is not None
    assert res.data["reclaim_after_restart_s"] <= 60.0
    assert res.data["tcp_state_series"][-1][1] == 10


def test_migrate_small_world():
    res = bench_migrate("wired", changes=2, interval=20.0, duration=60.0,
                        publish_interval=1.0, seed=4)
    assert res.data["handshake_packets_after_setup"] == 0
    assert res.data["migrations_observed"] == 2
    assert res.data["cids_at_server"] == 2  # publisher + subscriber, no more
    assert res.data["max_delivery_gap_s"] <= 1.0 + 2 * res.data["rtt_s"] + 1e-6
    assert res.data["tcp_reestablishments"] == 2


def test_result_csv_series(tmp_path):
    res = bench_half_open("wired", publishers=2, conns=10, restart_at=5.0,
                          horizon=30.0, seed=3)
    path = tmp_path / "series.csv"
    res.write_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "series,t,value"
    assert any(line.startswith("quic_state_series,") for line in lines[1:])


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_bench_conn_overhead(tmp_path, capsys):
    json_path = tmp_path / "out.json"
    rc = main(["bench", "conn-overhead", "--profile", "wired", "--iterations",
               "1", "--state-dir", str(tmp_path / "state"),
               "--json", str(json_path)])
    assert rc == 0
    doc = json.loads(json_path.read_text())
    assert doc["data"]["packet_counts"]["tcp"]["broker"] == 34
    out = capsys.readouterr().out
    assert json.loads(out)["scenario"] == "conn_overhead"


def test_cli_bench_hol_isolation(tmp_path):
    rc = main(["bench", "hol", "--isolation", "--messages", "30",
               "--json", str(tmp_path / "iso.json")])
    assert rc == 0
    doc = json.loads((tmp_path / "iso.json").read_text())
    assert doc["data"]["clean_stream_identical"] is True


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["bench", "conn-overhead", "--mode", "warp"])
    assert e.value.code == 2


def test_cli_unknown_command_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["florp"])
    assert e.value.code == 2


def _udp_available() -> bool:
    try:
        s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        s.bind(("127.0.0.1", 0))
        s.close()
        return True
    except OSError:
        return False


@pytest.mark.skipif(not _udp_available(), reason="UDP loopback unavailable")
def test_cli_real_udp_end_to_end(tmp_path):
    """Broker, subscriber, and publisher as separate processes on loopback;
    the subscriber prints the published messages."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    port = 18833
    broker = subprocess.Popen(
        [sys.executable, "-m", "quicmq.cli", "broker",
         "--listen", f"127.0.0.1:{port}", "--state-dir", str(tmp_path),
         "--run-for", "25"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        key_file = tmp_path / "broker.pk"
        deadline = 50
        while not key_file.exists() and deadline:
            import time
            time.sleep(0.1)
            deadline -= 1
        assert key_file.exists(), "broker never wrote its key"
        sub = subprocess.Popen(
            [sys.executable, "-m", "quicmq.cli", "sub",
             "--broker", f"127.0.0.1:{port}", "--key-file", str(key_file),
             "--topic", "t/demo", "--count", "3", "--run-for", "15"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        import time
        time.sleep(1.0)
        pub = subprocess.run(
            [sys.executable, "-m", "quicmq.cli", "pub",
             "--broker", f"127.0.0.1:{port}", "--key-file", str(key_file),
             "--topic", "t/demo", "--count", "3", "--interval", "0.1",
             "--payload", "ping"],
            env=env, capture_output=True, text=True, timeout=20)
        assert pub.returncode == 0, pub.stdout + pub.stderr
        out, _ = sub.communicate(timeout=20)
        assert sub.returncode == 0, out
        assert out.count("t/demo ping") == 3
    finally:
        broker.kill()
        broker.wait()
