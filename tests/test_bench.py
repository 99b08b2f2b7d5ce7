import hashlib
import json
import os
import socket
import subprocess
import sys
import tempfile
import time
from random import Random

import pytest

from quicmq import cli
from quicmq.agents import ClientAgent, ServerAgent
from quicmq.bench import (
    BenchError,
    bench_conn_overhead,
    bench_half_open,
    bench_hol,
    bench_migrate,
    bench_stream_isolation,
)
from quicmq.cli import main
from quicmq.connection import IDLE_TIMEOUT_S, Connection
from quicmq.handshake import ServerIdentity, StrikeRegister, make_nonc
from quicmq.netsim import PROFILES, SimConfig, SimNetwork, Timer, TraceEvent
from quicmq.udprun import UdpNetwork


def test_conn_overhead_wired_counts_are_exact():
    res = bench_conn_overhead("wired", mode=None, iterations=2, seed=0)
    counts = res.data["packet_counts"]
    assert counts["tcp"] == {"publisher": 15, "subscriber": 19, "broker": 34}
    assert counts["quic1rtt"] == {"publisher": 10, "subscriber": 12, "broker": 22}
    assert counts["quic0rtt"] == {"publisher": 8, "subscriber": 10, "broker": 18}


def test_conn_overhead_single_mode(tmp_path):
    res = bench_conn_overhead("wired", mode="quic1rtt", iterations=1, seed=0)
    assert "reductions_pct" not in res.data
    assert res.data["packet_counts"]["quic1rtt"]["broker"] == 22


def test_conn_overhead_unknown_profile():
    with pytest.raises(BenchError):
        bench_conn_overhead("marsnet", mode="tcp")


def test_bench_json_is_deterministic():
    a = bench_conn_overhead("wireless", mode=None, iterations=3, seed=4)
    b = bench_conn_overhead("wireless", mode=None, iterations=3, seed=4)
    assert a.to_json() == b.to_json()


def fanout_run() -> tuple[bytes, bytes]:
    """30 subscribers with exact, ``+`` and ``#`` filters at QoS 0 and 1, and
    a persistent client that disconnects and comes back on a new address,
    over a seeded simulator; 300 publishes at QoS 0 and 1 from random
    clients. Returns the wire trace and what each client received, in order:
    broker routing order decides every msgid in both."""
    broker = ("10.0.0.1", 4433)
    net = SimNetwork(SimConfig(delay_ms=0.5), seed=9)
    identity = ServerIdentity.create(now=0.0, rng=Random(42))
    ServerAgent(net, broker, identity, rng=Random(9))
    rng = Random(9)
    received = []

    def on_message(agent, msg):
        received.append((agent.client_id, msg.topic, msg.msgid, msg.qos))

    def client(ip, client_id, persistent=False):
        agent = ClientAgent(net, (ip, 40000), broker, client_id, identity.sign_pair.pk,
                            rng=Random(rng.getrandbits(32)), persistent=persistent,
                            on_message=on_message)
        agent.connect_mqtt()
        return agent

    devices = [client(f"10.0.1.{i + 1}", f"dev{i:02d}") for i in range(30)]
    keeper = client("10.0.2.1", "keeper", persistent=True)
    net.run(until_s=1.0)
    for i, dev in enumerate(devices):
        dev.subscribe(f"dev/{i}/in", qos=i % 2)
        if i % 3 == 0:
            dev.subscribe(f"grp/{i % 4}/+", qos=(i // 3) % 2)
        if i % 5 == 0:
            dev.subscribe(f"grp/{i % 4}/#", qos=1 - i % 2)
        if i % 7 == 3:
            dev.subscribe(f"+/{i}/#")
    devices[7].subscribe("#")
    keeper.subscribe("grp/+/x", qos=1)
    keeper.subscribe("dev/keeper/in", qos=1)
    net.run(until_s=2.0)

    topics = ([f"dev/{i}/in" for i in range(30)] + ["dev/keeper/in", "dev/3/out"]
              + [f"grp/{g}/{leaf}" for g in range(4) for leaf in ("x", "y/z")]
              + [f"grp/{g}" for g in range(4)])
    for k in range(300):
        sender = devices[rng.randrange(30)]
        topic = rng.choice(topics)
        qos = rng.randrange(2)
        net.schedule(0.01 * k, lambda s=sender, t=topic, q=qos, k=k:
                     s.publish(t, k.to_bytes(2, "big"), qos=q))
    net.schedule(1.0, keeper.disconnect)
    net.schedule(1.5, lambda: client("10.0.2.2", "keeper", persistent=True))
    net.run(until_s=8.0)
    return "\n".join([ev.line() for ev in net.trace]).encode(), repr(received).encode()


def rej_fallback_run(state_dir: str) -> bytes:
    """A warm publisher whose cached scid the broker has since retired. Its
    0-RTT CONNECT and a three-chunk QoS 1 PUBLISH are queued behind the full
    hello; the broker answers with a REJ, and the publisher sends the same
    frames again under the fresh initial keys, then disconnects. Returns the
    wire trace, the publisher's handshake path and what the subscriber
    received."""
    broker = ("10.0.0.1", 4433)
    identity = ServerIdentity.create(now=0.0, rng=Random(42))
    warm_net = SimNetwork(SimConfig(delay_ms=0.5), seed=11)
    ServerAgent(warm_net, broker, identity, rng=Random(11))
    ClientAgent(warm_net, ("10.0.3.1", 40000), broker, "pub", identity.sign_pair.pk,
                rng=Random(1), state_dir=state_dir).connect_mqtt()
    warm_net.run(until_s=1.0)
    identity.rotate_scfg(1.0, Random(50))

    net = SimNetwork(SimConfig(delay_ms=0.5), seed=12)
    ServerAgent(net, broker, identity, rng=Random(12))
    received = []
    sub = ClientAgent(net, ("10.0.3.2", 40000), broker, "sub", identity.sign_pair.pk,
                      rng=Random(2),
                      on_message=lambda agent, msg: received.append(
                          (msg.topic, hashlib.sha256(msg.payload).hexdigest(),
                           msg.msgid, msg.qos)))
    sub.connect_mqtt()
    net.run(until_s=0.5)
    sub.subscribe("rej/#", qos=1)
    net.run(until_s=1.0)
    pub = ClientAgent(net, ("10.0.3.1", 40001), broker, "pub", identity.sign_pair.pk,
                      rng=Random(3), state_dir=state_dir)
    path = pub.connect_mqtt()
    pub.publish("rej/a", bytes(range(256)) * 12, qos=1)
    net.schedule(0.5, pub.disconnect)
    net.run(until_s=3.0)
    return ("\n".join([ev.line() for ev in net.trace]).encode()
            + repr((path, pub.connected, received)).encode())


# sha256 of to_json() followed by repr(series_rows()), of fanout_run()'s
# trace and deliveries together and of its deliveries alone, and of
# rej_fallback_run().
# The JSON holds packet counts and simulated times only, so these move only
# when the wire format, the packet ladder, the simulated timing or the
# broker's delivery order changes; a change that moves one must update it
# and say why.
# Each "<run>.datagrams" entry is the sha256 of every datagram that run put
# on the simulated network, in the order sent. Signatures are deterministic,
# so REJs included, these move only when some byte on the wire does.
PINNED_DIGESTS = {
    "conn_overhead_wired": "8584854b34f06f91667b2fafc14b0d6782b109ddede4bd543594dd84806736c2",
    "hol_wired": "d4781aee5296eff26a3767287513ae74fa0ac7498ca7857dab7bae941de45464",
    "half_open_wired": "78568e10dba9dd8800ee2fe6db04952811e9e5c877af5a88c7a0d312938a1315",
    "migrate_wired": "aaf2340b259c1c28d10e2c571b9e3397fde855217ca0556c8a4618c7831cd3eb",
    "conn_overhead_wireless": "6bdf312e4924ee770ec902d201786d267968589484647bdcadc33350498779c0",
    "hol_wireless": "1cf2986c12cd3321c1e32903c2efb5afbc8d054d0c48ae52c916cfc6dbeb3550",
    "stream_isolation_wired": "2bcd722a4bda24ef1b231c0e8ca79188b7be20a41206fa572ac1e3183eb27de4",
    "migrate_wireless": "86da5891ed9dcded10d3d8cbc6f171b095f2f4fbbc47bc7d6d5987d98e63071e",
    "conn_overhead_long_distance":
        "5c241b5e1796f8e626b6ac19e4678eb67f18ea9e1a2d85ccb5a1e1be1109859e",
    # The trace moves with ACK timing; "fanout_received", the deliveries
    # alone, must not: broker routing order decides them.
    "fanout_many_subscribers":
        "ad8c452aebc19e8b40059d7c7aee5a3695852d351738ec633ab5170fdc015e00",
    "fanout_received": "104038966138270088989bb52413df64aea4ff5182ca2e74e69c708abdc289b8",
    "rej_fallback": "567b849dfc1586dd322c86a613c9a43f137f233b85201758a16eafbce3c3d4bf",
    "conn_overhead_wired.datagrams":
        "b2baed7ef06ce183dfdf2f81d690e018c9c4f1fbf85b6f2e8f6e107fa9c22ca1",
    "hol_wired.datagrams": "3f057075984fecfccf8452c5fd00c0ee4d2e7bf8d9c7de871639b1311d0b604c",
    "half_open_wired.datagrams":
        "4bde27fa35e6257f44dfad372b3e2d0ec7b986606d1d8d369e4b3fcee5802470",
    # migrate runs lossless, so its two profiles send the same bytes, at
    # different times.
    "migrate_wired.datagrams": "c98c3174765efd8578d3933d43ef8b5a838ffa3d80970606ac89a2c0ef23134a",
    "conn_overhead_wireless.datagrams":
        "36d448cd598386ea339beb42a416e26ea0baebc863f28434270a8c4108839306",
    "hol_wireless.datagrams": "2bce7dd97608c352c2eee5cd33d30b4ddbf595e88976b1690743358c5e77d839",
    "stream_isolation_wired.datagrams":
        "058034f1ae0e11b5cabb15943c96de0a03d81e3302c10f7b2a5913e2fd2d1736",
    "migrate_wireless.datagrams":
        "c98c3174765efd8578d3933d43ef8b5a838ffa3d80970606ac89a2c0ef23134a",
    "conn_overhead_long_distance.datagrams":
        "a4a8128910af0d6e523928422d90cda498a148b948c113a832078a34c8f77232",
    "fanout_many_subscribers.datagrams":
        "ecf84cb9c5caf9483dc7212347084d535a242373baf724e86dabc187c439e9a7",
    "rej_fallback.datagrams": "0e514e89547edb2b5c183e0f2857ecd21a07d22a9d17cdedc8b96d9c0f07dd61",
}


def test_bench_output_matches_pinned_digests(tmp_path, monkeypatch):
    # The first four are the test_benchmark_determinism configurations.
    runs = {
        "conn_overhead_wired": lambda: bench_conn_overhead(
            "wired", mode=None, iterations=3, seed=9),
        "hol_wired": lambda: bench_hol("wired", drop_rate=20, streams=2,
                                       messages=80, seed=9),
        "half_open_wired": lambda: bench_half_open(
            "wired", publishers=2, conns=10, restart_at=5.0, horizon=60.0, seed=9),
        "migrate_wired": lambda: bench_migrate("wired", changes=2, interval=20.0,
                                               duration=60.0, seed=9),
        "conn_overhead_wireless": lambda: bench_conn_overhead(
            "wireless", mode=None, iterations=5, seed=4),
        "hol_wireless": lambda: bench_hol("wireless", drop_rate=10, streams=4,
                                          messages=400, seed=3),
        "stream_isolation_wired": lambda: bench_stream_isolation(
            "wired", drop_rate=10, messages=100, seed=9),
        "migrate_wireless": lambda: bench_migrate("wireless", changes=2, interval=20.0,
                                                  duration=60.0, seed=9),
        "conn_overhead_long_distance": lambda: bench_conn_overhead(
            "long_distance", mode=None, iterations=3, seed=9),
    }
    datagrams = hashlib.sha256()
    send = SimNetwork.send

    def recording_send(self, payload, *args):
        datagrams.update(payload)
        send(self, payload, *args)
    monkeypatch.setattr(SimNetwork, "send", recording_send)

    def pinned(name, run):
        nonlocal datagrams
        datagrams = hashlib.sha256()
        out = run()
        digests[name + ".datagrams"] = datagrams.hexdigest()
        return out

    digests = {}
    for name, run in runs.items():
        res = pinned(name, run)
        h = hashlib.sha256(res.to_json().encode())
        h.update(repr(res.series_rows()).encode())
        digests[name] = h.hexdigest()
    trace, received = pinned("fanout_many_subscribers", fanout_run)
    digests["fanout_many_subscribers"] = hashlib.sha256(trace + received).hexdigest()
    digests["fanout_received"] = hashlib.sha256(received).hexdigest()
    digests["rej_fallback"] = hashlib.sha256(
        pinned("rej_fallback", lambda: rej_fallback_run(str(tmp_path / "rej")))).hexdigest()
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
    for bench in (bench_hol, bench_stream_isolation):
        for rate in (33, 5, -10, 100):
            with pytest.raises(BenchError):
                bench("wired", drop_rate=rate)
    # Rate 0 is a lossless run, not a division by zero.
    res = bench_stream_isolation("wired", drop_rate=0, messages=10, seed=2)
    assert res.data["clean_stream_identical"] is True


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


def test_every_result_names_the_link_it_ran():
    # Only conn-overhead runs the profile's ambient loss; the other
    # scenarios' drops are their own, on a lossless link at its delay.
    wireless = PROFILES["wireless"]
    lossless = [
        bench_hol("wireless", drop_rate=10, streams=2, messages=20, seed=1),
        bench_stream_isolation("wireless", drop_rate=10, messages=20, seed=1),
        bench_half_open("wireless", publishers=1, conns=2, restart_at=2.0,
                        horizon=5.0, seed=1),
        bench_migrate("wireless", changes=1, interval=2.0, duration=4.0, seed=1),
    ]
    for res in lossless:
        link = (res.config["profile"], res.config["delay_ms"], res.config["loss_rate"])
        assert link == ("wireless", wireless.delay_ms, 0.0), res.scenario
    res = bench_conn_overhead("wireless", mode="quic1rtt", iterations=1, seed=1)
    assert (res.config["profile"], res.config["delay_ms"], res.config["loss_rate"]) \
        == ("wireless", wireless.delay_ms, 0.25)


def test_run_benches_script_writes_every_result(tmp_path):
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "run_benches.py")
    out = subprocess.run([sys.executable, script, str(tmp_path), "--quick"],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    profiles = ("wired", "wireless", "long_distance")
    expected = ([f"conn_overhead_{p}.json" for p in profiles]
                + [f"hol_{p}_{rate}pct.json" for p in profiles for rate in (10, 20, 50)]
                + ["stream_isolation_wired.json", "half_open.json", "half_open.csv",
                   "migrate.json", "migrate.csv"])
    assert sorted(os.listdir(tmp_path)) == sorted(expected)
    for name in expected:
        if not name.endswith(".json"):
            continue
        config = json.loads((tmp_path / name).read_text())["config"]
        profile = PROFILES[config["profile"]]
        loss = profile.loss_rate if name.startswith("conn_overhead") else 0.0
        assert (config["delay_ms"], config["loss_rate"]) == (profile.delay_ms, loss), name


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
               "1", "--json", str(json_path)])
    assert rc == 0
    doc = json.loads(json_path.read_text())
    assert doc["data"]["packet_counts"]["tcp"]["broker"] == 34
    out = capsys.readouterr().out
    assert json.loads(out)["scenario"] == "conn_overhead"


def test_cli_bench_conn_overhead_leaves_no_temp_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    rc = main(["bench", "conn-overhead", "--iterations", "1", "--experiments", "1"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["data"]["packet_counts"]["quic0rtt"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["broker", "--listen", "127.0.0.1:0", "--run-for", "0", "--seed", "1"],
    ["pub", "--key-file", "k", "--topic", "t", "--seed", "1"],
    ["sub", "--key-file", "k", "--topic", "t", "--seed", "1"],
    ["pub", "--key-file", "k", "--topic", "t", "--resume"],
])
def test_cli_real_udp_commands_take_no_seed_or_resume(argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2


def test_cli_bench_hol_isolation(tmp_path):
    rc = main(["bench", "hol", "--isolation", "--messages", "30",
               "--json", str(tmp_path / "iso.json")])
    assert rc == 0
    doc = json.loads((tmp_path / "iso.json").read_text())
    assert doc["data"]["clean_stream_identical"] is True


@pytest.mark.parametrize("argv", [
    ["conn-overhead", "--iterations", "1", "--experiments", "1"],
    ["hol", "--messages", "30"],
    ["hol", "--isolation", "--messages", "30"],
    ["half-open", "--publishers", "2", "--conns", "4", "--restart-at", "2",
     "--horizon", "5"],
    ["migrate", "--changes", "1", "--interval", "2", "--duration", "4"],
], ids=["conn-overhead", "hol", "hol-isolation", "half-open", "migrate"])
def test_cli_bench_writes_the_trace_of_every_scenario(argv, tmp_path, capsys):
    path = tmp_path / "bench.trace"
    assert main(["bench", *argv, "--trace", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines and all(len(line.split("\t")) == 5 for line in lines)
    assert json.loads(capsys.readouterr().out)["scenario"]


@pytest.mark.parametrize("scenario", ["conn-overhead", "hol", "half-open", "migrate"])
def test_cli_bench_without_session_files_takes_no_state_dir(scenario):
    # conn-overhead keeps its 0-RTT session files in a temporary directory
    # of its own, so no scenario takes a directory.
    with pytest.raises(SystemExit) as e:
        main(["bench", scenario, "--state-dir", "x"])
    assert e.value.code == 2


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


def _free_port() -> int:
    """A loopback UDP port the OS reports free, so that suites run at the
    same time do not collide."""
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    return env


def _start_broker(tmp_path, port: int) -> subprocess.Popen:
    """A real-UDP broker process; returns once it has written its key."""
    broker = subprocess.Popen(
        [sys.executable, "-m", "quicmq.cli", "broker",
         "--listen", f"127.0.0.1:{port}", "--state-dir", str(tmp_path),
         "--run-for", "25"],
        env=_cli_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    deadline = 50
    while not (tmp_path / "broker.pk").exists() and deadline:
        time.sleep(0.1)
        deadline -= 1
    if not (tmp_path / "broker.pk").exists():
        broker.kill()
        broker.wait()
        raise AssertionError("broker never wrote its key")
    return broker


class Built(Exception):
    """Raised in place of building the CLI's client agent."""


@pytest.mark.parametrize("argv", [
    ["sub", "--topic", "t", "--count", "0"],  # runs until killed
    ["pub", "--topic", "t", "--interval", "60"],  # quiet past the idle timeout
])
def test_cli_clients_keep_their_connection_alive(tmp_path, monkeypatch, argv):
    key_file = tmp_path / "broker.pk"
    key_file.write_text(ServerIdentity.create(now=0.0).sign_pair.pk.hex() + "\n")
    seen = []

    def recording_agent(*args, **kw):
        seen.append(kw)
        raise Built()
    monkeypatch.setattr(cli, "ClientAgent", recording_agent)
    with pytest.raises(Built):
        main(argv + ["--broker", "127.0.0.1:9", "--key-file", str(key_file)])
    keepalive, = [kw["keepalive"] for kw in seen]
    assert 0 < keepalive < IDLE_TIMEOUT_S


@pytest.mark.parametrize("command", ["sub", "pub"])
def test_cli_clients_report_a_bind_failure(tmp_path, monkeypatch, capsys, command):
    key_file = tmp_path / "broker.pk"
    key_file.write_text(ServerIdentity.create(now=0.0).sign_pair.pk.hex() + "\n")

    def unbindable_agent(*args, **kw):
        raise OSError("address in use")
    monkeypatch.setattr(cli, "ClientAgent", unbindable_agent)
    code = main([command, "--topic", "t", "--broker", "127.0.0.1:9",
                 "--key-file", str(key_file)])
    assert code == 1
    assert "bind failed: address in use" in capsys.readouterr().err


@pytest.mark.skipif(not _udp_available(), reason="UDP loopback unavailable")
def test_cli_broker_tells_its_clients_when_it_stops(monkeypatch, capsys):
    shut = []

    class RecordingServerAgent(ServerAgent):
        def shutdown(self):
            shut.append(self.addr)
            super().shutdown()

    monkeypatch.setattr(cli, "ServerAgent", RecordingServerAgent)
    assert main(["broker", "--listen", "127.0.0.1:0", "--run-for", "0"]) == 0
    assert shut == [("127.0.0.1", 0)]


@pytest.mark.skipif(not _udp_available(), reason="UDP loopback unavailable")
def test_cli_real_udp_end_to_end(tmp_path):
    """Broker, subscriber, and publisher as separate processes on loopback;
    the subscriber prints the published messages."""
    env = _cli_env()
    port = _free_port()
    broker = _start_broker(tmp_path, port)
    try:
        key_file = tmp_path / "broker.pk"
        sub = subprocess.Popen(
            [sys.executable, "-m", "quicmq.cli", "sub",
             "--broker", f"127.0.0.1:{port}", "--key-file", str(key_file),
             "--topic", "t/demo", "--count", "3", "--run-for", "15"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
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


@pytest.mark.skipif(not _udp_available(), reason="UDP loopback unavailable")
def test_cli_pub_resumes_exactly_when_given_a_state_dir(tmp_path):
    port = _free_port()
    broker = _start_broker(tmp_path, port)
    pub = [sys.executable, "-m", "quicmq.cli", "pub", "--broker", f"127.0.0.1:{port}",
           "--key-file", str(tmp_path / "broker.pk"), "--topic", "t/demo",
           "--interval", "0.05"]
    try:
        paths = []
        for extra in ([], ["--state-dir", str(tmp_path / "pub")],
                      ["--state-dir", str(tmp_path / "pub")]):
            run = subprocess.run(pub + extra, env=_cli_env(), capture_output=True,
                                 text=True, timeout=20)
            assert run.returncode == 0, run.stdout + run.stderr
            paths.append(run.stdout.split("handshake path: ")[1].split()[0])
        assert paths == ["1rtt", "1rtt", "0rtt"]
    finally:
        broker.kill()
        broker.wait()


@pytest.mark.skipif(not _udp_available(), reason="UDP loopback unavailable")
def test_cli_clients_exit_1_when_the_handshake_fails(tmp_path):
    port = _free_port()
    broker = _start_broker(tmp_path, port)
    wrong_key = tmp_path / "wrong.pk"
    wrong_key.write_text(ServerIdentity.create(now=0.0).sign_pair.pk.hex() + "\n")
    client = [sys.executable, "-m", "quicmq.cli"]
    target = ["--broker", f"127.0.0.1:{port}", "--key-file", str(wrong_key),
              "--topic", "t/demo"]
    try:
        for command in (["sub", "--run-for", "15"], ["pub"]):
            started = time.monotonic()
            run = subprocess.run(client + command + target, env=_cli_env(),
                                 capture_output=True, text=True, timeout=40)
            elapsed = time.monotonic() - started
            assert run.returncode == 1, run.stdout + run.stderr
            assert "handshake failed: scfg_bad_signature" in run.stderr
            assert elapsed < 5.0, (command, elapsed)
    finally:
        broker.kill()
        broker.wait()


@pytest.mark.skipif(not _udp_available(), reason="UDP loopback unavailable")
def test_udp_runner_writes_the_simulator_trace_format(tmp_path):
    net = UdpNetwork(trace_path=str(tmp_path / "udp.trace"))
    got = []

    net.register(("127.0.0.1", 0), lambda payload, src: got.append(payload))
    addr = net.local_address()
    try:
        net.send(b"hello", addr, addr, "probe")
        net.run(until_s=5.0, stop=lambda: got)
    finally:
        net.unregister(addr)
    assert got == [b"hello"]
    assert [(ev.event, ev.src, ev.dst, ev.size, ev.annotation) for ev in net.trace] == [
        ("send", addr, addr, 5, "probe"), ("deliver", addr, addr, 5, "")]
    assert all(isinstance(ev, TraceEvent) for ev in net.trace)
    net.write_trace()
    assert (tmp_path / "udp.trace").read_text().splitlines() == [
        ev.line() for ev in net.trace]


@pytest.mark.skipif(not _udp_available(), reason="UDP loopback unavailable")
def test_udp_runner_drops_a_datagram_the_host_refuses_to_send(tmp_path):
    # A padded hello from port 0 draws a REJ to port 0, which sendto
    # refuses. The broker drops it, as a lost datagram, and traces the drop.
    net = UdpNetwork(trace_path=str(tmp_path / "udp.trace"))
    identity = ServerIdentity.create(now=net.clock.now_s, rng=Random(1))
    server = ServerAgent(net, ("127.0.0.1", 0), identity, rng=Random(2))
    spoofed = ("127.0.0.1", 0)
    client = Connection("client", 77, spoofed, server.addr, clock=lambda: net.clock.now_s,
                        scheduler=lambda delay, fn: Timer(fn), on_event=lambda ev: None,
                        server_pk=identity.sign_pair.pk)
    client.start_connect()
    [(hello, _)] = client.take_outputs()
    try:
        server.on_datagram(hello, spoofed)
    finally:
        net.unregister(server.addr)
    assert [(ev.event, ev.dst, ev.annotation) for ev in net.trace] == [
        ("send", spoofed, "rej"), ("drop", spoofed, "rej")]
    assert server.connection_count() == 1


@pytest.mark.skipif(not _udp_available(), reason="UDP loopback unavailable")
def test_udp_runner_keeps_no_trace_without_a_path():
    net = UdpNetwork()
    got = []

    net.register(("127.0.0.1", 0), lambda payload, src: got.append(payload))
    addr = net.local_address()
    try:
        for _ in range(3):
            net.send(b"hello", addr, addr, "probe")
        net.run(until_s=5.0, stop=lambda: len(got) == 3)
    finally:
        net.unregister(addr)
    assert got == [b"hello"] * 3
    assert net.trace == []


def test_real_udp_runners_started_apart_read_the_same_time(monkeypatch):
    # A broker up for 400 s, more than the strike register's 300 s window,
    # and a client started now: the client's nonce timestamp must still
    # fall inside the broker's window.
    host = {"monotonic": 5000.0, "time": 1_700_000_000.0}
    monkeypatch.setattr(time, "monotonic", lambda: host["monotonic"])
    monkeypatch.setattr(time, "time", lambda: host["time"])
    broker_net = UdpNetwork()
    host["monotonic"] += 400.0
    host["time"] += 400.0
    client_net = UdpNetwork()
    assert client_net.clock.now_s == broker_net.clock.now_s
    nonc = make_nonc(client_net.clock.now_s, Random(1))
    StrikeRegister().check(nonc, broker_net.clock.now_s)
