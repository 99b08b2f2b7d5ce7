"""Acceptance suite: every criterion as one test, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -s`` to see them inline).

All scenarios run on the deterministic simulator with pinned seeds and the
tolerances stated below; nothing is calibrated at runtime.
"""

import time
from contextlib import contextmanager
from random import Random

import pytest

from quicmq import crypto
from quicmq.agents import ClientAgent, ServerAgent
from quicmq.bench import (
    bench_conn_overhead,
    bench_half_open,
    bench_hol,
    bench_migrate,
    bench_stream_isolation,
)
from quicmq.handshake import HandshakeError, ServerIdentity
from quicmq.netsim import SimConfig, SimNetwork


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] FAIL {name}", flush=True)
        raise
    print(f"[ACCEPTANCE] PASS {name}", flush=True)


# Reference reduction targets, wired profile; tolerance +/- 5 percentage points.
WIRED_EXPECTED = {
    "quic1rtt": {"broker": 35.29, "subscriber": 36.84, "publisher": 33.33},
    "quic0rtt": {"broker": 47.05, "subscriber": 47.36, "publisher": 46.66},
}


@pytest.fixture(scope="module")
def overhead_results(tmp_path_factory):
    results = {}
    walls = {}
    for profile in ("wired", "wireless", "long_distance"):
        state = tmp_path_factory.mktemp(f"conn-{profile}")
        # The lossy profiles take the median across three experiments of ten
        # iterations; the deterministic wired profile needs only one.
        experiments = 1 if profile == "wired" else 3
        t0 = time.perf_counter()
        results[profile] = bench_conn_overhead(profile, mode=None, iterations=10,
                                               seed=0, state_dir=str(state),
                                               experiments=experiments)
        walls[profile] = time.perf_counter() - t0
    return results, walls


@pytest.fixture(scope="module")
def hol_results():
    out = {}
    for profile in ("wired", "wireless", "long_distance"):
        out[profile] = [bench_hol(profile, drop_rate=rate, streams=2,
                                  messages=200, seed=0)
                        for rate in (10, 20, 50)]
    return out


def test_connection_overhead_ratios(overhead_results):
    with criterion("connection-overhead ratios (wired, +/-5 pts)"):
        results, walls = overhead_results
        wired = results["wired"].data
        for mode, per_role in WIRED_EXPECTED.items():
            for role, expected in per_role.items():
                got = wired["reductions_pct"][mode][role]
                assert abs(got - expected) <= 5.0, (mode, role, got, expected)
        assert wired["last_event_s"] < 5.0  # simulated runtime
        assert walls["wired"] < 1.0  # wall-clock runtime


def test_maximum_claim_and_profile_ordering(overhead_results):
    with criterion("maximum claim (>=50% broker 0-RTT) and profile ordering"):
        results, _ = overhead_results
        broker_0rtt = {
            profile: results[profile].data["reductions_pct"]["quic0rtt"]["broker"]
            for profile in results
        }
        assert max(broker_0rtt.values()) >= 50.0, broker_0rtt
        assert broker_0rtt["wireless"] > broker_0rtt["long_distance"] > \
            broker_0rtt["wired"], broker_0rtt


def test_head_of_line_blocking(hol_results):
    with criterion("head-of-line: QUIC < TCP at every rate, monotone improvement"):
        for profile, runs in hol_results.items():
            imps = []
            for res in runs:
                data = res.data
                assert data["quic_mean_us"] < data["tcp_mean_us"], (
                    profile, res.config["drop_rate"])
                imps.append(data["improvement_pct"])
            assert imps[0] > imps[1] > imps[2], (profile, imps)


def test_stream_isolation_exact():
    with criterion("stream isolation (clean stream equals lossless, 0 tolerance)"):
        res = bench_stream_isolation("wired", drop_rate=10, messages=100, seed=0)
        assert res.data["clean_stream_identical"] is True
        assert res.data["clean_stream_latencies_us"] == \
            res.data["lossless_latencies_us"]


def test_half_open_reclamation():
    with criterion("half-open reclamation within 60 s; TCP baseline retains 100"):
        res = bench_half_open("wired", publishers=10, conns=100,
                              restart_at=30.0, horizon=120.0, seed=0)
        data = res.data
        assert data["peak_connections"] == 100
        assert data["reclaim_after_restart_s"] is not None
        assert data["reclaim_after_restart_s"] <= 60.0
        restart = res.config["restart_at_s"]
        for t, count in data["tcp_state_series"]:
            if t >= restart:
                assert count == 100  # keep-alive disabled: horizon-long leak
        # Re-enabling keep-alive lets the baseline drain as well.
        assert data["tcp_state_series_keepalive"][-1][1] == 0


def test_connection_migration():
    with criterion("migration: 0 re-handshakes, constant cid, gap <= 1 RTT"):
        res = bench_migrate("wired", changes=3, interval=300.0, duration=960.0,
                            publish_interval=1.0, seed=0)
        data = res.data
        assert data["handshake_packets_after_setup"] == 0
        assert data["migrations_observed"] == 3
        assert data["cids_at_server"] == 2  # one per client, none re-created
        extra_gap = data["max_delivery_gap_s"] - res.config["publish_interval_s"]
        assert extra_gap <= data["rtt_s"] + 1e-6
        assert data["tcp_reestablishments"] >= res.config["changes"]
        assert len(data["tcp_zero_windows"]) == res.config["changes"]


def test_crypto_property_suite(tmp_path):
    with criterion("crypto property suite"):
        rng = Random(2024)
        # AEAD roundtrip + tamper rejection, 1000 random cases.
        for i in range(1000):
            key, nonce = rng.randbytes(16), rng.randbytes(12)
            header, m = rng.randbytes(rng.randrange(1, 24)), rng.randbytes(rng.randrange(0, 64))
            sealed = crypto.aead_seal(key, nonce, header, m)
            assert crypto.aead_open(key, nonce, header, sealed) == m
            corrupt = bytearray(sealed)
            corrupt[rng.randrange(len(corrupt))] ^= 1 << rng.randrange(8)
            assert crypto.aead_open(key, nonce, header, bytes(corrupt)) is None
        # Signature scheme correctness, 100 cases.
        pair = crypto.kg(128, rng=Random(1))
        for _ in range(100):
            m = rng.randbytes(rng.randrange(0, 128))
            assert crypto.ver(pair.pk, m, crypto.sign(pair.sk, m))
        # DH symmetry, 100 cases.
        for _ in range(100):
            a = crypto.dh_keypair(1, rng)
            b = crypto.dh_keypair(1, rng)
            assert crypto.dh_shared(a, b.public) == crypto.dh_shared(b, a.public)
        # Expansion prefix property and the frozen independent-oracle vector.
        assert crypto.extract_expand(b"\x00" * 32, b"\x00" * 20, 0, b"", 40, 1) == \
            bytes.fromhex("658a83de06424757294593fcbcaf224c959e1907a2e06d1493a6"
                          "9b2226eba370a7c3f5e2b7cf0133")
        for _ in range(50):
            ipm, nonc = rng.randbytes(32), rng.randbytes(20)
            cid, m = rng.getrandbits(64), rng.randbytes(16)
            l1, l2 = sorted((rng.randrange(0, 96), rng.randrange(0, 96)))
            long_out = crypto.extract_expand(ipm, nonc, cid, m, l2, 1)
            assert crypto.extract_expand(ipm, nonc, cid, m, l1, 1) == long_out[:l1]
        # ik and k byte-equality on every completed handshake (1-RTT and 0-RTT).
        _assert_key_agreement_over_handshakes(str(tmp_path / "hs-sessions"))
        # Strike-register replay rejection.
        identity = ServerIdentity.create(now=1000.0, rng=Random(3))
        nonc = (1000).to_bytes(4, "big") + rng.randbytes(20)
        identity.strike.check(nonc, 1000.0)
        identity.strike.seen.add(nonc)
        with pytest.raises(HandshakeError):
            identity.strike.check(nonc, 1000.0)
        # IV reuse is refused locally.
        from quicmq.connection import Connection, TransportConfig, TransportError
        conn = Connection("client", 5, ("1.1.1.1", 1), ("2.2.2.2", 2),
                          TransportConfig(), lambda: 0.0, lambda d, f: None,
                          lambda e: None, rng=Random(4))
        conn.ik = crypto.split_keys(rng.randbytes(40))
        conn.send_stream(3, b"x")
        conn.flush()
        assert conn.take_outputs()
        conn.next_sqn -= 1
        conn.send_stream(3, b"x")
        with pytest.raises(TransportError):
            conn.flush()


def _assert_key_agreement_over_handshakes(state_dir: str):
    identity = ServerIdentity.create(now=0.0, rng=Random(11))

    def one_handshake(seed, expect_path):
        net = SimNetwork(SimConfig(delay_ms=0.5), seed=seed)
        server = ServerAgent(net, ("10.0.0.1", 4433), identity, rng=Random(seed))
        client = ClientAgent(net, ("10.0.0.9", 40000 + seed), ("10.0.0.1", 4433),
                             "agreement", server_pk=identity.sign_pair.pk,
                             rng=Random(seed * 13 + 1), state_dir=state_dir)
        path = client.connect_mqtt()
        net.run(until_s=3.0)
        assert client.connected
        assert path == expect_path
        server_conn = next(iter(server.conns.values())).conn
        assert client.conn.ik is not None and client.conn.k is not None
        assert client.conn.ik == server_conn.ik
        assert client.conn.k == server_conn.k

    one_handshake(1, "1rtt")  # cold: full 1-RTT
    for seed in (2, 3, 4, 5):  # warm session file: resumptions at 0-RTT
        one_handshake(seed, "0rtt")


def test_0rtt_semantics(tmp_path):
    with criterion("0-RTT semantics: first-flight CONNECT, transparent fallback"):
        identity = ServerIdentity.create(now=0.0, rng=Random(42))
        state = str(tmp_path / "sessions")

        def run_once(seed, port, clock_start_s=0.0):
            net = SimNetwork(SimConfig(delay_ms=0.2), seed=seed)
            net.clock.now_us = int(clock_start_s * 1e6)
            server = ServerAgent(net, ("10.0.0.1", 4433), identity, rng=Random(seed))
            client = ClientAgent(net, ("10.0.0.9", port), ("10.0.0.1", 4433),
                                 "acceptance", server_pk=identity.sign_pair.pk,
                                 rng=Random(seed * 7 + 5), state_dir=state)
            path = client.connect_mqtt()
            net.run(until_s=clock_start_s + 3.0)
            sends = [ev.annotation for ev in net.trace if ev.event == "send"]
            first_flight_times = [ev.time_us for ev in net.trace if ev.event == "send"]
            return client, path, sends, net

        # Cold start: 1-RTT.
        client, path, sends, _ = run_once(1, 50001)
        assert path == "1rtt" and sends[0] == "chlo_inchoate" and client.connected

        # Warm session file: the CONNECT rides in the first flight.
        client, path, sends, net = run_once(2, 50002)
        assert path == "0rtt" and client.connected
        assert sends[0] == "chlo_full"
        assert sends[1].startswith("data")
        first_two = [ev for ev in net.trace if ev.event == "send"][:2]
        assert first_two[0].time_us == first_two[1].time_us  # same flight

        # Expired scfg: the run transparently completes via 1-RTT, visible
        # from the first datagram type in the trace.
        expired_at = identity.scfg.expy + 5.0
        identity.rotate_scfg(expired_at, Random(77))
        client, path, sends, _ = run_once(3, 50003, clock_start_s=expired_at)
        assert path == "1rtt" and sends[0] == "chlo_inchoate"
        assert client.connected


def test_benchmark_determinism(tmp_path):
    with criterion("benchmark determinism (byte-identical JSON on rerun)"):
        def pairs():
            yield lambda d: bench_conn_overhead(
                "wired", mode=None, iterations=3, seed=9, state_dir=d)
            yield lambda d: bench_hol("wired", drop_rate=20, streams=2,
                                      messages=80, seed=9)
            yield lambda d: bench_half_open("wired", publishers=2, conns=10,
                                            restart_at=5.0, horizon=60.0, seed=9)
            yield lambda d: bench_migrate("wired", changes=2, interval=20.0,
                                          duration=60.0, seed=9)
        for i, make in enumerate(pairs()):
            a = make(str(tmp_path / f"a{i}"))
            b = make(str(tmp_path / f"b{i}"))
            assert a.to_json() == b.to_json(), a.scenario
            assert a.series_rows() == b.series_rows(), a.scenario
