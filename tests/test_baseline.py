import pytest

from quicmq.baseline import (
    BaselineError,
    half_open_series,
    hol_latency_trace,
    migration_model,
    run_tcp_ladders,
)
from quicmq.netsim import SimConfig, SimNetwork

# The reduction table implies these baseline counts exactly: the subscriber
# and publisher ladders were enumerated by hand to match (subscriber 19,
# publisher 15, broker = both sides = 34).
GOLDEN_COUNTS = {"publisher": 15, "subscriber": 19, "broker": 34}

# QUIC-side golden ladder lengths, frozen from the deterministic wired runs.
QUIC_COUNTS = {
    "quic1rtt": {"publisher": 10, "subscriber": 12, "broker": 22},
    "quic0rtt": {"publisher": 8, "subscriber": 10, "broker": 18},
}

REFERENCE_WIRED_REDUCTIONS = {
    "quic1rtt": {"subscriber": 36.84, "publisher": 33.33, "broker": 35.29},
    "quic0rtt": {"subscriber": 47.36, "publisher": 46.66, "broker": 47.05},
}


def test_ladder_reductions_reproduce_reference_table():
    for mode, per_role in REFERENCE_WIRED_REDUCTIONS.items():
        for role, expected in per_role.items():
            tcp = GOLDEN_COUNTS[role]
            quic = QUIC_COUNTS[mode][role]
            got = 100.0 * (tcp - quic) / tcp
            assert got == pytest.approx(expected, abs=0.02)


def test_ladders_replayed_through_sim_are_trace_derived():
    net = SimNetwork(SimConfig(delay_ms=0.2), seed=1)
    run_tcp_ladders(net, ("10.0.0.1", 4433),
                    [(("10.0.0.2", 1), "publisher"), (("10.0.0.3", 2), "subscriber")])
    assert net.count_for_role("10.0.0.2") == GOLDEN_COUNTS["publisher"]
    assert net.count_for_role("10.0.0.3") == GOLDEN_COUNTS["subscriber"]
    assert net.count_for_role("10.0.0.1") == GOLDEN_COUNTS["broker"]


def test_ladder_loss_recovery_adds_packets():
    # Deterministic drop of every 5th datagram of the publisher flow: each
    # loss event costs a probe, a spurious crossed retransmission, the
    # retransmission itself, and its ack.
    net = SimNetwork(SimConfig(delay_ms=0.2), seed=1)
    net.add_periodic_drop(lambda *a: True, 5)
    run_tcp_ladders(net, ("10.0.0.1", 4433), [(("10.0.0.2", 1), "publisher")])
    assert net.count_for_role("10.0.0.2") > 15
    sends = sum(1 for ev in net.trace if ev.event == "send")
    drops = sum(1 for ev in net.trace if ev.event == "drop")
    delivers = sum(1 for ev in net.trace if ev.event == "deliver")
    assert delivers + drops == sends


# ---------------------------------------------------------------------------
# Head-of-line latency model
# ---------------------------------------------------------------------------


def test_hol_lossless_latency_is_two_hops():
    out = hol_latency_trace(10, 1.0, 0.1, 0, 3.0)
    assert out == [pytest.approx(0.2)] * 10


def test_hol_drop_delays_later_messages():
    # Hand-enumerated: M=5, T=1, D=0.1, n=2, RTO=3.
    # msg2 drops: arrives 2+3+0.1=5.1; msg3 arrives 3.1 but is held to 5.1.
    out = hol_latency_trace(5, 1.0, 0.1, 2, 3.0)
    assert out == [pytest.approx(v) for v in (0.2, 3.2, 2.2, 3.2, 2.2)]


def test_hol_mean_grows_with_drop_rate():
    import statistics
    means = [statistics.mean(hol_latency_trace(100, 1.0, 0.1, n, 5.0))
             for n in (10, 5, 2)]
    assert means[0] < means[1] < means[2]


def test_hol_rejects_bad_drop_interval():
    with pytest.raises(BaselineError):
        hol_latency_trace(5, 1.0, 0.1, 1, 3.0)


# ---------------------------------------------------------------------------
# Half-open state series
# ---------------------------------------------------------------------------


def test_half_open_without_keepalive_never_drains():
    series = half_open_series(100, restart_at_s=30, horizon_s=120)
    assert series[0] == (0.0, 100)
    assert all(count == 100 for _, count in series)


def test_half_open_with_keepalive_drains():
    series = half_open_series(100, restart_at_s=30, horizon_s=120, keepalive_s=20)
    by_t = dict(series)
    assert by_t[30.0] == 100
    assert by_t[59.0] == 100  # death only detectable after 1.5 keep-alives
    assert by_t[60.0] == 0
    assert series[-1][1] == 0


# ---------------------------------------------------------------------------
# Migration model
# ---------------------------------------------------------------------------


def test_migration_model_reestablishes_per_change():
    model = migration_model(960.0, 300.0, 1.0, rtt_s=0.1)
    assert model.reestablishments == 3
    assert len(model.zero_windows) == 3
    assert model.zero_windows[0][0] == 300.0
    assert model.max_gap_s > 1.0  # outage adds a visible delivery gap


def test_migration_model_zero_window_has_no_deliveries():
    model = migration_model(100.0, 40.0, 1.0, rtt_s=2.0)
    thr = dict(model.throughput)
    # Deliveries pause during each 3-RTT re-establishment window.
    assert thr[41.0] == 0
    delivered = sum(v for v in thr.values())
    assert delivered > 0
