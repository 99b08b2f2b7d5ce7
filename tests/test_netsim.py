import pytest

from quicmq.netsim import PROFILES, NetsimError, SimConfig, SimNetwork, write_trace_file


def make_net(config=None, seed=0):
    net = SimNetwork(config or SimConfig(delay_ms=1.0), seed=seed)
    inbox = {}

    def register(addr):
        inbox[addr] = []
        net.register(addr, lambda payload, src, a=addr: inbox[a].append((payload, src)))

    return net, inbox, register


def test_lossless_delivery_in_order():
    net, inbox, register = make_net()
    a, b = ("10.0.0.1", 1000), ("10.0.0.2", 2000)
    register(a)
    register(b)
    for i in range(5):
        net.send(bytes([i]), a, b)
    net.run()
    assert [p for p, _ in inbox[b]] == [bytes([i]) for i in range(5)]
    assert all(src == a for _, src in inbox[b])


def test_drop_every_n_pattern():
    net, inbox, register = make_net()
    net.add_periodic_drop(lambda *a: True, 10)
    a, b = ("10.0.0.1", 1000), ("10.0.0.2", 2000)
    register(a)
    register(b)
    for i in range(1, 31):
        net.send(i.to_bytes(1, "big"), a, b)
    net.run()
    delivered = {p[0] for p, _ in inbox[b]}
    assert delivered == set(range(1, 31)) - {10, 20, 30}


def test_periodic_drop_refuses_a_zero_period():
    net, inbox, register = make_net()
    with pytest.raises(NetsimError):
        net.add_periodic_drop(lambda *a: True, 0)
    a, b = ("10.0.0.1", 1000), ("10.0.0.2", 2000)
    register(a)
    register(b)
    for i in range(20):
        net.send(b"x", a, b)
    net.run()
    assert len(inbox[b]) == 20


def test_two_flows_independent_counters():
    # Hand-enumerated schedule for 8 datagrams, two interleaved flows, n=2:
    # flow A sends A1 A2 A3 A4, flow B sends B1 B2 B3 B4, interleaved
    # A1 B1 A2 B2 A3 B3 A4 B4. Per-flow counters drop each flow's 2nd and
    # 4th datagram: A2, A4, B2, B4.
    net, inbox, register = make_net()
    net.add_periodic_drop(lambda *a: True, 2)
    a, b = ("10.0.0.1", 1000), ("10.0.0.2", 2000)
    sink = ("10.0.0.3", 3000)
    register(a)
    register(b)
    register(sink)
    for i in range(1, 5):
        net.send(f"A{i}".encode(), a, sink)
        net.send(f"B{i}".encode(), b, sink)
    net.run()
    delivered = sorted(p.decode() for p, _ in inbox[sink])
    assert delivered == ["A1", "A3", "B1", "B3"]


def test_determinism_identical_traces():
    def run_once():
        net, inbox, register = make_net(SimConfig(delay_ms=2.0, loss_rate=0.3), seed=77)
        a, b = ("10.0.0.1", 1), ("10.0.0.2", 2)
        register(a)
        register(b)
        for i in range(50):
            net.send(bytes([i]), a, b)
        net.run()
        return [ev.line() for ev in net.trace]

    assert run_once() == run_once()


def test_conservation_every_send_delivered_or_dropped():
    net, inbox, register = make_net(SimConfig(delay_ms=1.0, loss_rate=0.5), seed=3)
    a, b = ("10.0.0.1", 1), ("10.0.0.2", 2)
    register(a)
    register(b)
    for i in range(100):
        net.send(bytes([i]), a, b)
    net.run()
    sends = sum(1 for ev in net.trace if ev.event == "send")
    delivers = sum(1 for ev in net.trace if ev.event == "deliver")
    drops = sum(1 for ev in net.trace if ev.event == "drop")
    assert sends == 100
    assert delivers + drops == 100
    assert len(inbox[b]) == delivers


def test_clock_causality():
    net, inbox, register = make_net(SimConfig(delay_ms=5.0))
    a, b = ("10.0.0.1", 1), ("10.0.0.2", 2)
    register(a)
    register(b)
    net.send(b"x", a, b)
    net.run()
    send_ev = next(ev for ev in net.trace if ev.event == "send")
    deliver_ev = next(ev for ev in net.trace if ev.event == "deliver")
    assert deliver_ev.time_us == send_ev.time_us + 5000


def test_unregistered_sender_errors():
    net, inbox, register = make_net()
    with pytest.raises(NetsimError):
        net.send(b"x", ("1.2.3.4", 5), ("10.0.0.2", 2))


def test_change_address_relabels_future_traffic():
    net, inbox, register = make_net(SimConfig(delay_ms=1.0))
    a, b = ("10.0.0.1", 1000), ("10.0.0.2", 2000)
    a2 = ("192.168.1.9", 1000)
    register(a)
    register(b)
    net.send(b"before", a, b)
    net.run()
    net.change_address(a, a2)
    net.send(b"after", a2, b)
    net.run()
    assert inbox[b][0][1] == a
    assert inbox[b][1][1] == a2


def test_change_address_in_flight_keeps_old_source():
    net, inbox, register = make_net(SimConfig(delay_ms=10.0))
    a, b = ("10.0.0.1", 1000), ("10.0.0.2", 2000)
    register(a)
    register(b)
    net.send(b"launched", a, b)  # in flight across the change
    net.change_address(a, ("10.9.9.9", 1000))
    net.run()
    assert inbox[b] == [(b"launched", a)]


def test_change_address_without_traffic_is_invisible_to_peer():
    net, inbox, register = make_net()
    a, b = ("10.0.0.1", 1), ("10.0.0.2", 2)
    register(a)
    register(b)
    net.change_address(a, ("10.0.0.5", 1))
    net.run()
    assert inbox[b] == []


def test_change_address_collision_errors():
    net, inbox, register = make_net()
    a, b = ("10.0.0.1", 1), ("10.0.0.2", 2)
    register(a)
    register(b)
    with pytest.raises(NetsimError):
        net.change_address(a, b)


def test_delivery_to_vacated_address_is_dropped():
    net, inbox, register = make_net(SimConfig(delay_ms=1.0))
    a, b = ("10.0.0.1", 1), ("10.0.0.2", 2)
    register(a)
    register(b)
    net.send(b"x", a, b)
    net.change_address(b, ("10.0.0.3", 2))
    net.run()
    assert any(ev.event == "drop" for ev in net.trace)


def test_periodic_drop_with_predicate():
    net, inbox, register = make_net()
    a, b = ("10.0.0.1", 1), ("10.0.0.2", 2)
    register(a)
    register(b)
    net.add_periodic_drop(lambda src, dst, size, ann: "red" in ann, 2)
    for i in range(1, 5):
        net.send(b"r", a, b, annotation="red")
        net.send(b"g", a, b, annotation="green")
    net.run()
    reds = sum(1 for p, _ in inbox[b] if p == b"r")
    greens = sum(1 for p, _ in inbox[b] if p == b"g")
    assert reds == 2  # 2nd and 4th red dropped
    assert greens == 4


def test_timers_fire_in_order_and_cancel():
    net, inbox, register = make_net()
    fired = []
    net.schedule(0.5, lambda: fired.append("late"))
    net.schedule(0.1, lambda: fired.append("early"))
    t = net.schedule(0.3, lambda: fired.append("cancelled"))
    t.cancel()
    net.run()
    assert fired == ["early", "late"]
    assert net.clock.now_s == pytest.approx(0.5)


def test_run_until_stops_clock():
    net, inbox, register = make_net()
    fired = []
    net.schedule(2.0, lambda: fired.append(1))
    net.run(until_s=1.0)
    assert not fired
    assert net.clock.now_s == pytest.approx(1.0)
    net.run()
    assert fired == [1]


def test_trace_export_format(tmp_path):
    net, inbox, register = make_net(SimConfig(delay_ms=1.0))
    a, b = ("10.0.0.1", 1000), ("10.0.0.2", 2000)
    register(a)
    register(b)
    net.send(b"abc", a, b, annotation="data s3")
    net.run()
    path = tmp_path / "trace.tsv"
    write_trace_file(net.trace, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "0\tsend\t10.0.0.1:1000>10.0.0.2:2000\t3\tdata s3"
    assert lines[1].startswith("1000\tdeliver\t")


def test_profiles_exist():
    assert set(PROFILES) == {"wired", "wireless", "long_distance"}
    assert PROFILES["wired"].loss_rate == 0.0
    assert PROFILES["wireless"].delay_ms > PROFILES["wired"].delay_ms
    assert PROFILES["long_distance"].delay_ms > PROFILES["wireless"].delay_ms
