"""Command-line entry points: a broker, publisher, and subscriber over real
UDP for manual runs, plus the four simulator benchmarks with JSON/CSV
output.

Exit codes: 0 on success, 1 on scenario failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys

from .agents import ClientAgent, ServerAgent
from .bench import (
    BenchError,
    bench_conn_overhead,
    bench_half_open,
    bench_hol,
    bench_migrate,
    bench_stream_isolation,
)
from .connection import IDLE_TIMEOUT_S
from .handshake import ServerIdentity
from .mqtt import Broker
from .netsim import PROFILES, write_trace_file
from .udprun import UdpNetwork


def _addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit() or int(port) > 0xFFFF:
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quicmq",
                                     description="MQTT over a QUIC-style transport")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--state-dir", default=None,
                       help="broker: persistent sessions; "
                            "client: the session file for 0-RTT resumption")
        p.add_argument("--trace", default=None, help="write a datagram trace file")

    broker = sub.add_parser("broker", help="run a broker on a real UDP socket")
    common(broker)
    broker.add_argument("--listen", type=_addr, default=("127.0.0.1", 4433))
    broker.add_argument("--key-file", default=None,
                        help="where to write the broker public key (hex)")
    broker.add_argument("--run-for", type=float, default=None,
                        help="stop after this many seconds (default: forever)")

    pub = sub.add_parser("pub", help="publish messages over real UDP")
    common(pub)
    pub.add_argument("--broker", type=_addr, default=("127.0.0.1", 4433))
    pub.add_argument("--key-file", required=True, help="broker public key file")
    pub.add_argument("--topic", required=True)
    pub.add_argument("--count", type=int, default=1)
    pub.add_argument("--interval", type=float, default=0.1)
    pub.add_argument("--payload", default="hello")
    pub.add_argument("--qos", type=int, choices=(0, 1), default=0)
    pub.add_argument("--retain", action="store_true")
    pub.add_argument("--client-id", default="quicmq-pub")

    subc = sub.add_parser("sub", help="subscribe and print deliveries over real UDP")
    common(subc)
    subc.add_argument("--broker", type=_addr, default=("127.0.0.1", 4433))
    subc.add_argument("--key-file", required=True)
    subc.add_argument("--topic", required=True)
    subc.add_argument("--count", type=int, default=0,
                      help="exit after this many messages (0: run forever)")
    subc.add_argument("--client-id", default="quicmq-sub")
    subc.add_argument("--persist", action="store_true",
                      help="persistent session: subscriptions survive reconnects")
    subc.add_argument("--run-for", type=float, default=None)

    bench = sub.add_parser("bench", help="run a benchmark scenario on the simulator")
    bench_sub = bench.add_subparsers(dest="scenario", required=True)

    def bench_common(p):
        p.add_argument("--profile", default="wired", choices=tuple(PROFILES))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trace", dest="trace_path", default=None,
                       help="write the datagram trace of the world the result reports")
        p.add_argument("--json", dest="json_path", default=None)
        p.add_argument("--csv", dest="csv_path", default=None)

    conn_p = bench_sub.add_parser("conn-overhead")
    bench_common(conn_p)
    conn_p.add_argument("--mode", choices=("tcp", "quic1rtt", "quic0rtt", "all"),
                      default="all")
    conn_p.add_argument("--iterations", type=int, default=10)
    conn_p.add_argument("--experiments", type=int, default=10)

    hol = bench_sub.add_parser("hol")
    bench_common(hol)
    hol.add_argument("--drop-rate", type=int, choices=(10, 20, 50), default=10)
    hol.add_argument("--streams", type=int, default=2)
    hol.add_argument("--messages", type=int, default=200)
    hol.add_argument("--isolation", action="store_true",
                     help="run the stream-isolation variant instead")

    half = bench_sub.add_parser("half-open")
    bench_common(half)
    half.add_argument("--publishers", type=int, default=10)
    half.add_argument("--conns", type=int, default=100)
    half.add_argument("--restart-at", type=float, default=30.0)
    half.add_argument("--horizon", type=float, default=120.0)

    mig = bench_sub.add_parser("migrate")
    bench_common(mig)
    mig.add_argument("--changes", type=int, default=3)
    mig.add_argument("--interval", type=float, default=300.0)
    mig.add_argument("--duration", type=float, default=960.0)
    mig.add_argument("--publish-interval", type=float, default=1.0)

    return parser


# ---------------------------------------------------------------------------
# Real-UDP endpoints
# ---------------------------------------------------------------------------

def cmd_broker(args) -> int:
    net = UdpNetwork(trace_path=args.trace)
    identity = ServerIdentity.create(now=net.clock.now_s)
    broker = Broker(state_dir=args.state_dir)
    try:
        agent = ServerAgent(net, args.listen, identity, broker=broker)
    except OSError as e:
        print(f"bind failed: {e}", file=sys.stderr)
        return 1
    key_file = args.key_file
    if key_file is None and args.state_dir:
        key_file = f"{args.state_dir}/broker.pk"
    if key_file:
        with open(key_file, "w", encoding="utf-8") as f:
            f.write(identity.sign_pair.pk.hex() + "\n")
    print(f"broker listening on {args.listen[0]}:{args.listen[1]}")
    try:
        net.run(until_s=args.run_for)
    except KeyboardInterrupt:
        pass
    # Tell every client the broker is gone, so none is left half-open
    # until its idle timeout.
    agent.shutdown()
    net.write_trace()
    return 0


# The MQTT keep-alive of the real-UDP clients: a PINGREQ every third of the
# transport's idle timeout keeps a quiet connection from idling out.
CLIENT_KEEPALIVE_S = int(IDLE_TIMEOUT_S // 3)


def _load_key(path: str) -> bytes | None:
    """The broker public key, hex, in ``path``; None, reported, if unreadable or not hex."""
    try:
        with open(path, encoding="utf-8") as f:
            return bytes.fromhex(f.read().strip())
    except (OSError, ValueError) as e:
        print(f"bad key file {path}: {e}", file=sys.stderr)
        return None


def _handshake_failed(agent: ClientAgent) -> bool:
    if agent.failure is not None:
        print(f"handshake failed: {agent.failure}", file=sys.stderr)
    return agent.failure is not None


def cmd_pub(args) -> int:
    server_pk = _load_key(args.key_file)
    if server_pk is None:
        return 1
    net = UdpNetwork(trace_path=args.trace)
    done = {"sent": 0, "closed": False}

    def on_connected(agent):
        def publish_next():
            if done["sent"] >= args.count:
                agent.disconnect()
                return
            agent.publish(args.topic, args.payload.encode(), qos=args.qos,
                          retain=args.retain)
            done["sent"] += 1
            net.schedule(args.interval, publish_next)
        publish_next()

    try:
        agent = ClientAgent(net, ("0.0.0.0", 0), args.broker, args.client_id,
                            server_pk=server_pk,
                            state_dir=args.state_dir,
                            keepalive=CLIENT_KEEPALIVE_S,
                            on_connected=on_connected,
                            on_closed=lambda a, r: done.__setitem__("closed", True))
    except OSError as e:
        print(f"bind failed: {e}", file=sys.stderr)
        return 1
    agent.local_addr = net.local_address()
    path = agent.connect_mqtt()
    print(f"handshake path: {path}")
    net.run(until_s=30.0 + args.count * args.interval,
            stop=lambda: done["closed"])
    net.write_trace()
    if _handshake_failed(agent):
        return 1
    if done["sent"] < args.count:
        print(f"only published {done['sent']}/{args.count}", file=sys.stderr)
        return 1
    return 0


def cmd_sub(args) -> int:
    server_pk = _load_key(args.key_file)
    if server_pk is None:
        return 1
    net = UdpNetwork(trace_path=args.trace)
    state = {"got": 0, "closed": False}

    def on_message(agent, msg):
        print(f"{msg.topic} {msg.payload.decode(errors='replace')}", flush=True)
        state["got"] += 1
        if args.count and state["got"] >= args.count:
            agent.disconnect()

    try:
        agent = ClientAgent(net, ("0.0.0.0", 0), args.broker, args.client_id,
                            server_pk=server_pk, state_dir=args.state_dir,
                            persistent=args.persist,
                            keepalive=CLIENT_KEEPALIVE_S,
                            on_connected=lambda a: a.subscribe(
                                args.topic, qos=1 if args.persist else 0),
                            on_message=on_message,
                            on_closed=lambda a, r: state.__setitem__("closed", True))
    except OSError as e:
        print(f"bind failed: {e}", file=sys.stderr)
        return 1
    agent.local_addr = net.local_address()
    agent.connect_mqtt()
    net.run(until_s=args.run_for, stop=lambda: state["closed"])
    net.write_trace()
    if _handshake_failed(agent) or (args.count and state["got"] < args.count):
        return 1
    return 0


# ---------------------------------------------------------------------------
# Benchmarks
# ---------------------------------------------------------------------------

def cmd_bench(args) -> int:
    try:
        if args.scenario == "conn-overhead":
            mode = None if args.mode == "all" else args.mode
            result = bench_conn_overhead(args.profile, mode, args.iterations,
                                         args.seed, experiments=args.experiments)
        elif args.scenario == "hol":
            if args.isolation:
                result = bench_stream_isolation(args.profile, args.drop_rate,
                                                args.messages, args.seed)
            else:
                result = bench_hol(args.profile, args.drop_rate, args.streams,
                                   args.messages, args.seed)
        elif args.scenario == "half-open":
            result = bench_half_open(args.profile, args.publishers, args.conns,
                                     args.restart_at, args.horizon, args.seed)
        elif args.scenario == "migrate":
            result = bench_migrate(args.profile, args.changes, args.interval,
                                   args.duration, args.publish_interval, args.seed)
        else:
            return 2
    except BenchError as e:
        print(f"scenario failed: {e}", file=sys.stderr)
        return 1
    if args.trace_path:
        write_trace_file(result.trace, args.trace_path)
    if args.json_path:
        result.write_json(args.json_path)
    if args.csv_path:
        result.write_csv(args.csv_path)
    sys.stdout.write(result.to_json())
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "broker":
        return cmd_broker(args)
    if args.command == "pub":
        return cmd_pub(args)
    if args.command == "sub":
        return cmd_sub(args)
    if args.command == "bench":
        return cmd_bench(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
