"""Shared harness: drives raw Connections over the simulator the same way
the agents do, with captured datagrams and events for inspection."""

from random import Random

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from quicmq import connection
from quicmq.connection import Connection
from quicmq.handshake import ServerIdentity
from quicmq.netsim import SimConfig, SimNetwork
from quicmq.wire import EPOCH_CLEAR, WireError, decode_header

SERVER_ADDR = ("10.0.0.1", 4433)
CLIENT_ADDR = ("10.0.0.2", 50000)


class ConnEndpoint:
    """One side of a connection test: owns connections, pumps their output
    onto the network, and records everything."""

    def __init__(self, net, addr, role, identity=None, server_pk=None,
                 rng_seed=1, session=None):
        self.net = net
        self.addr = addr
        self.role = role
        self.identity = identity
        self.server_pk = server_pk
        self.rng = Random(rng_seed)
        self.session = session
        self.conns: dict[int, Connection] = {}
        self.events: list[tuple[int, object]] = []
        self.sent: list[tuple[bytes, str]] = []
        net.register(addr, self.on_datagram)

    def make_client(self, peer=SERVER_ADDR, cid=None) -> Connection:
        cid = cid if cid is not None else self.rng.getrandbits(64)
        conn = Connection(
            "client", cid, self.addr, peer,
            clock=lambda: self.net.clock.now_s,
            scheduler=self._scheduler(cid), on_event=self._sink(cid),
            rng=self.rng, server_pk=self.server_pk, session=self.session,
        )
        self.conns[cid] = conn
        return conn

    def _scheduler(self, cid):
        def schedule(delay_s, fn):
            def wrapped():
                fn()
                self.pump(cid)
            return self.net.schedule(delay_s, wrapped)
        return schedule

    def _sink(self, cid):
        def sink(event):
            self.events.append((cid, event))
        return sink

    def on_datagram(self, data, src):
        try:
            header = decode_header(data)
        except WireError:
            return
        conn = self.conns.get(header.cid)
        if conn is None:
            if self.role != "server" or header.epoch != EPOCH_CLEAR:
                return
            conn = Connection(
                "server", header.cid, self.addr, src,
                clock=lambda: self.net.clock.now_s,
                scheduler=self._scheduler(header.cid),
                on_event=self._sink(header.cid),
                rng=self.rng, identity=self.identity,
            )
            self.conns[header.cid] = conn
        conn.handle_datagram(data, src)
        self.pump(header.cid)

    def pump(self, cid):
        conn = self.conns.get(cid)
        if conn is None:
            return
        conn.flush()
        for packet, annotation in conn.take_outputs():
            self.sent.append((packet, annotation))
            self.net.send(packet, self.addr, conn.peer_addr, annotation)

    def only_conn(self) -> Connection:
        assert len(self.conns) == 1
        return next(iter(self.conns.values()))

    def events_of(self, kind):
        return [ev for _, ev in self.events if isinstance(ev, kind)]


@pytest.fixture
def world():
    """(net, client endpoint, server endpoint, identity) with a wired link."""
    def build(delay_ms=1.0, seed=7, session=None, identity=None, client_seed=12):
        net = SimNetwork(SimConfig(delay_ms=delay_ms), seed=seed)
        identity = identity or ServerIdentity.create(now=0.0, rng=Random(42))
        server = ConnEndpoint(net, SERVER_ADDR, "server", identity=identity, rng_seed=11)
        client = ConnEndpoint(net, CLIENT_ADDR, "client",
                              server_pk=identity.sign_pair.pk,
                              rng_seed=client_seed, session=session)
        return net, client, server, identity
    return build


@pytest.fixture
def windows(monkeypatch):
    """``windows(stream, conn)`` sets the stream and connection receive
    windows, which both ends share, for the rest of the test."""
    def set_windows(stream, conn):
        monkeypatch.setattr(connection, "STREAM_WINDOW", stream)
        monkeypatch.setattr(connection, "CONNECTION_WINDOW", conn)
    return set_windows


@pytest.fixture
def key_builds(monkeypatch):
    """The raw secrets of every X25519 private key built from bytes, in order."""
    built = []
    build = X25519PrivateKey.from_private_bytes

    def counting(data):
        built.append(data)
        return build(data)
    monkeypatch.setattr(X25519PrivateKey, "from_private_bytes", counting)
    return built


@pytest.fixture
def full_chlos(monkeypatch):
    """(server config, secrets) of every full CHLO a client builds, in order:
    the handshake material a connection drops once it is settled."""
    built = []
    build = connection.build_full_chlo

    def recording(cfg, stk, now, rng):
        msg, secrets = build(cfg, stk, now, rng)
        built.append((cfg, secrets))
        return msg, secrets
    monkeypatch.setattr(connection, "build_full_chlo", recording)
    return built
