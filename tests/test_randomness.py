"""Where random bytes come from: the OS generator unless a caller passes a
seeded ``Random``, decided in one place (``crypto.SYSTEM_RNG``)."""

import ast
import os
import random
from pathlib import Path

import quicmq
from quicmq import connection
from quicmq.agents import ClientAgent, ServerAgent
from quicmq.handshake import ServerIdentity
from quicmq.netsim import SimConfig, SimNetwork

BROKER = ("10.0.0.1", 4433)
SRC = Path(quicmq.__file__).parent


def test_unseeded_agents_draw_every_secret_from_the_os(monkeypatch, full_chlos):
    drawn = []

    def urandom(n):
        out = os.urandom(n)
        drawn.append(out)
        return out
    # ``random.SystemRandom`` reads the OS through this module global.
    monkeypatch.setattr(random, "_urandom", urandom)

    rej_stks, shlo_pairs = [], []
    parse_rej = connection.parse_rej
    build_shlo = ServerIdentity.build_shlo

    def record_rej(msg):
        scfg, stk = parse_rej(msg)
        rej_stks.append(stk)
        return scfg, stk

    def record_shlo(self, *args):
        msg, pair = build_shlo(self, *args)
        shlo_pairs.append(pair)
        return msg, pair
    monkeypatch.setattr(connection, "parse_rej", record_rej)
    monkeypatch.setattr(ServerIdentity, "build_shlo", record_shlo)

    net = SimNetwork(SimConfig(delay_ms=0.5), seed=3)
    identity = ServerIdentity.create(now=0.0)
    ServerAgent(net, BROKER, identity)
    client = ClientAgent(net, ("10.0.0.9", 50001), BROKER, "dev1",
                         server_pk=identity.sign_pair.pk)
    assert client.connect_mqtt() == "1rtt"
    net.run(until_s=2.0)
    assert client.connected

    from_os = set(drawn)
    hello = full_chlos[-1][1]
    assert identity.k_stk in from_os
    assert identity.scfg.dh.secret in from_os
    assert client.conn.cid.to_bytes(8, "big") in from_os
    assert [stk[:12] in from_os for stk in rej_stks] == [True]  # the STK's IV
    assert hello.nonc[4:] in from_os  # the nonce after its 4-byte timestamp
    assert hello.dh.secret in from_os
    assert [pair.secret in from_os for pair in shlo_pairs] == [True]


def _is_name(node: ast.AST, name: str) -> bool:
    return ((isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name))


def _second_paths(tree: ast.AST, module: str) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = f"{module}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Import) and any(a.name == "secrets" for a in node.names):
            found.append(f"{where} imports secrets")
        elif isinstance(node, ast.ImportFrom) and node.module == "secrets":
            found.append(f"{where} imports from secrets")
        elif isinstance(node, ast.Call):
            if _is_name(node.func, "Random") and not node.args and not node.keywords:
                found.append(f"{where} builds an unseeded Random()")
            if _is_name(node.func, "SystemRandom") and module != "crypto.py":
                found.append(f"{where} builds a SystemRandom outside crypto.py")
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if (any(_is_name(o, "rng") for o in operands)
                    and any(isinstance(o, ast.Constant) and o.value is None
                            for o in operands)):
                found.append(f"{where} compares rng with None")
    return found


def test_one_source_of_randomness_in_the_package():
    found = []
    system_rngs = 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += _second_paths(tree, path.name)
        if path.name == "crypto.py":
            system_rngs = sum(isinstance(n, ast.Call) and _is_name(n.func, "SystemRandom")
                              for n in ast.walk(tree))
    assert found == []
    assert system_rngs == 1


def test_guard_sees_each_second_path():
    source = (
        "import secrets\n"
        "from random import Random, SystemRandom\n"
        "a = Random()\n"
        "b = SystemRandom()\n"
        "def f(rng=None):\n"
        "    return rng if rng is not None else a\n"
        "def g(self):\n"
        "    return self.rng is None\n"
    )
    found = _second_paths(ast.parse(source), "agents.py")
    assert [line.split(" ", 1)[1] for line in found] == [
        "imports secrets",
        "builds an unseeded Random()",
        "builds a SystemRandom outside crypto.py",
        "compares rng with None",
        "compares rng with None",
    ]
