"""The benchmark's own traffic, pinned: one small round of each perfbench
workload on seed 1, input 0, must reproduce its outcome and the bytes of
every datagram it sends. These rounds reach paths the paper's pinned runs do
not: the broker's fan-out pump order, window updates under loss and 0-RTT
probes. The workloads module is imported as it stands; nothing of it is
changed here."""

import hashlib
import os
import sys

import pytest

from quicmq.netsim import SimNetwork

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)  # workloads imports its sibling hostspeed

import workloads  # noqa: E402

SEED = 1
INPUT = 0

# RoundStats.outcome() and the sha256 of every datagram sent, set-up included.
PINNED = {
    "stream_age": ((300, 300, 119328, 12, 0, 332190, 1211, 300, 194600, 0),
                   "cbeb79a32bc0ef785a6ee221350e6fe086cb4c2f5c4f9505830314de3bec9a99"),
    "fleet": ((174, 174, 6708, 41, 0, 51663, 582, 174, 69600, 0),
              "7d449885950602cb41889110685ff367c7ddddbecf8a7a1180a21ca712c44a9e"),
    "churn": ((30, 30, 1171, 35, 0, 107758, 383, 30, 12000, 0),
              "77df6ff36d22aa7d9f027a0ab64b963e55abb0716e1a94770c8362ee363b39a5"),
}


def make(name):
    if name == "stream_age":
        return workloads.StreamAge(messages=300, probes=10)
    if name == "fleet":
        return workloads.Fleet(devices=40, group_size=10)
    return workloads.Churn(cycles=30)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_workload_round_matches_pinned_traffic(name, tmp_path, monkeypatch):
    datagrams = hashlib.sha256()
    send = SimNetwork.send

    def recording_send(self, payload, *args):
        datagrams.update(payload)
        send(self, payload, *args)
    monkeypatch.setattr(SimNetwork, "send", recording_send)

    workload = make(name)
    workload.prepare(SEED, str(tmp_path))
    stats = workload.round(SEED, INPUT, str(tmp_path), workloads.no_marks)
    assert stats.errors == []
    assert (stats.outcome(), datagrams.hexdigest()) == PINNED[name]
