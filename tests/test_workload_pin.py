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
                   "de043cfce16120fc11eea84a1f005712d7e0038f8201426c0c02628e58df8bac"),
    "fleet": ((174, 174, 6708, 41, 0, 51663, 582, 174, 69600, 0),
              "2e121dfa70edac941e80ba73a573491e992ace1aa750e82568bf29baab9dc248"),
    "churn": ((30, 30, 1171, 35, 0, 106438, 383, 30, 12000, 0),
              "206470c9c97ad4d9cb9ecefcaacc2272c44bdcd7ad5e04aa7c1d82d5b5172dab"),
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
