"""Benchmark of quicmq's own cost per message and per connect.

Run from the repository root:

    python3 perfbench/run.py --workload stream_age --seed 1 --seconds 35 --trace 0

Durations are read from the process CPU clock (see ``workloads.clock``).
``--trace 0`` measures the end-to-end metrics; the tracer is never
imported. It runs each of the workload's distinct rounds once, then replays
them in turn until ``--seconds`` have passed, and scales every timing by
the host-speed factor measured alongside (see ``hostspeed``). ``--trace 1`` runs each
distinct round once untraced, then again with every layer wrapped in spans,
and reports the per-layer metrics together with the tracing overhead. The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. A fuller record (environment, rounds, every
metric) is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# name, unit, better, bound. Every workload reports every metric.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("msg_rate", "1/s", "higher", 0.25),
    ("goodput_kBps", "kB/s", "higher", 0.25),
    ("deliver_cpu_us.mean", "us", "lower", 0.25),
    ("connect_cpu_us.1rtt.mean", "us", "lower", 0.25),
    ("connect_cpu_us.0rtt.mean", "us", "lower", 0.25),
    ("complete_ratio", "ratio", "higher", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("wire_bytes_per_msg", "B/msg", "lower", 0.15),
    ("datagrams_per_msg", "1/msg", "lower", 0.1),
]

# name, unit. Printed and recorded with the end-to-end metrics, but not part
# of the result line: on a shared host their run-to-run spread comes too
# close to any bound that would still catch a regression.
UNGATED = [
    ("deliver_cpu_us.p95", "us"),
    ("deliver_cpu_us.p99", "us"),
    ("connect_cpu_us.1rtt.p95", "us"),
    ("connect_cpu_us.1rtt.p99", "us"),
    ("connect_cpu_us.0rtt.p95", "us"),
    ("connect_cpu_us.0rtt.p99", "us"),
]

# name, unit, better. Reported by the traced run only.
PER_LAYER = [
    ("connection.handle_datagram.self_us", "us", "lower"),
    ("connection.flush.self_us", "us", "lower"),
    ("connection.self_us_per_packet.q1", "us", "lower"),
    ("connection.self_us_per_packet.q4", "us", "lower"),
    ("connection.rx_sqns_held", "count", "lower"),
    ("connection.retransmits", "count/round", "lower"),
    ("connection.ack_only_ratio", "ratio", "lower"),
    ("connection.stalled_streams", "count", "lower"),
    ("wire.seal.self_us", "us", "lower"),
    ("wire.open.self_us", "us", "lower"),
    ("wire.frames.encode_us", "us", "lower"),
    ("wire.frames.decode_us", "us", "lower"),
    ("wire.header.us", "us", "lower"),
    ("wire.ack_frame_bytes.mean", "B", "lower"),
    ("wire.ack_frame_bytes.max", "B", "lower"),
    ("wire.datagram_bytes.max", "B", "lower"),
    ("wire.over_budget", "count", "lower"),
    ("mqtt.broker.handle_us", "us", "lower"),
    ("mqtt.broker.publish_us.p50", "us", "lower"),
    ("mqtt.broker.publish_us.p99", "us", "lower"),
    ("mqtt.topic_matches.per_publish", "1/publish", "lower"),
    ("mqtt.deliveries_per_publish", "1/publish", "higher"),
    ("mqtt.encode.us", "us", "lower"),
    ("mqtt.decode.us", "us", "lower"),
    ("mqtt.decode.calls_per_msg", "1/msg", "lower"),
    ("mqtt.decode.bytes_per_msg", "B/msg", "lower"),
    ("agents.server.self_us", "us/msg", "lower"),
    ("agents.client.self_us", "us/msg", "lower"),
    ("agents.publish.us", "us", "lower"),
    ("crypto.aead.calls", "1/msg", "lower"),
    ("crypto.aead.us_per_call", "us", "lower"),
    ("crypto.aead_open.fail", "count", "lower"),
    ("crypto.sig.us", "us", "lower"),
    ("crypto.dh.us", "us", "lower"),
    ("crypto.kdf.us", "us", "lower"),
    ("handshake.client.us", "us/connect", "lower"),
    ("handshake.server.us", "us/connect", "lower"),
    ("handshake.rejects", "count", "lower"),
    ("handshake.strike.size", "count", "lower"),
    ("netsim.step.self_us", "us", "lower"),
    ("netsim.events", "1/msg", "lower"),
    ("netsim.timers.cancelled_ratio", "ratio", "lower"),
    ("netsim.queue_depth.max", "count", "lower"),
    ("netsim.trace_len", "count/round", "lower"),
    ("netsim.sim_latency_us.p99", "us", "lower"),
    ("self_share.netsim", "ratio", "lower"),
    ("self_share.agents", "ratio", "lower"),
    ("self_share.mqtt", "ratio", "lower"),
    ("self_share.connection", "ratio", "lower"),
    ("self_share.wire", "ratio", "lower"),
    ("self_share.crypto", "ratio", "lower"),
    ("self_share.handshake", "ratio", "lower"),
    ("trace.overhead.setup_ratio", "ratio", "lower"),
    ("trace.overhead.timed_ratio", "ratio", "lower"),
]


def percentile(values: list[float], p: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def environment(seed: int) -> dict:
    import cryptography

    return {
        "seed": seed,
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as f:
            return f.read().strip()
    except OSError:
        return None


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "quicmq")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------

def run_rounds(workload, seed: int, work_dir: str, seconds: float | None,
               marks=None) -> list:
    """Run each of the workload's ``inputs`` distinct rounds once, then replay
    them in turn until ``seconds`` of wall time have passed since the start;
    ``seconds=None`` runs each exactly once. Round ``k`` has input index
    ``k % inputs``. A replay whose outcome differs from the first run of its
    input is a correctness error."""
    import hostspeed
    from workloads import no_marks

    marks = marks or no_marks
    rounds = []
    start = time.perf_counter()
    while True:
        gc.collect()
        index = len(rounds) % workload.inputs
        since = len(hostspeed.probes)
        stats = workload.round(seed, index, work_dir, marks)
        stats.host_factor = hostspeed.factor(since)
        if len(rounds) >= workload.inputs and stats.outcome() != rounds[index].outcome():
            stats.errors.append(f"replay of round {index} diverged: "
                                f"{stats.outcome()} != {rounds[index].outcome()}")
        rounds.append(stats)
        if len(rounds) >= workload.inputs and (
                seconds is None or time.perf_counter() - start >= seconds):
            return rounds


def per_input_mean(rounds: list, inputs: int, key) -> list[float]:
    """The mean of ``key`` over each input's runs: one value per input."""
    return [statistics.fmean(key(r) for r in rounds[i::inputs]) for i in range(inputs)]


def end_to_end(rounds: list, inputs: int, scaled: bool = True) -> dict[str, float]:
    """Every end-to-end metric. Timings are multiplied by their host factor
    (see ``hostspeed``) unless ``scaled`` is false. Counts come from the
    first run of each input (replays repeat them exactly). Rates divide them
    by the sum over inputs of each input's mean timed phase, so every input
    weighs the same however often it ran.

    Central timings are means: on a host that switches between two speeds,
    whatever the host factor leaves of that moves a mean in proportion to
    the share of slow time, while a median jumps from one speed's value to
    the other's. The tails are p95 and p99 of every sample of the run."""
    import hostspeed

    def k(r) -> float:
        return r.host_factor if scaled else 1.0

    def at(t: float) -> float:
        return hostspeed.factor_at(t) if scaled else 1.0

    first = rounds[:inputs]
    timed_s = sum(per_input_mean(rounds, inputs, lambda r: r.timed_s * k(r)))
    connect = {p: [x * at(t) for r in rounds for x, t in zip(r.connect_us[p], r.connect_at[p])]
               for p in ("1rtt", "0rtt")}
    deliver = [x * at(t) for r in rounds for x, t in zip(r.deliver_us, r.deliver_at)]
    delivered = sum(r.delivered for r in first)
    done = sum(r.delivered + r.connects_attempted - r.connects_failed for r in first)
    owed = sum(r.expected + r.connects_attempted for r in first)
    return {
        "setup_s": statistics.median(r.setup_s * k(r) for r in rounds),
        "msg_rate": delivered / timed_s,
        "goodput_kBps": sum(r.payload_bytes for r in first) / timed_s / 1000.0,
        "deliver_cpu_us.mean": mean(deliver),
        "deliver_cpu_us.p95": percentile(deliver, 95),
        "deliver_cpu_us.p99": percentile(deliver, 99),
        "connect_cpu_us.1rtt.mean": mean(connect["1rtt"]),
        "connect_cpu_us.1rtt.p95": percentile(connect["1rtt"], 95),
        "connect_cpu_us.1rtt.p99": percentile(connect["1rtt"], 99),
        "connect_cpu_us.0rtt.mean": mean(connect["0rtt"]),
        "connect_cpu_us.0rtt.p95": percentile(connect["0rtt"], 95),
        "connect_cpu_us.0rtt.p99": percentile(connect["0rtt"], 99),
        "complete_ratio": done / owed if owed else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wire_bytes_per_msg": sum(r.wire_bytes for r in first) / max(delivered, 1),
        "datagrams_per_msg": sum(r.datagrams for r in first) / max(delivered, 1),
    }


def per_layer(tracer, rounds: list, untraced: list, quarters: dict) -> dict[str, float]:
    from tracer import LAYERS

    T = tracer
    calls, total, self_s = T.calls, T.total_s, T.self_s
    delivered = max(sum(r.delivered for r in rounds), 1)
    connects = max(calls.get("agents.client.connect", 0), 1)
    n = len(rounds)

    def ratio(a, b):
        return a / b if b else 0.0

    def total_of(names):
        return sum(total.get(x, 0.0) for x in names)

    def calls_of(names):
        return sum(calls.get(x, 0) for x in names)

    def layer_sum(key):
        return sum(r.layer.get(key, 0) for r in rounds)

    aead = ("crypto.aead_seal", "crypto.aead_open")
    header = ("wire.header.encode", "wire.header.decode")
    dh = ("crypto.dh.keypair", "crypto.dh.group")
    hs_client = [k for k in total if k.startswith("handshake.client.")]
    hs_server = ("handshake.server.build_rej", "handshake.server.validate_full_chlo",
                 "handshake.server.build_shlo", "handshake.server.derive_k_server")
    decodes_ok = calls.get("mqtt.decode", 0) - T.raised.get("mqtt.decode", 0)
    ack_sizes = T.samples.get("wire.ack_frame_bytes", [])
    layer_self = {layer: T.layer_self_s(layer) for layer in LAYERS}
    all_self = sum(layer_self.values())
    m = {
        "connection.handle_datagram.self_us": T.mean_us("connection.handle_datagram", "self"),
        "connection.flush.self_us": T.mean_us("connection.flush", "self"),
        "connection.self_us_per_packet.q1": quarters["q1"],
        "connection.self_us_per_packet.q4": quarters["q4"],
        "connection.rx_sqns_held": layer_sum("rx_sqns_held") / n,
        "connection.retransmits": layer_sum("retransmits") / n,
        "connection.ack_only_ratio": ratio(layer_sum("ack_only"), layer_sum("sends")),
        "connection.stalled_streams": layer_sum("stalled_streams"),
        "wire.seal.self_us": T.mean_us("wire.seal", "self"),
        "wire.open.self_us": T.mean_us("wire.open", "self"),
        "wire.frames.encode_us": T.mean_us("wire.frames.encode"),
        "wire.frames.decode_us": T.mean_us("wire.frames.decode"),
        "wire.header.us": ratio(total_of(header), calls_of(header)) * 1e6,
        "wire.ack_frame_bytes.mean": statistics.fmean(ack_sizes) if ack_sizes else 0.0,
        "wire.ack_frame_bytes.max": max(ack_sizes, default=0),
        "wire.datagram_bytes.max": max(r.layer.get("datagram_bytes.max", 0) for r in rounds),
        "wire.over_budget": layer_sum("over_budget"),
        "mqtt.broker.handle_us": T.mean_us("mqtt.broker.handle"),
        "mqtt.broker.publish_us.p50": percentile(T.samples["mqtt.broker.publish_us"], 50),
        "mqtt.broker.publish_us.p99": percentile(T.samples["mqtt.broker.publish_us"], 99),
        "mqtt.topic_matches.per_publish": ratio(T.counters["mqtt.topic_matches"],
                                                T.counters["mqtt.publishes"]),
        "mqtt.deliveries_per_publish": ratio(T.counters["mqtt.deliveries"],
                                             T.counters["mqtt.publishes"]),
        "mqtt.encode.us": T.mean_us("mqtt.encode"),
        "mqtt.decode.us": T.mean_us("mqtt.decode"),
        "mqtt.decode.calls_per_msg": ratio(calls.get("mqtt.decode", 0), decodes_ok),
        "mqtt.decode.bytes_per_msg": ratio(T.counters["mqtt.decode.bytes"], decodes_ok),
        "agents.server.self_us": sum(v for k, v in self_s.items()
                                     if k.startswith("agents.server.")) / delivered * 1e6,
        "agents.client.self_us": sum(v for k, v in self_s.items()
                                     if k.startswith("agents.client.")) / delivered * 1e6,
        "agents.publish.us": T.mean_us("agents.client.publish"),
        "crypto.aead.calls": calls_of(aead) / delivered,
        "crypto.aead.us_per_call": ratio(total_of(aead), calls_of(aead)) * 1e6,
        "crypto.aead_open.fail": T.counters["crypto.aead_open.fail"],
        "crypto.sig.us": T.mean_us("crypto.sig"),
        "crypto.dh.us": ratio(total_of(dh), calls_of(dh)) * 1e6,
        "crypto.kdf.us": T.mean_us("crypto.kdf"),
        "handshake.client.us": total_of(hs_client) / connects * 1e6,
        "handshake.server.us": total_of(hs_server) / connects * 1e6,
        "handshake.rejects": T.raised.get("handshake.server.validate_full_chlo", 0),
        "handshake.strike.size": layer_sum("strike_size") / n,
        "netsim.step.self_us": T.mean_us("netsim.step", "self"),
        "netsim.events": calls.get("netsim.step", 0) / delivered,
        "netsim.timers.cancelled_ratio": ratio(T.counters["netsim.timers.cancelled"],
                                               T.counters["netsim.timers"]),
        "netsim.queue_depth.max": T.counters["netsim.queue_depth.max"],
        "netsim.trace_len": layer_sum("trace_len") / n,
        "netsim.sim_latency_us.p99": percentile(
            [x for r in rounds for x in r.sim_latency_us], 99),
        "trace.overhead.setup_ratio": ratio(sum(r.setup_s for r in rounds),
                                            sum(r.setup_s for r in untraced)),
        "trace.overhead.timed_ratio": ratio(sum(r.timed_s for r in rounds),
                                            sum(r.timed_s for r in untraced)),
    }
    for layer in LAYERS:
        m[f"self_share.{layer}"] = ratio(layer_self[layer], all_self)
    return m


def traced_phase(workload, seed: int, work_dir: str, untraced: list) -> tuple[dict, list, object]:
    import tracer as tracing

    tracer = tracing.install(tracing.Tracer())
    readings: dict[str, list[tuple[float, float]]] = {}

    def on_mark(label: str) -> None:
        readings.setdefault(label, []).append(
            (tracer.layer_self_s("connection"), tracer.calls.get("netsim.send", 0)))

    try:
        rounds = run_rounds(workload, seed, work_dir, None, on_mark)
    finally:
        tracer.uninstall()

    def per_packet(a: str, b: str) -> float:
        d_self = sum(y[0] - x[0] for x, y in zip(readings.get(a, []), readings.get(b, [])))
        d_sent = sum(y[1] - x[1] for x, y in zip(readings.get(a, []), readings.get(b, [])))
        return d_self / d_sent * 1e6 if d_sent else 0.0

    quarters = {"q1": per_packet("q0", "q1"), "q4": per_packet("q3", "q4")}
    return per_layer(tracer, rounds, untraced, quarters), rounds, tracer


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quicmq", "__init__.py")):
        print(f"perfbench: no quicmq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, no_marks

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    workload = workload_cls()
    work_dir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    env = environment(args.seed)
    try:
        # Warm-up: a small round of the same workload, so lazy crypto and
        # import work stay out of the timed rounds; also writes the session
        # files the workload's first 0-RTT connects resume from.
        t = time.perf_counter()
        workload.prepare(args.seed, work_dir)
        workload_cls(**workload_cls.WARMUP).round(args.seed, 999, work_dir, no_marks)
        env["warmup_s"] = time.perf_counter() - t

        wall, cpu = time.perf_counter(), time.process_time()
        if args.trace:
            untraced = run_rounds(workload, args.seed, work_dir, None)
            untraced_e2e = end_to_end(untraced, workload.inputs)
            metrics, rounds, tracer = traced_phase(workload, args.seed, work_dir, untraced)
            traced_e2e = end_to_end(rounds, workload.inputs)
            spans_path = os.path.join(OUT, f"spans-{args.workload}.tsv")
            env["spans_written"] = tracer.write_spans(spans_path)
            env["spans_dropped"] = tracer.dropped
            table = PER_LAYER
            extra = {"untraced": untraced_e2e, "traced": traced_e2e}
        else:
            import hostspeed

            hostspeed.start()
            try:
                rounds = run_rounds(workload, args.seed, work_dir, args.seconds)
            finally:
                hostspeed.stop()
            metrics = end_to_end(rounds, workload.inputs)
            table = END_TO_END
            extra = {"unscaled": end_to_end(rounds, workload.inputs, scaled=False)}
            env["probes"] = len(hostspeed.probes)
            env["host_factor"] = statistics.median(r.host_factor for r in rounds)
        # The share of the measured wall time this process held a CPU; the
        # rest went to other tenants and is left out of every duration.
        env["measure_wall_s"] = time.perf_counter() - wall
        env["cpu_share"] = (time.process_time() - cpu) / env["measure_wall_s"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    # Every round's errors count; deliveries and connects count once per
    # distinct input, since a replay repeats them exactly.
    errors = [e for r in rounds for e in r.errors]
    first = rounds[:workload.inputs]
    attempted = sum(r.expected + r.connects_attempted for r in first)
    failed = sum(r.expected - r.delivered + r.connects_failed for r in first)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, *_ in table},
    }
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "env": env, "rounds": len(rounds), "errors": errors[:20], **extra,
        "round_s": [[k % workload.inputs, r.setup_s, r.timed_s, r.host_factor]
                    for k, r in enumerate(rounds)],
        "result": result,
    }
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(f"# workload={args.workload} seed={args.seed} rounds={len(rounds)} "
          f"python={env['python']} cryptography={env['cryptography']} nproc={env['nproc']} "
          f"loadavg={env['loadavg'][0]:.2f} commit={env['commit']} "
          f"src={env['source_sha256'][:12]} warmup_s={env['warmup_s']:.3f} "
          f"cpu_share={env['cpu_share']:.3f} host_factor={env.get('host_factor', 1.0):.3f}")
    for name, unit, *_ in table:
        print(f"{name:40s} {metrics[name]:14.4f} {unit}")
    if not args.trace:
        for name, unit in UNGATED:
            print(f"{name:40s} {metrics[name]:14.4f} {unit}  (not in the result line)")
        print("# unscaled (raw CPU time, see perfbench/hostspeed.py):")
        for name, unit, *_ in END_TO_END + UNGATED:
            print(f"#   {name:36s} {extra['unscaled'][name]:14.4f} {unit}")
    if args.trace:
        print("# tracing overhead (untraced -> traced, same rounds):")
        for name, unit, *_ in END_TO_END:
            print(f"#   {name:36s} {untraced_e2e[name]:12.4f} -> {traced_e2e[name]:12.4f} {unit}")
    for e in errors[:20]:
        print(f"# error: {e}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
