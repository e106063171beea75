"""End-to-end discovery benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload churn-socket --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` runs the same workload with spans around each layer's calls
and prints the per-layer metrics instead; its spans go to
``perfbench/out/<workload>-<seed>-spans.jsonl``.  The last line of standard
output is always the result object; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import OUT_DIR, median, use_source_tree  # noqa: E402
from spans import SPAN_CAP  # noqa: E402

WORKLOADS = ("churn-socket", "flash-serving", "beacon-lossy")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "join_iqm_us": "us",
    "leave_iqm_us": "us",
    "wide_query_iqm_us": "us",
}

PER_LAYER = {
    "codec.encode_us_per_op": "us",
    "codec.decode_us_per_op": "us",
    "codec.bytes_per_join": "B",
    "codec.bytes_per_leave": "B",
    "socket_backend.roundtrips_per_join": "count",
    "socket_backend.roundtrips_per_leave": "count",
    "socket_backend.roundtrips_per_wide_query": "count",
    "socket_backend.wire_wait_us_per_roundtrip": "us",
    "remote.handler_us_per_roundtrip": "us",
    "remote.journal_len": "count",
    "remote.snapshot_bytes": "B",
    "remote.restore_handler_ms": "ms",
    "remote.recovery_ms": "ms",
    "sharded.self_us_per_join": "us",
    "sharded.fill_streams_per_wide_query": "count",
    "neighbor_cache.self_us_per_join": "us",
    "neighbor_cache.updates_per_join": "count",
    "neighbor_cache.departure_updates_per_leave": "count",
    "neighbor_cache.refills_per_query": "count",
    "path_tree.visits_per_tree_query": "count",
    "path_tree.nodes_touched_per_insert": "count",
    "path_tree.nodes_created_per_insert": "count",
    "management_server.register_us_per_peer": "us",
    "management_server.unregister_us": "us",
    "serving.publish_p50_ms": "ms",
    "serving.build_ms": "ms",
    "serving.install_us": "us",
    "serving.snapshot_bytes_per_peer": "B",
    "serving.plane_bytes_per_peer": "B",
    "serving.trie_walks_per_read": "count",
    "protocol.discovery_mean_sim_ms": "sim_ms",
    "protocol.staleness_mean_sim_ms": "sim_ms",
    "protocol.maintenance_bytes_per_peer_s": "B/s",
    "protocol.host.handle_us_per_message": "us",
    "protocol.host.duplicate_ratio": "ratio",
    "protocol.host.plane_work_ratio": "ratio",
    "protocol.host.peers_expired": "count",
    "protocol.peer.handle_us_per_message": "us",
    "protocol.peer.retransmissions_per_round": "count",
    "sim.engine.events": "count",
    "sim.engine.us_per_event": "us",
    "sim.network.send_us_per_message": "us",
    "sim.network.deliveries_retained": "count",
    "sim.msgs_per_s": "msgs/s",
    "distance_engine.warm_ms": "ms",
    "trace.overhead_ops_per_s_pct": "%",
    "trace.overhead_join_pct": "%",
    "trace.self_sum_ratio": "ratio",
    "trace.min_self_us": "us",
    "trace.orphan_server_spans": "count",
}


def _interrupt(signum, _frame) -> None:
    raise KeyboardInterrupt(f"signal {signum}")


def _patches(workload: str, tracer) -> None:
    """Wrap each layer's calls under the names their callers use."""
    import repro.core.management_server as management_server
    import repro.core.neighbor_cache as neighbor_cache

    cache = neighbor_cache.NeighborCache
    tracer.patch(cache, "propagate_newcomer", "neighbor_cache:propagate_newcomer")
    tracer.patch(cache, "drop_peer", "neighbor_cache:drop_peer")
    if workload == "churn-socket":
        import repro.core.remote as remote
        import repro.core.sharded as sharded
        import repro.core.socket_backend as socket_backend

        plane = sharded.ShardedManagementServer
        tracer.patch(plane, "register_peers", "sharded:register_peers")
        tracer.patch(plane, "unregister_peer", "sharded:unregister_peer")
        tracer.patch(plane, "closest_peers", "sharded:closest_peers")
        tracer.patch(remote.SupervisedShardBackend, "fill_candidates", "remote:fill_candidates")
        tracer.patch(socket_backend.SocketShardSupervisor, "request", "socket_backend:roundtrip")
        tracer.patch(socket_backend, "encode_frame", "codec:encode_frame",
                     measure=lambda args, result: len(result))
        tracer.patch(socket_backend, "decode_frame", "codec:decode_frame",
                     measure=lambda args, result: len(args[0]))
        return
    server = management_server.ManagementServer
    tracer.patch(server, "register_peers", "management_server:register_peers")
    tracer.patch(server, "register_peer", "management_server:register_peer")
    tracer.patch(server, "unregister_peer", "management_server:unregister_peer")
    if workload == "flash-serving":
        import repro.core.serving as serving

        tracer.patch(serving.SnapshotPublisher, "publish", "serving:publish")
        tracer.patch(serving.DiscoverySnapshot, "build", "serving:build")
        # No public function marks a snapshot's trie walk; a rename of this
        # one shows as serving.trie_walks_per_read being unmeasured.
        tracer.patch(serving.DiscoverySnapshot, "_compute_neighbors", "serving:trie_walk")
        return
    import repro.protocol.host as host
    import repro.protocol.peer as peer
    import repro.routing.distance_engine as distance_engine
    import repro.sim.network as network

    tracer.patch(host.ProtocolManagementHost, "handle_message", "protocol.host:handle_message")
    tracer.patch(peer.BeaconingPeer, "handle_message", "protocol.peer:handle_message")
    tracer.patch(network.SimulatedNetwork, "send", "sim.network:send")
    tracer.patch(distance_engine.HopDistanceEngine, "warm_latencies", "distance_engine:warm_latencies")


def _layer_metrics(workload: str, seed: int, result, tracer, problems):
    """Per-layer values from the workload's counters and the spans.

    Returns the values and, for each metric without one, the reason.
    """
    from spans import join_remote, read_spans, summarize

    layer = {name: None for name in PER_LAYER}
    layer.update({key: value for key, value in result["layer"].items() if key in layer})
    spans = list(tracer.spans)
    remote = []
    missing = dict(tracer.unmeasured)
    restore_ms = None
    if result.get("server_spans"):
        server, server_missing = read_spans(result["server_spans"], first_id=tracer._next)
        missing.update(server_missing)
        remote, orphans = join_remote(spans, server, "socket_backend:roundtrip",
                                      one_way=("codec:decode_oneway", "remote:handle_oneway"))
        layer["trace.orphan_server_spans"] = orphans
        if orphans:
            problems.add(f"{orphans} server spans lie in no client round trip")
        restores = [s[5] - s[4] for s in server if s[3] == "remote:handle_restore"]
        if restores:
            restore_ms = median(restores) / 1e6
        spans += remote
    tracer.write(os.path.join(OUT_DIR, f"{workload}-{seed}-spans.jsonl"), remote)
    op_count, per_name, ratios, min_self = summarize(spans, tracer.ops)

    def calls(op, name):
        return per_name.get((op, name), [0, 0, 0])[0]

    def self_us(op, name):
        return per_name.get((op, name), [0, 0, 0])[1] / 1000.0

    def total_us(op, name):
        return per_name.get((op, name), [0, 0, 0])[2] / 1000.0

    def over_ops(name, field):
        values = [value for (op, span), value in per_name.items() if span == name]
        count = sum(value[0] for value in values)
        return sum(value[field] for value in values) / 1000.0 / count if count else None

    def per(value, base):
        return value / base if base else None

    joins, leaves, wides = op_count.get("join", 0), op_count.get("leave", 0), op_count.get("wide_query", 0)
    joined_peers = joins * result.get("peers_per_join", 1)
    roundtrips = sum(value[0] for (op, name), value in per_name.items() if name == "socket_backend:roundtrip")
    counters = tracer.counters
    derived = {
        "codec.encode_us_per_op": over_ops("codec:encode_frame", 1),
        "codec.decode_us_per_op": over_ops("codec:decode_frame", 1),
        "codec.bytes_per_join": per(counters.get(("join", "codec:encode_frame"), 0)
                                    + counters.get(("join", "codec:decode_frame"), 0), joins),
        "codec.bytes_per_leave": per(counters.get(("leave", "codec:encode_frame"), 0)
                                     + counters.get(("leave", "codec:decode_frame"), 0), leaves),
        "socket_backend.roundtrips_per_join": per(calls("join", "socket_backend:roundtrip"), joins),
        "socket_backend.roundtrips_per_leave": per(calls("leave", "socket_backend:roundtrip"), leaves),
        "socket_backend.roundtrips_per_wide_query": per(calls("wide_query", "socket_backend:roundtrip"), wides),
        "socket_backend.wire_wait_us_per_roundtrip": over_ops("socket_backend:roundtrip", 1),
        "remote.restore_handler_ms": restore_ms,
        "remote.handler_us_per_roundtrip": per(sum(
            value[1] for (op, name), value in per_name.items() if name == "remote:handle") / 1000.0, roundtrips),
        "sharded.self_us_per_join": per(self_us("join", "sharded:register_peers"), joins),
        "sharded.fill_streams_per_wide_query": per(calls("wide_query", "remote:fill_candidates"), wides),
        "neighbor_cache.self_us_per_join": per(self_us("join", "neighbor_cache:propagate_newcomer"), joined_peers),
        "serving.build_ms": per(total_us("publish", "serving:build") / 1000.0, calls("publish", "serving:build")),
        "serving.install_us": per(self_us("publish", "serving:publish"), calls("publish", "serving:publish")),
        "serving.trie_walks_per_read": per(calls("wide_query", "serving:trie_walk"), wides),
        "protocol.host.handle_us_per_message": over_ops("protocol.host:handle_message", 1),
        "protocol.peer.handle_us_per_message": over_ops("protocol.peer:handle_message", 1),
        "sim.network.send_us_per_message": over_ops("sim.network:send", 1),
        "distance_engine.warm_ms": per(over_ops("distance_engine:warm_latencies", 2) or 0, 1000.0) or None,
        "trace.self_sum_ratio": median([r for values in ratios.values() for r in values]) if ratios else None,
        "trace.min_self_us": min_self / 1000.0 if min_self is not None else None,
        "management_server.register_us_per_peer": (
            per(total_us("join", "management_server:register_peers"), joined_peers)
            if workload == "flash-serving" else over_ops("management_server:register_peer", 2)),
        "management_server.unregister_us": over_ops("management_server:unregister_peer", 2),
    }
    layer.update(derived)
    if layer["trace.min_self_us"] is not None and layer["trace.min_self_us"] < 0:
        problems.add(f"a span's self time is negative ({layer['trace.min_self_us']} us)")
    join_ratios = ratios.get("join", [])
    if workload == "churn-socket" and (not join_ratios or abs(median(join_ratios) - 1.0) > 0.10):
        problems.add("per-layer self times along a join do not sum to the join time within 10%")
    if tracer.truncated:
        problems.add(f"more than {SPAN_CAP} spans: the trace was truncated")
    unmeasured = {}
    for name, value in layer.items():
        # Span labels are "<layer>:<function>", metric names "<layer>.<quantity>";
        # with one of a layer's hooks gone, none of its span figures is whole.
        gone = [reason for label, reason in missing.items() if label.split(":")[0] == name.rsplit(".", 1)[0]]
        if gone and name in derived:
            unmeasured[name] = "; ".join(gone)
        elif value is None:
            unmeasured[name] = f"not exercised by {workload}"
    return {name: None if name in unmeasured else value for name, value in layer.items()}, unmeasured


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    signal.signal(signal.SIGTERM, _interrupt)
    use_source_tree()
    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process and the shard server it starts: a closed
        # loop has nothing to run in parallel, and a round trip that wakes
        # the other process on an idle CPU waits on the host's scheduler.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    from common import Problems
    from reference import self_test

    # The checker must catch known-bad answers before it may pass the program's.
    missed = self_test(args.seed)

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        _patches(args.workload, tracer)
    module = __import__(args.workload.replace("-", "_"))
    try:
        result = module.run(args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    problems: Problems = result["problems"]
    if missed:
        problems.extend([f"reference self-test: {failure}" for failure in missed])
    if tracer is None:
        values = result["metrics"]
        units = END_TO_END
        for name in units:
            if not values.get(name):
                problems.add(f"metric {name} was not measured")
    else:
        values, unmeasured = _layer_metrics(args.workload, args.seed, result, tracer, problems)
        units = PER_LAYER
        # The result line's keys are fixed, so a per-layer metric without a
        # value reads 0 there; this line, just before it, says which and why.
        print(json.dumps({"unmeasured": unmeasured}))
    ops = result["ops"]
    for error, count in ops.errors.items():
        print(f"perfbench: {count} x {error}", file=sys.stderr)
    for problem in problems.shown:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    if problems.count > len(problems.shown):
        print(f"perfbench: ... {problems.count - len(problems.shown)} more", file=sys.stderr)
    print(json.dumps({
        "correct": problems.count == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": float(values.get(name) or 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
