"""beacon-lossy: 6,400 beaconing peers on the event sim over a lossy wire.

Peers beacon every 500 ms to an inline ``ManagementServer`` through a
``ProtocolSimulation`` whose wire loses 10%, duplicates 2% and reorders 2%
of messages.  4% of the peers hand over to another resident's access
chain between 2.0 and 3.0 simulated seconds; 5% stop silently between 1.5
and 2.5 s, early enough for the 2 s TTL to expire them by 5.5 s.

One round is one beacon interval of simulated time followed by 100 wide
(k=20) neighbour reads of random live peers against the plane.  The early
rounds carry the joins and the later ones only refreshes, so one simulation
is a fixed 14 rounds (7 s of simulated time, so every scripted event and its
expiry lands in it), and a run repeats the whole simulation from a fresh
build, once per 10 s of ``--seconds`` (1.4 rounds a second, about that long
on a 2-core host): a faster program then does the same simulated work in
less time instead of a different mix, and each repeat adds its own joins
and expiries to the samples.
"""

from __future__ import annotations

from typing import Dict, List

from common import interquartile_mean, Ops, Problems, median_setup, now_ns
from inputs import BEACON_LANDMARK, beacon_inputs
from reference import Reference

INTERVAL_MS = 500.0
TTL_MS = 4 * INTERVAL_MS
LOSS, DUPLICATE, REORDER = 0.10, 0.02, 0.02
K = 5
WIDE_K = 20
READS_PER_ROUND = 100
CHECK_READ_EVERY = 10
ROUNDS = 14  # 7 s of simulated time: every scripted event and its expiry lands in it
ROUNDS_PER_SECOND = 1.4
SETTLED_MS = 5_500.0
DISCOVERY_ROUNDS = 4  # a discovery must land within 4 intervals + the TTL


class TimedPlane:
    """The plane the protocol host writes to, with its joins and leaves timed."""

    def __init__(self, server) -> None:
        self.server = server
        self.joins: List[float] = []
        self.leaves: List[float] = []
        self.recording = False

    def register_peer(self, path):
        started = now_ns()
        result = self.server.register_peer(path)
        if self.recording:
            self.joins.append((now_ns() - started) / 1000.0)
        return result

    def unregister_peer(self, peer_id):
        started = now_ns()
        self.server.unregister_peer(peer_id)
        if self.recording:
            self.leaves.append((now_ns() - started) / 1000.0)

    def has_peer(self, peer_id) -> bool:
        return self.server.has_peer(peer_id)


def _path(peer, routers):
    from repro.core.path import RouterPath

    return RouterPath.from_routers(peer, BEACON_LANDMARK, routers)


def build(inputs):
    from repro.core.management_server import ManagementServer
    from repro.protocol.peer import BeaconConfig
    from repro.protocol.simulation import ProtocolSimulation

    server = ManagementServer(neighbor_set_size=K)
    server.register_landmark(BEACON_LANDMARK, BEACON_LANDMARK)
    sim = ProtocolSimulation(
        [_path(peer, routers) for peer, routers in inputs.paths.items()],
        server=TimedPlane(server),
        beacon_config=BeaconConfig(beacon_interval_ms=INTERVAL_MS),
        ttl_ms=TTL_MS,
        loss_probability=LOSS,
        duplicate_probability=DUPLICATE,
        reorder_probability=REORDER,
        seed=inputs.seed,
    )
    for peer, (at_ms, routers) in inputs.handovers.items():
        sim.schedule_path_update(peer, at_ms, _path(peer, routers))
    for peer, at_ms in inputs.stops.items():
        sim.schedule_stop(peer, at_ms)
    return sim


def run(seed: int, seconds: float, tracer=None) -> Dict:
    """Whole simulations; with a tracer, one untraced and then one traced."""
    inputs = beacon_inputs(seed)
    sim, setup_s = median_setup(lambda: build(inputs), lambda _: None)
    ops, problems = Ops(), Problems()
    runs = 1 if tracer else max(1, round(seconds * ROUNDS_PER_SECOND / ROUNDS))
    joins: List[float] = []
    leaves: List[float] = []
    reads: List[float] = []
    done, elapsed, layer = 0, 0.0, None
    for index in range(runs):
        if index:
            sim = build(inputs)
        outcome = _simulate(sim, inputs, None, ops, problems)
        joins += sim.server.joins
        leaves += sim.server.leaves
        reads += outcome["reads"]
        done += outcome["ops"]
        elapsed += outcome["elapsed"]
        layer = layer or outcome["layer"]
        sim = None  # the next build starts without this one's garbage
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": done / elapsed,
        "join_iqm_us": interquartile_mean(joins),
        "leave_iqm_us": interquartile_mean(leaves),
        "wide_query_iqm_us": interquartile_mean(reads),
    }
    if tracer is not None:
        tracer.start()
        traced_sim = build(inputs)
        tracer.stop()
        traced = _simulate(traced_sim, inputs, tracer, ops, problems)
        layer["trace.overhead_ops_per_s_pct"] = 100.0 * (
            1.0 - (traced["ops"] / traced["elapsed"]) / metrics["ops_per_s"])
        layer["trace.overhead_join_pct"] = 100.0 * (
            interquartile_mean(traced_sim.server.joins) / metrics["join_iqm_us"] - 1.0)
    return {"ops": ops, "problems": problems, "metrics": metrics, "layer": layer}


def _simulate(sim, inputs, tracer, ops: Ops, problems: Problems) -> Dict:
    """``ROUNDS`` rounds of one simulation, with its reads and end-state checks."""
    from repro.protocol.messages import wire_size

    plane: TimedPlane = sim.server
    server = plane.server
    expected = {
        peer: inputs.handovers[peer][1] if peer in inputs.handovers else routers
        for peer, routers in inputs.paths.items()
        if peer not in inputs.stops
    }
    reference = Reference()
    for peer, routers in expected.items():
        reference.add(peer, BEACON_LANDMARK, routers)
    peers = list(inputs.paths)
    reads: List[float] = []
    messages = 0
    sim_ns = 0
    checking_ns = 0
    rounds = 0
    if tracer is not None:
        tracer.start()
    plane.recording = True
    sim.host.start()
    for path, start_at in zip(sim.paths, sim.start_times_ms):
        sim.peers[path.peer_id].start(initial_delay_ms=start_at)
    started = now_ns()
    while rounds < ROUNDS:
        sent_before = len(sim.network.deliveries)
        sim_started = now_ns()
        sim.engine.run(until=(rounds + 1) * INTERVAL_MS)
        sim_ns += now_ns() - sim_started
        messages += len(sim.network.deliveries) - sent_before
        rng = inputs.read_rng(rounds)
        targets: List[str] = []
        while len(targets) < READS_PER_ROUND:
            peer = peers[rng.randrange(len(peers))]
            if server.has_peer(peer):
                targets.append(peer)
        answers = []
        for peer in targets:
            if tracer is not None:
                with tracer.op("wide_query"):
                    answers.append(ops.timed(reads, server.closest_peers, peer, WIDE_K))
            else:
                answers.append(ops.timed(reads, server.closest_peers, peer, WIDE_K))
        mark = now_ns()
        if rounds * INTERVAL_MS >= SETTLED_MS:
            for peer, answer in list(zip(targets, answers))[::CHECK_READ_EVERY]:
                if answer is not None:
                    problems.extend(reference.check(peer, WIDE_K, answer))
        checking_ns += now_ns() - mark
        rounds += 1
    elapsed = (now_ns() - started - checking_ns) / 1e9
    plane.recording = False
    if tracer is not None:
        tracer.stop()
    _check_end_state(sim, inputs, expected, problems)
    ops.attempted += messages

    window_end = ROUNDS * INTERVAL_MS
    window_bytes = sum(wire_size(d.message) for d in sim.network.deliveries if d.sent_at < window_end)
    discovery = [p.stats.discovery_latency_ms for p in sim.peers.values()
                 if p.stats.discovery_latency_ms is not None]
    staleness = [s for p in sim.peers.values() for s in p.stats.update_latencies_ms]
    host = sim.host.stats
    peer_stats = [p.stats for p in sim.peers.values()]
    layer = {
        # Means, not quantiles: simulated latencies are multiples of the
        # retry timers and hop delays, so a quantile reads the same value
        # for most seeds and hides a shift in how often retries happen.
        "protocol.discovery_mean_sim_ms": sum(discovery) / len(discovery),
        "protocol.staleness_mean_sim_ms": sum(staleness) / len(staleness) if staleness else None,
        "protocol.maintenance_bytes_per_peer_s": window_bytes / len(peers) / (window_end / 1000.0),
        "protocol.host.duplicate_ratio": host.duplicate_beacons / host.beacons_received,
        "protocol.host.plane_work_ratio": (host.beacons_registered + host.beacons_refreshed) / host.beacons_received,
        "protocol.host.peers_expired": host.peers_expired,
        "protocol.peer.retransmissions_per_round": (
            sum(s.retransmissions for s in peer_stats) / sum(s.rounds_started for s in peer_stats)),
        "sim.engine.events": sim.engine.processed_events,
        "sim.engine.us_per_event": sim_ns / 1000.0 / sim.engine.processed_events,
        "sim.network.deliveries_retained": len(sim.network.deliveries),
        "sim.msgs_per_s": messages / (sim_ns / 1e9),
    }
    return {"ops": messages + len(reads), "elapsed": elapsed, "reads": reads, "layer": layer}


def _check_end_state(sim, inputs, expected, problems: Problems) -> None:
    server = sim.server.server
    bound = DISCOVERY_ROUNDS * INTERVAL_MS + sim.ttl_ms
    for peer, beaconer in sim.peers.items():
        latency = beaconer.stats.discovery_latency_ms
        if peer in inputs.stops:
            if sim.host.is_live(peer) or server.has_peer(peer):
                problems.add(f"stopped peer {peer} was never expired")
            continue
        if latency is None:
            problems.add(f"peer {peer} was never discovered")
            continue
        if latency > bound:
            problems.add(f"peer {peer} discovered after {latency} ms (bound {bound})")
        if not sim.host.is_live(peer):
            problems.add(f"peer {peer} is not live at the end")
        elif tuple(server.peer_path(peer).routers) != tuple(expected[peer]):
            problems.add(f"peer {peer} is registered under a stale path")
    if set(server.peers()) != set(expected):
        problems.add("plane membership differs from the ledger")
    network = sim.network
    delivered = sum(1 for d in network.deliveries if d.delivered_at is not None)
    dropped = sum(1 for d in network.deliveries if d.dropped)
    queued = sum(1 for d in network.deliveries if d.delivered_at is None and not d.dropped)
    if not network.accounting_consistent() or delivered + dropped + queued != len(network.deliveries):
        problems.add("deliveries plus drops do not account for every send")
    if network.sent_messages + network.duplicated_messages != len(network.deliveries):
        problems.add("the wire recorded a different number of messages than were sent")
    if queued > network.held_messages + sim.engine.pending_events:
        problems.add("messages neither delivered, dropped, held nor queued")
