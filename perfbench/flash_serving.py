"""flash-serving: flash-crowd writes beside snapshot reads, no wire.

12,800 peers on one landmark (see ``inputs.FlashInputs``) live in an inline
``ManagementServer`` behind a ``SnapshotPublisher``.  Each wave (one round)
is, in a closed loop:

* one ``register_peers`` call carrying a 256-peer flash-crowd cohort;
* 256 ``unregister_peer`` calls for the cohort that arrived 8 waves ago;
* one ``publish`` of the next epoch;
* 2,200 wide (k=20) reads through a ``SnapshotReader`` pinned to it.

After the waves, :func:`stale_cache_probe` replays a fixed case of a known
neighbour-cache fault once, untimed and uncounted, and notes the outcome
on standard error.
"""

from __future__ import annotations

import sys
import tracemalloc
from contextlib import nullcontext
from typing import Dict, List

from common import interquartile_mean, Ops, Problems, median, median_setup, now_ns
from inputs import FLASH_LANDMARK, FLASH_WAVE, flash_inputs
from reference import Reference

K = 5
READS = 2_200
WIDE_K = 20
CHECK_READ_EVERY = 50
CHECK_JOIN_EVERY = 16


def _path(peer, routers, landmark=FLASH_LANDMARK):
    from repro.core.path import RouterPath

    return RouterPath.from_routers(peer, landmark, routers)


def build(inputs):
    from repro.core.management_server import ManagementServer
    from repro.core.serving import SnapshotPublisher

    plane = ManagementServer(neighbor_set_size=K)
    plane.register_landmark(FLASH_LANDMARK, FLASH_LANDMARK)
    paths = [_path(peer, routers) for peer, routers in inputs.paths.items()]
    for start in range(0, len(paths), 512):
        plane.register_peers(paths[start:start + 512])
    return SnapshotPublisher(plane)


def retained_bytes_per_peer(inputs) -> Dict[str, float]:
    """``tracemalloc`` bytes the plane and one snapshot keep, per peer (untimed)."""
    from repro.core.serving import DiscoverySnapshot

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        publisher = build(inputs)
        with_first = tracemalloc.get_traced_memory()[0]
        snapshot = DiscoverySnapshot.build(publisher.plane, generation=2)
        with_second = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del publisher, snapshot
    peers = len(inputs.paths)
    return {
        "serving.plane_bytes_per_peer": (with_first - base) / peers,
        "serving.snapshot_bytes_per_peer": (with_second - with_first) / peers,
    }


# A fixed scenario, independent of --seed: peer x sits behind its own
# customer router under access router A; five peers y hang off a sibling
# access router B, so x joins with y1..y5 at distance 5.  Six peers z then
# arrive together at A, each at distance 3 from x.  Each z's own neighbour
# list is full of the other z (distance 2), so none of them names x, and
# the cache never offers the z to x.
_PROBE_LANDMARK = "probe-lm"
_PROBE_X = ("x-cpe", "A", "M", "R", _PROBE_LANDMARK)
_PROBE_Y = ("B", "M", "R", _PROBE_LANDMARK)
_PROBE_Z = ("A", "M", "R", _PROBE_LANDMARK)


def stale_cache_probe() -> List[str]:
    """Ask x for its neighbour set after the z crowd arrived; return problems."""
    from repro.core.management_server import ManagementServer

    plane = ManagementServer(neighbor_set_size=K)
    plane.register_landmark(_PROBE_LANDMARK, _PROBE_LANDMARK)
    reference = Reference()
    entries = [("x", _PROBE_X)] + [(f"y{i}", _PROBE_Y) for i in range(5)]
    crowd = [(f"z{i}", _PROBE_Z) for i in range(6)]
    for peer, routers in entries:
        plane.register_peer(_path(peer, routers, _PROBE_LANDMARK))
    plane.register_peers([_path(peer, routers, _PROBE_LANDMARK) for peer, routers in crowd])
    for peer, routers in entries + crowd:
        reference.add(peer, _PROBE_LANDMARK, routers)
    return reference.check("x", K, plane.closest_peers("x", K))


def run(seed: int, seconds: float, tracer=None) -> Dict:
    """Waves in a closed loop; with a tracer, odd waves are traced."""
    from repro.core.serving import SnapshotReader

    inputs = flash_inputs(seed)
    publisher, setup_s = median_setup(lambda: build(inputs), lambda _: None)
    reader = SnapshotReader(publisher)
    reference = Reference()
    for peer, routers in inputs.paths.items():
        reference.add(peer, FLASH_LANDMARK, routers)
    live: List[str] = list(inputs.paths)
    position = {peer: index for index, peer in enumerate(live)}
    ops, problems = Ops(), Problems()
    if set(publisher.snapshot.peers()) != reference.live():
        problems.add("first epoch's peer set differs from the ledger")
    generation = publisher.generation
    plane = publisher.plane
    stats_before = plane.stats.as_dict()
    visits_before = plane.total_tree_visits()
    work_before = plane.total_insert_work()
    modes = {mode: {"join": [], "leave": [], "wide": [], "publish": [], "rates": []}
             for mode in ("untraced", "traced")}
    waves = 0
    spent_ns = 0
    while waves < 2 or spent_ns < seconds * 1e9:
        traced = tracer is not None and waves % 2 == 1
        samples = modes["traced" if traced else "untraced"]
        op = tracer.op if traced else (lambda name: nullcontext())
        arrivals, departures = inputs.wave(waves)
        batch = [_path(peer, routers) for peer, routers in arrivals]
        rng = inputs.read_rng(waves)
        if traced:
            tracer.start()
        done_before = ops.attempted - ops.failed
        started = now_ns()
        wave_time: List[float] = []
        with op("join"):
            answers = ops.timed(wave_time, publisher.register_peers, batch)
        if answers is not None:
            samples["join"].append(wave_time[0] / FLASH_WAVE)
        for peer in departures:
            with op("leave"):
                ops.timed(samples["leave"], publisher.unregister_peer, peer)
        with op("publish"):
            snapshot = ops.timed(samples["publish"], publisher.publish)
        live_after = _apply(live, position, arrivals, departures)
        targets = [live_after[rng.randrange(len(live_after))] for _ in range(READS)]
        read_answers = []
        for peer in targets:
            with op("wide_query"):
                read_answers.append(ops.timed(samples["wide"], reader.closest_peers, peer, WIDE_K))
        elapsed = now_ns() - started
        if traced:
            tracer.stop()
        samples["rates"].append((ops.attempted - ops.failed - done_before) / (elapsed / 1e9))
        spent_ns += elapsed

        for peer, routers in arrivals:
            reference.add(peer, FLASH_LANDMARK, routers)
        if answers is not None:
            for peer, _ in arrivals[::CHECK_JOIN_EVERY]:
                # Join answers were computed before this wave's departures.
                problems.extend(reference.check(peer, K, answers.get(peer, [])))
        for peer in departures:
            reference.remove(peer)
        if snapshot is not None:
            if snapshot.generation <= generation:
                problems.add(f"epoch {snapshot.generation} does not follow {generation}")
            generation = snapshot.generation
            if set(snapshot.peers()) != reference.live():
                problems.add(f"epoch {generation}: peer set differs from the ledger")
        for peer, answer in list(zip(targets, read_answers))[::CHECK_READ_EVERY]:
            if answer is not None:
                problems.extend(reference.check(peer, WIDE_K, answer))
        waves += 1
    try:
        stale = stale_cache_probe()
    except Exception as error:  # noqa: BLE001 - a note, not a counted operation
        stale = [f"the probe raised {type(error).__name__}: {error}"]
    print(f"perfbench: note: stale-cache probe: {stale[0] if stale else 'passes'}", file=sys.stderr)

    stats_after = plane.stats.as_dict()
    delta = {key: stats_after[key] - stats_before.get(key, 0) for key in stats_after}
    work_after = plane.total_insert_work()
    inserts = waves * FLASH_WAVE
    main = modes["untraced"]
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": median(main["rates"]),
        "join_iqm_us": interquartile_mean(main["join"]),
        "leave_iqm_us": interquartile_mean(main["leave"]),
        "wide_query_iqm_us": interquartile_mean(main["wide"]),
    }
    layer = {
        "serving.publish_p50_ms": median(main["publish"]) / 1000.0,
        "neighbor_cache.updates_per_join": delta["cache_updates"] / inserts,
        "neighbor_cache.departure_updates_per_leave": delta["departure_updates"] / inserts,
        "neighbor_cache.refills_per_query": delta["cache_refills"] / max(1, delta["queries"]),
        "path_tree.visits_per_tree_query": (plane.total_tree_visits() - visits_before) / max(1, delta["tree_queries"]),
        "path_tree.nodes_created_per_insert": (work_after[0] - work_before[0]) / inserts,
        "path_tree.nodes_touched_per_insert": (work_after[1] - work_before[1]) / inserts,
    }
    if tracer is not None:
        traced = modes["traced"]
        layer["trace.overhead_ops_per_s_pct"] = 100.0 * (1.0 - median(traced["rates"]) / median(main["rates"]))
        layer["trace.overhead_join_pct"] = 100.0 * (
            interquartile_mean(traced["join"]) / interquartile_mean(main["join"]) - 1.0)
        layer.update(retained_bytes_per_peer(inputs))
    return {"ops": ops, "problems": problems, "metrics": metrics, "layer": layer,
            "peers_per_join": FLASH_WAVE}


def _apply(live: List[str], position: Dict[str, int], arrivals, departures) -> List[str]:
    """Update the live list in place (swap-remove) and return it."""
    for peer, _ in arrivals:
        position[peer] = len(live)
        live.append(peer)
    for peer in departures:
        index = position.pop(peer)
        last = live.pop()
        if index < len(live):
            live[index] = last
            position[last] = index
    return live

