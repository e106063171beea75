"""churn-socket: peer churn on a 2-shard plane behind a real shard server.

12,800 peers over 8 landmarks live on a ``ShardedManagementServer`` whose
two connection-scoped shards sit in one ``shard-serve --tcp 127.0.0.1:0``
process, reached through ``socket_shard_factory(addresses=...)``.  One
client thread runs cycles in a closed loop; a cycle (one round) is:

* a live peer leaves (``unregister_peer``);
* the same peer re-joins with its path (``register_peers``), and the
  answer it gets back is its neighbour list;
* two wide ``closest_peers(k=20)`` queries, which bypass the neighbour
  cache.  Every eighth cycle aims the first one at the sparse landmark, so
  its answer has to be filled across shards.

After the timed cycles each shard is compacted and restarted three times
(reconnect, hello, restore) and a fixed probe set must answer as before.
"""

from __future__ import annotations

import os
import selectors
import signal
import subprocess
import sys
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

from common import interquartile_mean, BENCH_DIR, OUT_DIR, SRC, Ops, Problems, median, median_setup, now_ns
from inputs import CHURN_SPARSE_EVERY, churn_inputs
from reference import Reference

K = 5
WIDE_K = 20
WIDE_PER_CYCLE = 2
CHECK_WIDE_EVERY = 8
BATCH = 256
RESTARTS = 3
PROBES = 48
READY_DEADLINE_S = 60.0


class ShardServerProcess:
    """One shard server process, started with a readiness deadline and always reaped."""

    def __init__(self, spans_path: Optional[str] = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        if spans_path is None:
            command = [sys.executable, "-m", "repro.cli", "shard-serve"]
        else:
            command = [sys.executable, os.path.join(BENCH_DIR, "shard_launcher.py"), "--spans", spans_path]
        command += ["--tcp", "127.0.0.1:0"]
        # The server's own diagnostics go to a log beside the spans, so a
        # shutdown with connections still closing does not flood the run.
        os.makedirs(OUT_DIR, exist_ok=True)
        self.log_path = os.path.join(OUT_DIR, "shard-server.log")
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=log, env=env)
        try:
            self.address = self._await_ready()
        except BaseException:
            self.stop()
            raise

    def _await_ready(self) -> Tuple[str, int]:
        deadline = now_ns() + READY_DEADLINE_S * 1e9
        buffered = b""
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            while b"\n" not in buffered:
                remaining = (deadline - now_ns()) / 1e9
                if remaining <= 0:
                    raise RuntimeError("shard server did not report its address in time")
                if not selector.select(remaining):
                    continue
                chunk = os.read(self.process.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError(f"shard server exited with code {self.process.wait()}; "
                                       f"see {self.log_path}")
                buffered += chunk
        line = buffered.split(b"\n", 1)[0].decode()
        prefix = "listening tcp:"
        if not line.startswith(prefix):
            raise RuntimeError(f"unexpected shard server banner {line!r}")
        host, port = line[len(prefix):].rsplit(":", 1)
        return host, int(port)

    def stop(self) -> None:
        process = self.process
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if process.stdout is not None:
            process.stdout.close()


def _path(peer, landmark, routers):
    from repro.core.path import RouterPath

    return RouterPath.from_routers(peer, landmark, routers)


def build(inputs, address):
    from repro.core.sharded import ShardedManagementServer
    from repro.core.socket_backend import socket_shard_factory

    plane = ShardedManagementServer(
        2,
        neighbor_set_size=K,
        landmark_distances=inputs.landmark_distances,
        shard_factory=socket_shard_factory(neighbor_set_size=K, addresses=[address]),
    )
    try:
        for landmark in inputs.landmarks:
            plane.register_landmark(landmark, landmark)
        paths = [_path(peer, landmark, routers) for peer, (landmark, routers) in inputs.paths.items()]
        for start in range(0, len(paths), BATCH):
            plane.register_peers(paths[start:start + BATCH])
    except BaseException:
        plane.close()
        raise
    return plane


def run(seed: int, seconds: float, tracer=None) -> Dict:
    inputs = churn_inputs(seed)
    spans_path = os.path.join(OUT_DIR, f"churn-socket-{seed}-server.jsonl") if tracer else None
    if spans_path and os.path.exists(spans_path):
        os.remove(spans_path)
    server = ShardServerProcess(spans_path)
    plane = None
    try:
        plane, setup_s = median_setup(lambda: build(inputs, server.address), lambda old: old.close())
        result = _measure(inputs, plane, seconds, tracer)
        result["metrics"]["setup_s"] = setup_s
        _recover(plane, inputs, result)
    finally:
        if plane is not None:
            plane.close()
        server.stop()
    result["server_spans"] = spans_path
    return result


def _measure(inputs, plane, seconds: float, tracer) -> Dict:
    """Timed cycles; with a tracer, every other block of eight cycles is traced."""
    reference = Reference(inputs.landmark_distances)
    for peer, (landmark, routers) in inputs.paths.items():
        reference.add(peer, landmark, routers)
    live: List[str] = list(inputs.paths)
    sparse = list(inputs.sparse_peers)
    rng = inputs.cycle_rng()
    ops, problems = Ops(), Problems()
    modes = {mode: {"join": [], "leave": [], "wide": [], "rates": []}
             for mode in ("untraced", "traced")}
    stats_before = plane.stats.as_dict()
    visits_before = plane.total_tree_visits()
    work_before = plane.total_insert_work()
    cycles = 0
    spent_ns = 0
    block = CHURN_SPARSE_EVERY
    while cycles < 2 * block or cycles % block or spent_ns < seconds * 1e9:
        traced = tracer is not None and (cycles // block) % 2 == 1
        samples = modes["traced" if traced else "untraced"]
        op = tracer.op if traced else (lambda name: nullcontext())
        if traced:
            tracer.start()
        done_before = ops.attempted - ops.failed
        started = now_ns()
        peer = live[rng.randrange(len(live))]
        landmark, routers = inputs.paths[peer]
        with op("leave"):
            ops.timed(samples["leave"], plane.unregister_peer, peer)
        with op("join"):
            answers = ops.timed(samples["join"], plane.register_peers, [_path(peer, landmark, routers)])
        targets = [live[rng.randrange(len(live))] for _ in range(WIDE_PER_CYCLE)]
        if cycles % CHURN_SPARSE_EVERY == 0:
            targets[0] = sparse[rng.randrange(len(sparse))]
        wide_answers = []
        for target in targets:
            with op("wide_query"):
                wide_answers.append(ops.timed(samples["wide"], plane.closest_peers, target, WIDE_K))
        elapsed = now_ns() - started
        if traced:
            tracer.stop()
        samples["rates"].append((ops.attempted - ops.failed - done_before) / (elapsed / 1e9))
        spent_ns += elapsed
        if answers is not None:
            problems.extend(reference.check(peer, K, answers.get(peer, [])))
        for index, (target, answer) in enumerate(zip(targets, wide_answers)):
            checked = (index == 0 and cycles % CHURN_SPARSE_EVERY == 0) or cycles % CHECK_WIDE_EVERY == 0
            if answer is not None and checked:
                problems.extend(reference.check(target, WIDE_K, answer))
        cycles += 1
    journal_len = sum(shard.supervisor.journal_length for shard in plane.shards)
    stats_after = plane.stats.as_dict()
    delta = {key: stats_after[key] - stats_before.get(key, 0) for key in stats_after}
    work_after = plane.total_insert_work()
    main = modes["untraced"]
    metrics = {
        "ops_per_s": median(main["rates"]),
        "join_iqm_us": interquartile_mean(main["join"]),
        "leave_iqm_us": interquartile_mean(main["leave"]),
        "wide_query_iqm_us": interquartile_mean(main["wide"]),
    }
    layer = {
        "remote.journal_len": journal_len,
        "neighbor_cache.updates_per_join": delta["cache_updates"] / cycles,
        "neighbor_cache.departure_updates_per_leave": delta["departure_updates"] / cycles,
        "neighbor_cache.refills_per_query": delta["cache_refills"] / max(1, delta["queries"]),
        "path_tree.visits_per_tree_query": (plane.total_tree_visits() - visits_before) / max(1, delta["tree_queries"]),
        "path_tree.nodes_created_per_insert": (work_after[0] - work_before[0]) / cycles,
        "path_tree.nodes_touched_per_insert": (work_after[1] - work_before[1]) / cycles,
    }
    if tracer is not None:
        traced = modes["traced"]
        layer["trace.overhead_ops_per_s_pct"] = 100.0 * (1.0 - median(traced["rates"]) / median(main["rates"]))
        layer["trace.overhead_join_pct"] = 100.0 * (
            interquartile_mean(traced["join"]) / interquartile_mean(main["join"]) - 1.0)
    return {"ops": ops, "problems": problems, "metrics": metrics, "layer": layer, "reference": reference}


def _recover(plane, inputs, result: Dict) -> None:
    """Compact and restart every shard; probes and membership must survive.

    Probes, compactions, restarts and membership reads are counted
    operations like the timed ones: a call that raises is a failure, and
    the comparisons it would have fed are skipped.
    """
    reference = result["reference"]
    ops: Ops = result["ops"]
    problems: Problems = result["problems"]
    probes = sorted(reference.live())[:: max(1, len(reference.live()) // PROBES)][:PROBES]
    before = [ops.timed(None, plane.closest_peers, peer, WIDE_K) for peer in probes]
    for peer, answer in zip(probes, before):
        if answer is not None:
            problems.extend(reference.check(peer, WIDE_K, answer))
    restarts: List[float] = []
    snapshot_bytes: List[int] = []
    for _ in range(RESTARTS):
        for shard in plane.shards:
            compacted = ops.timed(None, shard.compact)
            if compacted is not None:
                snapshot_bytes.append(compacted)
            ops.timed(restarts, shard.restart)
        after = [ops.timed(None, plane.closest_peers, peer, WIDE_K) for peer in probes]
        if any(old is not None and new is not None and old != new for old, new in zip(before, after)):
            problems.add("probe answers changed across a compacted restart")
    ledger: Dict[str, set] = {}
    for peer, (landmark, _) in reference.paths.items():
        ledger.setdefault(landmark, set()).add(peer)
    for landmark in inputs.landmarks:
        tree = ops.timed(None, plane.shards[plane.shard_of(landmark)].tree, landmark)
        if tree is not None and set(tree.peers()) != ledger.get(landmark, set()):
            problems.add(f"shard membership under {landmark} differs from the ledger after restart")
    members = ops.timed(None, plane.peers)
    if members is not None and set(members) != reference.live():
        problems.add("coordinator membership differs from the ledger")
    result["layer"]["remote.recovery_ms"] = median(restarts) / 1000.0 if restarts else None
    result["layer"]["remote.snapshot_bytes"] = median(snapshot_bytes) if snapshot_bytes else None
