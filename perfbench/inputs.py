"""Seeded input generator for the discovery benchmark.

Everything the benchmark feeds the program is made here from ``--seed``
alone, with ``random.Random`` streams seeded by ``"<workload>:<seed>"``
strings (string seeding is stable across interpreters and hash seeds).
Nothing is imported from the program's own perf suite, so an edit there
cannot change what is measured.

Paths are plain router lists, peer side first, landmark last, as a
traceroute would record them.  Every landmark owns a three-level access
hierarchy below a core router::

    landmark <- core <- region <- metro <- access [<- cpe]

A quarter of the peers sit behind their own customer router (one hop
more), and one peer in ten attaches directly at a metro router (one hop
less), so hop counts vary and some paths are prefixes of others.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

Path = Tuple[str, ...]  # routers, peer side first


def _rng(workload: str, seed: int, *stream: object) -> random.Random:
    return random.Random(":".join([workload, str(seed), *map(str, stream)]))


@dataclass(frozen=True)
class Hierarchy:
    """Fan-out of one landmark's access tree, and the part a crowd uses."""

    regions: int
    metros: int
    access: int

    def path(self, rng: random.Random, landmark: str, peer: str, regions=None, metros=None,
             access=None) -> Path:
        region = rng.randrange(regions or self.regions)
        metro = rng.randrange(metros or self.metros)
        leaf = rng.randrange(access or self.access)
        upper = (
            f"{landmark}-m{region}.{metro}",
            f"{landmark}-r{region}",
            f"{landmark}-core",
            landmark,
        )
        shape = rng.random()
        if shape < 0.1:
            return upper
        access_router = f"{landmark}-a{region}.{metro}.{leaf}"
        if shape < 0.35:
            return (f"{peer}-cpe", access_router) + upper
        return (access_router,) + upper


# ------------------------------------------------------------ churn-socket


@dataclass
class ChurnInputs:
    """12,800 peers over 8 landmarks, one of them deliberately sparse.

    The sparse landmark holds ``CHURN_SPARSE`` peers, fewer than a wide
    query asks for, so a wide query from one of its peers must fill across
    shards; every ``CHURN_SPARSE_EVERY``-th cycle aims its wide query there.
    """

    landmarks: List[str]
    landmark_distances: Dict[Tuple[str, str], float]
    paths: Dict[str, Tuple[str, Path]]  # peer -> (landmark, routers), join order
    sparse_peers: List[str]
    seed: int

    def cycle_rng(self) -> random.Random:
        return _rng("churn-socket", self.seed, "cycles")


CHURN_PEERS = 12_800
CHURN_LANDMARKS = 8
CHURN_SPARSE = 12  # peers on the sparse landmark; below a wide query's k of 20
CHURN_SPARSE_EVERY = 8


def churn_inputs(seed: int) -> ChurnInputs:
    rng = _rng("churn-socket", seed, "population")
    names = [f"lm{index}" for index in range(CHURN_LANDMARKS)]
    distances = {
        (a, b): float(rng.randint(3, 8)) for i, a in enumerate(names) for b in names[i + 1:]
    }
    hierarchy = Hierarchy(regions=4, metros=8, access=16)
    weights = [rng.uniform(0.7, 1.3) for _ in names[:-1]]
    sparse_indices = set(rng.sample(range(CHURN_PEERS), CHURN_SPARSE))
    paths: Dict[str, Tuple[str, Path]] = {}
    sparse_peers: List[str] = []
    for index in range(CHURN_PEERS):
        peer = f"p{index}"
        if index in sparse_indices:
            landmark = names[-1]
            sparse_peers.append(peer)
        else:
            landmark = rng.choices(names[:-1], weights)[0]
        paths[peer] = (landmark, hierarchy.path(rng, landmark, peer))
    return ChurnInputs(names, distances, paths, sparse_peers, seed)


# ----------------------------------------------------------- flash-serving


FLASH_LANDMARK = "lm0"
FLASH_PEERS = 12_800
FLASH_WAVE = 256
FLASH_DWELL = 8  # waves a crowd cohort stays before it leaves
FLASH_HIERARCHY = Hierarchy(regions=8, metros=10, access=16)


@dataclass
class FlashInputs:
    """One landmark: resident peers plus flash-crowd cohorts that come and go.

    Cohort ``w`` (256 peers) arrives in wave ``w`` and leaves in wave
    ``w + 8``, so the plane holds 10,752 residents and 8 cohorts at every
    wave boundary and each wave does the same work however many run.  The
    cohorts of waves -8..-1 are part of the initial population.  Crowd
    members come from 2 regions x 4 metros x 8 access routers (64 leaves
    against 1,280 for residents), so co-arrivals share access networks the
    way a flash crowd does.
    """

    paths: Dict[str, Path]
    seed: int

    def cohort(self, wave: int) -> List[Tuple[str, Path]]:
        rng = _rng("flash-serving", self.seed, "cohort", wave)
        members = []
        for offset in range(FLASH_WAVE):
            peer = f"w{wave}.{offset}"
            members.append(
                (peer, FLASH_HIERARCHY.path(rng, FLASH_LANDMARK, peer, regions=2, metros=4, access=8))
            )
        return members

    def wave(self, index: int) -> Tuple[List[Tuple[str, Path]], List[str]]:
        """Arrivals and departures of wave ``index``."""
        return self.cohort(index), [peer for peer, _ in self.cohort(index - FLASH_DWELL)]

    def read_rng(self, index: int) -> random.Random:
        return _rng("flash-serving", self.seed, "reads", index)


def flash_inputs(seed: int) -> FlashInputs:
    inputs = FlashInputs({}, seed)
    rng = _rng("flash-serving", seed, "population")
    for index in range(FLASH_PEERS - FLASH_DWELL * FLASH_WAVE):
        peer = f"p{index}"
        inputs.paths[peer] = FLASH_HIERARCHY.path(rng, FLASH_LANDMARK, peer)
    for wave in range(-FLASH_DWELL, 0):
        inputs.paths.update(inputs.cohort(wave))
    return inputs


# ------------------------------------------------------------ beacon-lossy


BEACON_LANDMARK = "lm0"
BEACON_PEERS = 6_400
BEACON_HANDOVER_SHARE = 0.04
BEACON_STOP_SHARE = 0.05
# Simulated ms.  Stops end by 2.5 s, so the 2 s TTL expires them well
# before the 7 s a run simulates at least.
BEACON_HANDOVER_WINDOW_MS = (2_000.0, 3_000.0)
BEACON_STOP_WINDOW_MS = (1_500.0, 2_500.0)


@dataclass
class BeaconInputs:
    """6,400 beaconing peers, their handovers and their silent stops.

    A handover moves a peer onto another resident's access chain (its
    routers minus any customer router), so the new path only uses routers
    the topology already has.  Stop and handover sets are disjoint.
    """

    paths: Dict[str, Path]
    handovers: Dict[str, Tuple[float, Path]]  # peer -> (sim ms, new routers)
    stops: Dict[str, float]  # peer -> sim ms
    seed: int

    def read_rng(self, round_index: int) -> random.Random:
        return _rng("beacon-lossy", self.seed, "reads", round_index)


def beacon_inputs(seed: int) -> BeaconInputs:
    rng = _rng("beacon-lossy", seed, "population")
    hierarchy = Hierarchy(regions=6, metros=8, access=16)
    paths = {f"p{index}": hierarchy.path(rng, BEACON_LANDMARK, f"p{index}") for index in range(BEACON_PEERS)}
    names = list(paths)
    moving = int(BEACON_PEERS * BEACON_HANDOVER_SHARE)
    chosen = rng.sample(names, moving + int(BEACON_PEERS * BEACON_STOP_SHARE))
    movers = chosen[:moving]
    stoppers = chosen[moving:]
    handovers: Dict[str, Tuple[float, Path]] = {}
    for peer in movers:
        while True:
            donor = paths[rng.choice(names)]
            chain = donor[1:] if donor[0].endswith("-cpe") else donor
            if chain != paths[peer] and chain != paths[peer][1:]:
                break
        handovers[peer] = (rng.uniform(*BEACON_HANDOVER_WINDOW_MS), chain)
    stops = {peer: rng.uniform(*BEACON_STOP_WINDOW_MS) for peer in stoppers}
    return BeaconInputs(paths, handovers, stops, seed)
