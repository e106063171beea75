"""Reference checker: closest-peer answers recomputed from raw router lists.

The checker knows nothing of the program.  It keeps its own ledger of live
peers and their router lists (peer side first, landmark last) and judges
an answer ``[(peer, distance), ...]`` by the paper's rules:

* same landmark: ``dtree`` is the hops from each peer up to the deepest
  router both paths share, plus one per side;
* other landmark (the cross-landmark fill): own hops, plus the landmark
  distance, plus the other peer's hops.

An answer lists same-landmark peers first and fills from other landmarks
only once its own landmark has no peer left.  Each section must be sorted
non-decreasing, name live peers other than the asker exactly once, carry
the reference distance for each, be as long as ``min(k, live peers - 1)``,
and leave out no live peer strictly closer than its last entry.

Run this file to execute the self-test, which feeds the checker corrupted
answers and exits non-zero unless every corruption is caught.
"""

from __future__ import annotations

import random
import sys
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

Answer = Sequence[Tuple[object, float]]


class Reference:
    """Ledger of live peers plus an index of shared landmark-side prefixes."""

    def __init__(self, landmark_distances: Optional[Dict[Tuple[str, str], float]] = None) -> None:
        self.paths: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
        self._up: Dict[str, Tuple[str, ...]] = {}  # landmark side first
        self._below: Dict[Tuple[str, ...], Set[str]] = {}
        self._by_hops: Dict[str, Dict[int, Set[str]]] = {}
        self._distances: Dict[Tuple[str, str], float] = {}
        for (a, b), value in (landmark_distances or {}).items():
            self._distances[(a, b)] = self._distances[(b, a)] = float(value)

    # ---------------------------------------------------------------- ledger

    def add(self, peer: str, landmark: str, routers: Sequence[str]) -> None:
        if peer in self.paths:
            self.remove(peer)
        up = tuple(reversed(routers))
        self.paths[peer] = (landmark, tuple(routers))
        self._up[peer] = up
        for depth in range(1, len(up) + 1):
            self._below.setdefault(up[:depth], set()).add(peer)
        self._by_hops.setdefault(landmark, {}).setdefault(len(up), set()).add(peer)

    def remove(self, peer: str) -> None:
        landmark, _ = self.paths.pop(peer)
        up = self._up.pop(peer)
        for depth in range(1, len(up) + 1):
            members = self._below[up[:depth]]
            members.discard(peer)
            if not members:
                del self._below[up[:depth]]
        self._by_hops[landmark][len(up)].discard(peer)

    def live(self) -> Set[str]:
        return set(self.paths)

    def landmark_count(self, landmark: str) -> int:
        return sum(len(peers) for peers in self._by_hops.get(landmark, {}).values())

    # ------------------------------------------------------------- distances

    def dtree(self, a: str, b: str) -> int:
        up_a, up_b = self._up[a], self._up[b]
        shared = 0
        for x, y in zip(up_a, up_b):
            if x != y:
                break
            shared += 1
        return (len(up_a) - shared + 1) + (len(up_b) - shared + 1)

    def estimate(self, a: str, b: str) -> Optional[float]:
        land_a, land_b = self.paths[a][0], self.paths[b][0]
        if land_a == land_b:
            return float(self.dtree(a, b))
        between = self._distances.get((land_a, land_b))
        if between is None:
            return None
        return float(len(self._up[a]) + between + len(self._up[b]))

    def closest(self, peer: str, k: int) -> List[Tuple[str, float]]:
        """Brute-force answer (same landmark first, then fill); self-test only."""
        landmark = self.paths[peer][0]
        local, fill = [], []
        for other in self.paths:
            if other == peer:
                continue
            value = self.estimate(peer, other)
            if value is None:
                continue
            (local if self.paths[other][0] == landmark else fill).append((value, other))
        local.sort()
        fill.sort()
        answer = [(other, value) for value, other in local[:k]]
        if len(answer) < k:
            answer += [(other, value) for value, other in fill[: k - len(answer)]]
        return answer

    # ----------------------------------------------------------------- check

    def check(self, peer: str, k: int, answer: Answer) -> List[str]:
        """Problems found in ``answer`` to ``closest_peers(peer, k)`` (empty: correct)."""
        if peer not in self.paths:
            return [f"asked for departed peer {peer}"]
        problems: List[str] = []
        landmark = self.paths[peer][0]
        seen: Set[object] = set()
        local: List[float] = []
        fill: List[float] = []
        for position, (other, distance) in enumerate(answer):
            if other == peer:
                problems.append(f"{peer}: lists itself")
                continue
            if other in seen:
                problems.append(f"{peer}: lists {other} twice")
                continue
            seen.add(other)
            if other not in self.paths:
                problems.append(f"{peer}: lists departed peer {other}")
                continue
            expected = self.estimate(peer, other)
            if expected is None or float(distance) != expected:
                problems.append(f"{peer}: {other} at {distance}, reference {expected}")
            if self.paths[other][0] == landmark:
                if fill:
                    problems.append(f"{peer}: same-landmark {other} after the fill")
                local.append(float(distance))
            else:
                fill.append(float(distance))
        for name, section in (("local", local), ("fill", fill)):
            if any(b < a for a, b in zip(section, section[1:])):
                problems.append(f"{peer}: {name} section not sorted: {section}")
        reachable = self._reachable(landmark)
        if len(answer) != min(k, reachable - 1):
            problems.append(f"{peer}: {len(answer)} entries, expected {min(k, reachable - 1)}")
        if problems:
            return problems
        if local and (len(local) == len(answer) == k or fill):
            problems += self._left_out_local(peer, seen, local[-1])
        if fill:
            if len(local) != self.landmark_count(landmark) - 1:
                problems.append(f"{peer}: fills across landmarks before its own is exhausted")
            problems += self._left_out_fill(peer, landmark, seen, fill[-1])
        return problems

    def _reachable(self, landmark: str) -> int:
        return sum(
            self.landmark_count(other)
            for other in self._by_hops
            if other == landmark or (landmark, other) in self._distances
        )

    def _left_out_local(self, peer: str, listed: Set[object], last: float) -> List[str]:
        up = self._up[peer]
        hops = len(up)
        problems = []
        for shared in range(hops, 0, -1):
            # dtree >= hops - shared + 2 for any peer sharing exactly `shared`.
            if hops - shared + 2 >= last:
                break
            for other in self._below.get(up[:shared], ()):
                if other == peer or other in listed:
                    continue
                if self.dtree(peer, other) < last:
                    problems.append(f"{peer}: left out closer peer {other}")
                    return problems
        return problems

    def _left_out_fill(self, peer: str, landmark: str, listed: Set[object], last: float) -> List[str]:
        own = len(self._up[peer])
        for other_landmark, by_hops in self._by_hops.items():
            between = self._distances.get((landmark, other_landmark))
            if other_landmark == landmark or between is None:
                continue
            for hops, members in by_hops.items():
                if own + between + hops < last and not members <= listed:
                    return [f"{peer}: fill left out a closer peer under {other_landmark}"]
        return []


# ----------------------------------------------------------------- self-test


def _population(rng: random.Random, count: int) -> Iterable[Tuple[str, str, Tuple[str, ...]]]:
    for index in range(count):
        landmark = rng.choice(["la", "la", "la", "lb"])
        region, metro, leaf = rng.randrange(3), rng.randrange(3), rng.randrange(4)
        routers = (f"{landmark}a{region}{metro}{leaf}", f"{landmark}m{region}{metro}",
                   f"{landmark}r{region}", landmark)
        if rng.random() < 0.3:
            routers = (f"c{index}",) + routers
        yield f"q{index}", landmark, routers


def self_test(seed: int = 0) -> List[str]:
    """Return the corruptions the checker failed to catch (empty: all caught)."""
    rng = random.Random(f"self-test:{seed}")
    reference = Reference({("la", "lb"): 4.0})
    population = list(_population(rng, 120))
    for peer, landmark, routers in population:
        reference.add(peer, landmark, routers)
    departed = population[-1][0]
    departed_entry = population[-1]
    reference.remove(departed)
    missed: List[str] = []
    asked = [peer for peer, landmark, _ in population[:-1] if landmark == "la"][:5]
    asked += [peer for peer, landmark, _ in population[:-1] if landmark == "lb"][:3]
    for peer in asked:
        for k in (5, 20, 60):
            good = reference.closest(peer, k)
            if reference.check(peer, k, good):
                missed.append(f"clean answer for {peer} rejected: {reference.check(peer, k, good)}")
                continue
            outside = [other for other in reference.paths if other != peer and other not in dict(good)]
            farthest = max(outside, key=lambda other: reference.estimate(peer, other) or 0.0)
            corrupt = {
                "swapped neighbour": [(farthest, good[0][1])] + good[1:],
                "departed peer": good[:-1] + [(departed, good[-1][1])],
                "unsorted list": list(reversed(good)),
                "closer peer left out": good[1:] + [(farthest, reference.estimate(peer, farthest))],
            }
            if good[0][1] == good[-1][1]:
                del corrupt["unsorted list"]  # all ties: order is free
            for name, answer in corrupt.items():
                if not reference.check(peer, k, answer):
                    missed.append(f"{name} for {peer} (k={k}) not caught")
    reference.add(*departed_entry)
    return missed


if __name__ == "__main__":
    failures = self_test()
    for failure in failures:
        print(failure)
    print("reference self-test:", "FAILED" if failures else "every corruption caught")
    sys.exit(1 if failures else 0)
