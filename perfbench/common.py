"""Shared plumbing: import path, clocks, sample summaries, op accounting."""

from __future__ import annotations

import gc
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

now_ns = time.monotonic_ns  # one clock, shared with the shard process


def use_source_tree() -> None:
    """Import the program from the checkout's ``src`` (fails if it is absent)."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"perfbench: no program source under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def interquartile_mean(values: Sequence[float]) -> float:
    """Mean of the middle half of the values.

    Steadier than the median when the values fall in two clusters of
    similar weight (the median then jumps between them from run to run),
    and, unlike the mean, blind to the rare host stall in the top quarter.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return sum(middle) / len(middle)


class Ops:
    """Counts attempted and failed calls; a call that raises is a failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: Dict[str, int] = {}

    def timed(self, samples: Optional[List[float]], call: Callable, *args):
        """Run one call, append its duration in µs to ``samples``; ``None`` on failure."""
        self.attempted += 1
        started = now_ns()
        try:
            result = call(*args)
        except Exception as error:  # noqa: BLE001 - a failed op is counted, not fatal
            self.failed += 1
            key = f"{type(error).__name__}: {error}"[:160]
            self.errors[key] = self.errors.get(key, 0) + 1
            return None
        if samples is not None:
            samples.append((now_ns() - started) / 1000.0)
        return result


PROBLEMS_SHOWN = 20  # findings printed in full; the rest are only counted


class Problems:
    """Correctness findings; the run stays incorrect once any is recorded."""

    def __init__(self) -> None:
        self.count = 0
        self.shown: List[str] = []

    def extend(self, found: Sequence[str]) -> None:
        for problem in found:
            self.count += 1
            if len(self.shown) < PROBLEMS_SHOWN:
                self.shown.append(problem)

    def add(self, problem: str) -> None:
        self.extend([problem])


SETUP_REPEATS = 5


def median_setup(build: Callable[[], object], discard: Callable[[object], None]):
    """Build ``SETUP_REPEATS`` times; keep the last build, return it and the median seconds.

    Each earlier build is discarded and collected before the next starts,
    so every build runs on the same live heap.
    """
    seconds: List[float] = []
    built = None
    for attempt in range(SETUP_REPEATS):
        if built is not None:
            discard(built)
            built = None
        gc.collect()
        started = now_ns()
        built = build()
        seconds.append((now_ns() - started) / 1e9)
    return built, median(seconds)
