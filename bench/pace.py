"""Steady timings on a shared host.

On a shared host the same Python work runs up to about twice as slow, for
seconds to minutes at a time, as other tenants load the machine, and its
vCPUs are loaded independently.  A plain rounds/seconds ratio over a 20 s run
then varies by about 25% from run to run.  Three measures steady it:

- Fastest CPU.  Each child process is pinned to the CPU that runs the
  reference work fastest just before it starts (:func:`fastest_cpu`).
- Best per slice.  Every unit of a workload does the same sequence of work,
  so each unit is cut into ``SEGMENTS`` slices of equal rounds, every slice
  is timed, and for each slice the fastest time any unit of the run took
  counts (:func:`best_unit`).  Their sum is the time of one unit at the best
  speed seen, slice by slice.  Repetitions of 1e5 rounds are longer than a
  slice, so a sampler thread reads the round counter ``t`` of the running
  ``run_single`` frame every ``INTERVAL_S`` seconds.  It reads, and never
  changes, the program's state; it installs nothing in the program.
- Reference speed.  The same process, on the same CPU, times a fixed piece
  of Python that does not use the program (:func:`reference_seconds`) after
  every unit and after every set-up probe.  Reported times are scaled by
  ``REFERENCE_NOMINAL_S / reference``: they read as if the host ran the
  reference work in ``REFERENCE_NOMINAL_S``, so a slow spell that spans a
  whole run, or a whole series of runs, moves them less.
"""

import math
import os
import random
import sys
import threading
import time

SEGMENTS = 32
INTERVAL_S = 0.01
# Best reference_seconds() on an unloaded CPU of a 2-vCPU Xeon, Python 3.11.
REFERENCE_NOMINAL_S = 0.0033


class Clock:
    """Timed pieces of each unit, and progress samples inside them.

    A piece is ``(start, end, rounds, token)``: wall times of one timed call
    sequence, the rounds it simulated, and the token under which the sampler
    filed its progress samples (None for pieces that simulate no rounds).
    """

    def __init__(self):
        self.units = []
        self.samples = {}
        self.active = None
        self._tokens = 0

    def start_unit(self) -> None:
        self.units.append([])

    def begin(self, simulates: bool) -> float:
        if simulates:
            self._tokens += 1
            self.active = self._tokens
        return time.perf_counter()

    def end(self, start: float, rounds: int = 0) -> None:
        end = time.perf_counter()
        token, self.active = self.active, None
        self.units[-1].append((start, end, rounds, token))

    def unit_seconds(self) -> list:
        return [sum(end - start for start, end, _, _ in unit) for unit in self.units]


class ProgressSampler:
    """Context manager running the sampler thread for a :class:`Clock`."""

    def __init__(self, clock: Clock, code):
        self._clock = clock
        self._code = code
        self._main = threading.get_ident()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            now = time.perf_counter()
            frame = sys._current_frames().get(self._main)
            while frame is not None and frame.f_code is not self._code:
                frame = frame.f_back
            token = self._clock.active
            if frame is None or token is None:
                continue
            t = frame.f_locals.get("t")
            if t is not None:
                # Round t is under way, so t - 1 rounds are done.
                self._clock.samples.setdefault(token, []).append((now, t - 1))


def _curve(pieces, samples) -> list:
    """``(timed seconds, rounds done)`` points through one unit."""
    clock, done = 0.0, 0
    points = [(clock, done)]
    for start, end, rounds, token in pieces:
        for wall, t in samples.get(token, ()):
            if start < wall < end and 0 <= t <= rounds:
                points.append((clock + wall - start, done + t))
        clock += end - start
        done += rounds
        points.append((clock, done))
    return points


def _crossing(points, target: float) -> float:
    for (c1, p1), (c2, p2) in zip(points, points[1:]):
        if p1 < target <= p2:
            return c1 + (c2 - c1) * (target - p1) / (p2 - p1)
    raise ValueError(f"progress never reaches {target}")


def _segment_seconds(points) -> list:
    total_clock, total_rounds = points[-1]
    marks = [0.0]
    marks += [_crossing(points, total_rounds * j / SEGMENTS) for j in range(1, SEGMENTS)]
    marks.append(total_clock)
    return [b - a for a, b in zip(marks, marks[1:])]


def best_unit(clock: Clock) -> tuple:
    """``(rounds, seconds)`` of one unit at the fastest time seen per slice.

    Only units that simulated the full round count take part, so a unit cut
    short by a failure cannot win a slice it did not run.
    """
    curves = [_curve(unit, clock.samples) for unit in clock.units]
    rounds = max(curve[-1][1] for curve in curves)
    per_unit = [_segment_seconds(c) for c in curves if c[-1][1] == rounds]
    return rounds, sum(min(column) for column in zip(*per_unit))


def reference_seconds(bursts: int = 3) -> float:
    """Fastest of ``bursts`` runs of a fixed toy bandit loop of about 3 ms.

    It makes calls, float math, stdlib random draws and list updates, and
    touches nothing of the program under test.
    """
    best = math.inf
    for _ in range(bursts):
        start = time.perf_counter()
        rng = random.Random(12345)
        counts = [0] * 5
        sums = [0.0] * 5
        for t in range(1, 2001):
            bonus = math.log(t + 1.0)
            arm = max(range(5), key=lambda k: sums[k] / (counts[k] + 1) + math.sqrt(bonus / (counts[k] + 1)))
            counts[arm] += 1
            sums[arm] += (1.0 - rng.random()) ** -0.5
        best = min(best, time.perf_counter() - start)
    return best


def fastest_cpu():
    """The CPU of this process's affinity set that runs Python fastest now.

    One vCPU can run the same code at half the speed of the other for
    minutes, and a child left to the scheduler lands on either.  Returns None
    when there is only one CPU to choose from.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    try:
        speeds = {}
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            speeds[cpu] = reference_seconds()
    finally:
        os.sched_setaffinity(0, cpus)
    return min(speeds, key=speeds.get)
