"""Host-speed calibration: passes are timed at the reference host speed.

On a shared VM the host's speed changes by half or more, both in bursts of a
second or two and in drifts over minutes, the same for every kind of work at
once and in thread CPU time as much as in wall time. A pass timed in one
minute and the same pass timed ten minutes later then differ by more than
any regression worth catching. So while a pass runs, ``SpeedSampler`` times a
short fixed slice of work every ``INTERVAL_S`` seconds (from a ``SIGALRM``
handler in the same thread), and the pass's time is rescaled to the speed at
which the slice takes ``REFERENCE_S``. The slice uses nothing from the
package: a change to the package moves the pass and not the slice, so it
shows in full. Time spent in slices is taken out of the pass's time.

The slice mixes the three kinds of work the workloads do: number formatting
and parsing in interpreted loops (the sample-table writer and loader),
batch-8 matrix products in a Python loop (meta-net and classifier SGD
steps) and streaming passes over an array (EM and scoring).
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Median slice time on the reference machine, a 2-vCPU Intel Xeon VM with
# 105 MiB of L3, Python 3.11 and numpy 2.4 with OpenBLAS. It only sets the
# scale of the reported seconds; it must never change once results exist.
REFERENCE_S = 0.004
INTERVAL_S = 0.25

_rng = np.random.default_rng(20240416)
_FLOATS = _rng.standard_normal(800)
_X = _rng.standard_normal((8, 16))
_W1 = _rng.standard_normal((16, 32))
_W2 = _rng.standard_normal((32, 10))
_BIG = _rng.standard_normal(150_000)


def _slice() -> float:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    text = ",".join(repr(float(v)) for v in _FLOATS)
    total = sum(float(p) for p in text.split(","))
    x = _X
    for _ in range(120):
        h = np.maximum(x @ _W1, 0.0)
        x = _X + 1e-3 * (h @ _W2 @ _W2.T @ _W1.T)
    total += float(x.sum())
    return total + float(np.exp(-0.5 * _BIG * _BIG).sum() + np.abs(_BIG).max())


def slice_seconds() -> float:
    t0 = time.perf_counter()
    _slice()
    return time.perf_counter() - t0


def speed(slice_times: list[float]) -> float:
    """Host speed relative to the reference over the time the slices sampled.

    Work done in a span of time is proportional to the mean of 1 / slice time
    over it, so that mean (not the mean slice time) is the right average.
    """
    return REFERENCE_S * statistics.fmean(1.0 / t for t in slice_times)


def probe_speed(count: int = 8) -> list[float]:
    """Slice times back to back, for timing something that cannot be sampled."""
    return [slice_seconds() for _ in range(count)]


class SpeedSampler:
    """Times one slice every ``INTERVAL_S`` of wall time while entered.

    ``scaled(wall)`` turns the wall time of the block (timed around the
    ``with``) into seconds at the reference speed: the slices' own time is
    taken out, and the rest is multiplied by the speed the slices measured.
    A block too short for any alarm gets one slice at its end.
    """

    def __init__(self):
        self.slices: list[float] = []
        self._previous = None
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self.slices.append(slice_seconds())
        finally:
            self._busy = False

    def __enter__(self) -> "SpeedSampler":
        self.slices = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.slices:
            self.slices.append(slice_seconds())

    def sampled_seconds(self) -> float:
        return sum(self.slices)

    def scaled(self, wall: float) -> float:
        return (wall - self.sampled_seconds()) * speed(self.slices)
