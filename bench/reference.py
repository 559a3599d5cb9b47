"""Fixed pure-Python tasks that gauge how fast the host runs Python now.

On a shared host one vCPU flips between a fast and a slow state (the task
takes about 2.2 ms or about 3.8 ms on the host that set the bounds, with
the process's CPU time tracking its wall time), and the share of time spent
slow drifts over tens of seconds to minutes as other tenants come and go.
A whole 30-second run can therefore fall on a slow or a fast stretch: ten
sweep runs spread 24 % in raw throughput.

The benchmark runs a gauge task before the first timed instance and after
every one, outside the instances' time (``gauge``: once, plus once per
``GAUGE_EVERY_S`` the instance took), and divides each measured time by the
host's slowdown around that instance (``local_slowdowns``): the mean time of
the ``WINDOW`` tasks on either side of it over the task's nominal time.  The
mean, not the median, because the task's times are bimodal and the mean
tracks the share of slow time.  The figures then read as on a host of the
speed that set the nominal times, and a change to conespec still moves them
in full, because no task calls conespec.  Over five seeds on the host that
set the bounds the quartiles of the unscaled throughput spread 14 % to 19 %
of the median, by workload; over ten seeds the scaled throughput spread 2 %
to 5 %.

Each task is shaped like the inner loop of the workloads it gauges, since
the host slows code that walks megabytes of data differently from code on
a few small objects:

- ``task`` (the CLI workloads) evaluates small expression trees of frozen
  dataclasses by recursive method calls on tuples of floats, normalises
  the result and keeps sorted tuples in a dict;
- ``dense_task`` (``sparse_convex``) walks every entry of a 400 x 400 list
  of rows and sums the products of the positive ones with a vector.  Over
  19 classifications of one n = 400 matrix, whose times ranged 3.9-7.4 s,
  their correlation with the surrounding ``dense_task`` times was 0.91,
  against 0.66 with ``task``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Tuple

#: seconds of one ``task()`` on the host that set the bounds (2 vCPUs of an
#: Intel Xeon, Python 3.11.7): the median of the mean task times of ten runs
#: of the CLI workloads
NOMINAL_S = 0.0036
#: the same for ``dense_task`` on an n = 400 matrix, over five sparse runs
DENSE_NOMINAL_S = 0.0059
#: after an instance, the task runs once more per this many seconds it took
GAUGE_EVERY_S = 0.25
#: task times on each side of an instance that gauge the host around it
WINDOW = 10


@dataclass(frozen=True)
class _Coord:
    i: int

    def evaluate(self, x: Tuple[float, ...]) -> float:
        return x[self.i]


@dataclass(frozen=True)
class _Scale:
    factor: float
    arg: object

    def evaluate(self, x):
        return self.factor * self.arg.evaluate(x)


@dataclass(frozen=True)
class _Sum:
    args: tuple

    def evaluate(self, x):
        return sum(a.evaluate(x) for a in self.args)


@dataclass(frozen=True)
class _Min:
    args: tuple

    def evaluate(self, x):
        return min(a.evaluate(x) for a in self.args)


N = 8
ITERATIONS = 180
_MAP = tuple(
    _Sum((_Scale(0.5 + 0.125 * i, _Coord(i)),
          _Min((_Coord((i + 1) % N), _Scale(2.0, _Coord((3 * i + 1) % N))))))
    for i in range(N))


def task() -> float:
    """Run the fixed task once; return its wall time in seconds."""
    start = time.perf_counter()
    x = (1.0,) * N
    seen = {}
    for it in range(ITERATIONS):
        y = tuple(e.evaluate(x) for e in _MAP)
        total = sum(y)
        x = tuple(v / total for v in y)
        seen[it] = tuple(sorted(x))
    return time.perf_counter() - start


def dense_task(rows) -> float:
    """Walk every entry of `rows` once; return the wall time in seconds."""
    start = time.perf_counter()
    x = tuple(1.0 / (1 + j) for j in range(len(rows)))
    for row in rows:
        total = 0.0
        for j, w in enumerate(row):
            if w > 0.0:
                total += w * x[j]
    return time.perf_counter() - start


def gauge(run_task, seconds: float) -> list:
    """Times of `run_task` to take after an instance that ran for `seconds`."""
    return [run_task() for _ in range(1 + int(seconds / GAUGE_EVERY_S))]


def slowdown(times, nominal_s: float) -> float:
    """Mean task time over `nominal_s`; above 1 on a slow stretch."""
    return sum(times) / len(times) / nominal_s


def local_slowdowns(batches, nominal_s: float, window: int = WINDOW) -> list:
    """The host's slowdown around each instance.

    `batches[0]` holds the task times taken before the first instance and
    `batches[k + 1]` those taken right after instance k.  Instance k is
    gauged by the last `window` times before it and the first `window`
    after it.
    """
    times, ends = [], []
    for batch in batches:
        times += batch
        ends.append(len(times))
    return [slowdown(times[max(0, end - window):end + window], nominal_s)
            for end in ends[:-1]]
