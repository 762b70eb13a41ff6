"""How fast the machine runs right now, measured inside a benchmark child.

The benchmark was defined on a shared virtual machine whose throughput
swings by up to 1.8x over periods of seconds to minutes, and by different
amounts on its two CPUs, so the same operation can take 2.5 s in one run
and 4.6 s in the next.  Taking the fastest of several executions does not
help when a slow phase outlasts a whole run.

So each child measures the machine while its operation runs.  `Sampler`
interrupts the operation every `PERIOD` seconds (SIGALRM) and times one of
four fixed probes, in turn: big-integer matrix products (like the chart
arithmetic), an int64 numpy row reduction (like Howell), dict updates
keyed by tuples (like the group tables) and a walk through a shuffled list
larger than the per-core cache (which slows when other tenants fill the
shared cache).  None of them calls the package, so a change to the package
cannot change them.  Over repeated executions of a mahler command and of
two control commands, no single probe tracked all three, because each
leans on a different resource; the four together did.

The speed index is the geometric mean over the probes of (median probe
time / `NOMINAL` probe time): 1.0 at the nominal speed, 1.3 when the
machine is 30% slower.  A calibrated time is the operation's time minus
the probes' own time, divided by the index: the seconds the operation
would take at the nominal speed.
"""

from __future__ import annotations

import math
import random
import signal
import statistics
import time
from typing import Callable, Dict, List

import numpy as np

PERIOD = 0.1  # seconds between probes while an operation runs

# The probes work on buffers made once, at import, so that they allocate
# nothing while the operation runs; child.py leaves these resident buffers
# out of the peak RSS it reports.
_M = 3**40
_A = [[(i * 7 + j * 13 + 5) ** 9 % _M for j in range(4)] for i in range(4)]
_Z = (np.arange(120 * 240, dtype=np.int64).reshape(120, 240) * 7919) % 9
_X = np.empty_like(_Z)
_T = np.empty_like(_Z)
_D = {(i, i * 3): i for i in range(3000)}
_P = list(range(1 << 17))  # one cycle through all of them (Sattolo's shuffle)
_rng = random.Random(1)
for _i in range(len(_P) - 1, 0, -1):
    _j = _rng.randrange(_i)
    _P[_i], _P[_j] = _P[_j], _P[_i]
_at = [0]  # each walk goes on where the last one stopped, into colder memory


def _bigint() -> None:
    x = _A
    for _ in range(50):
        x = [[sum(x[i][k] * _A[k][j] for k in range(4)) % _M for j in range(4)] for i in range(4)]


def _numpy() -> None:
    np.copyto(_X, _Z)
    for r in range(4):
        rest, tmp = _X[r + 1:], _T[r + 1:]
        np.outer(rest[:, r], _X[r], out=tmp)
        np.subtract(rest, tmp, out=rest)
        np.remainder(rest, 9, out=rest)


def _dict() -> None:
    for i in range(3000):
        key = (i, i * 3)
        _D[key] = _D[key] ^ 1


def _chase() -> None:
    j = _at[0]
    for _ in range(8000):
        j = _P[j]
    _at[0] = j


PROBES: Dict[str, Callable[[], None]] = {
    "bigint": _bigint, "numpy": _numpy, "dict": _dict, "chase": _chase,
}

# Median probe times, in seconds, on the machine the benchmark was defined
# on (2 vCPU Intel Xeon VM, Python 3.11, numpy 2.4) in a fast phase.  They
# only fix the scale of calibrated times.
NOMINAL = {"bigint": 0.00110, "numpy": 0.00064, "dict": 0.00065, "chase": 0.00130}


def probe(name: str) -> float:
    t0 = time.perf_counter()
    PROBES[name]()
    return time.perf_counter() - t0


def index(samples: Dict[str, List[float]]) -> float:
    """Speed index from probe times: 1.0 at nominal speed, larger is slower."""
    logs = [math.log(statistics.median(samples[k]) / NOMINAL[k]) for k in PROBES]
    return math.exp(sum(logs) / len(logs))


class Sampler:
    """Times one probe every `PERIOD` seconds while it is running."""

    def __init__(self):
        self.samples: Dict[str, List[float]] = {k: [] for k in PROBES}
        self.spent = 0.0  # seconds the probes took, to subtract from the call
        self._names = list(PROBES)
        self._tick = 0

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        name = self._names[self._tick % len(self._names)]
        self._tick += 1
        self.samples[name].append(probe(name))
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        # an operation shorter than a few periods gets its probes afterwards
        for name, times in self.samples.items():
            while len(times) < 3:
                times.append(probe(name))
