"""A fixed reference job that measures the machine's speed during a pass.

On a shared virtual machine the speed of the same code drifts by tens of
percent within seconds and over minutes, because of load elsewhere on the
host; user plus system CPU time drifts with it.  So every untraced pass runs
this job when it starts, every EVERY_S seconds while it runs (from a timer
signal, between two Python bytecodes) and when it ends, and is scaled by the
mean speed of those samples (worker.py).  The samples leave the pass's times.

The job does not use castleqec, so no change to the program moves it.  It
has three parts in the program's kinds of work: a pure-Python loop
(interpreter), table gathers over a block of 1024 words of length 256 with a
weight histogram, as in the fallback enumeration kernel (memory), and row
reduction of a 96 x 256 matrix through field tables (linalg).  Each part is
timed on its own and compared with NOMINAL_S, about its fastest time on the
2-core Xeon VM the benchmark was defined on.
"""

import random
import signal
import time

import numpy as np

NOMINAL_S = {"python": 0.08, "kernel": 0.065, "linalg": 0.08}
EVERY_S = 2.0

_Q = 64
_random = random.Random(20160722)  # not numpy.random: the program does not load it, and it holds 6 MB


def _table(shape, low=0):
    """A uint16 array of the given shape with entries in [low, _Q)."""
    count = int(np.prod(shape))
    data = np.frombuffer(_random.randbytes(count), dtype=np.uint8).reshape(shape)
    return (data % (_Q - low) + low).astype(np.uint16)


_ADD, _MUL, _INV, _NEG = _table((_Q, _Q)), _table((_Q, _Q)), _table((_Q,), low=1), _table((_Q,))
_M = _table((96, 256))
# the kernel part's block of 1024 words of length 256, as offsets into _ADD's
# rows, and its buffers: allocated once, so that a sample adds nothing to the
# pass's peak memory
_SHIFTS = _table((64, 256))
_BLOCK = _table((1024, 256))
_BLOCK *= _Q
_INDEX = np.zeros(_BLOCK.shape, dtype=np.intp)  # the index type take() would convert to
_WORDS = np.zeros_like(_BLOCK)


def _python():
    total, seen = 0, {}
    for i in range(600_000):
        total += i % 7
        seen[i & 255] = total
    return total


def _kernel():
    counts = np.zeros(257, dtype=np.int64)
    for shift in _SHIFTS:
        np.add(_BLOCK, shift, out=_INDEX)
        np.take(_ADD, _INDEX, out=_WORDS)
        counts += np.bincount(np.count_nonzero(_WORDS, axis=1), minlength=257)
    return counts


def _linalg():
    for _ in range(2):
        R = _M.copy()
        r = 0
        for col in range(R.shape[1]):
            if r == R.shape[0]:
                break
            nz = np.nonzero(R[r:, col])[0]
            if len(nz) == 0:
                continue
            i = r + int(nz[0])
            if i != r:
                R[[r, i]] = R[[i, r]]
            R[r] = _MUL[_INV[R[r, col]], R[r]]
            mask = R[:, col] != 0
            mask[r] = False
            R[mask] = _ADD[R[mask], _MUL[_NEG[R[mask, col]][:, None], R[r][None, :]]]
            r += 1
    return R


JOBS = {"python": _python, "kernel": _kernel, "linalg": _linalg}


def speed():
    """Machine speed relative to NOMINAL_S, by wall and by CPU clock.

    Each is the mean over the parts of nominal / measured time.  The CPU
    clock leaves out time in which the host ran something else on this
    virtual CPU (steal).
    """
    ratios = {"wall": [], "cpu": []}
    for name, job in JOBS.items():
        wall, cpu = time.perf_counter(), time.process_time()
        job()
        ratios["wall"].append(NOMINAL_S[name] / (time.perf_counter() - wall))
        ratios["cpu"].append(NOMINAL_S[name] / (time.process_time() - cpu))
    return {clock: sum(values) / len(values) for clock, values in ratios.items()}


class Sampler:
    """Samples speed() on entry, every EVERY_S seconds inside the block, and on exit.

    wall_s and cpu_s are what the samples inside the block took, to be taken
    out of the block's own times; speed is the mean sample, by clock.
    """

    def __init__(self):
        self.samples = []
        self.wall_s = self.cpu_s = 0.0

    def _sample(self, signum, frame):
        wall, cpu = time.perf_counter(), time.process_time()
        self.samples.append(speed())
        self.wall_s += time.perf_counter() - wall
        self.cpu_s += time.process_time() - cpu

    def __enter__(self):
        speed()  # warm-up: first use of the arrays and code in this process
        self.samples.append(speed())
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(speed())

    @property
    def speed(self):
        return {clock: sum(s[clock] for s in self.samples) / len(self.samples) for clock in ("wall", "cpu")}
