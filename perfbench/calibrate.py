"""Fixed reference jobs that measure the machine's current speed.

The measuring host is shared: each of its two vCPUs drifts in speed by up to
2x, on its own, in stretches of a tenth of a second to minutes, with no steal
time.  So raw wall times of the same code wander between runs by more than
any bound worth having.  The benchmark therefore cuts every timed op into
segments of at most about 0.1 s (worker.OpTimer) and runs a reference job
at every cut, on the same CPU.  A segment's time is scaled by the job's
REFERENCE_SECONDS over the mean time of the jobs at its two ends; the scaled
op time reads as if the CPU had run at the reference speed throughout.

A job must be slowed by the host as the op is, so there are two, and each
workload names its own (workloads.REFERENCE_JOB, by kind of op):
- "interpreter": what varjet's symbolic kernel does most, Fraction
  arithmetic, dicts keyed by tuples and sorting.  Set-up samples (imports)
  are scaled by it too.
- "stream": numpy arithmetic streaming over two 8 MiB arrays, larger than
  L2 like the residual-grid arrays.  The interpreter job does not track the
  memory-bound stencils, and this one does in part.
Neither uses varjet, so no change to the program under test can move them.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

# about each job's time on a 2-vCPU Xeon VM at 2.0 GHz with Python 3.11 in
# its fast stretches; they set the scale of the reported times, not their
# spread, and must not change between two commits that are compared
REFERENCE_SECONDS = {"interpreter": 0.006, "stream": 0.004}

_KEYS = [(i % 13, (i * 7) % 11, i % 3) for i in range(200)]
_COEFFS = [Fraction((i % 9) - 4 or 1, 1 + i % 5) for i in range(200)]


def interpreter_job() -> int:
    acc = {}
    for k in range(4):
        for key, c in zip(_KEYS, _COEFFS):
            term = (key[0] + k, key[1], key[2])
            acc[term] = acc.get(term, 0) + c * c - c / (k + 1)
    return len(sorted(acc.items(), key=lambda kv: (kv[0], kv[1])))


_streams = []


def stream_job() -> None:
    if not _streams:  # allocated on first use, in the process that streams
        _streams.extend([np.ones(1 << 20), np.ones(1 << 20)])
    a, b = _streams
    for _ in range(2):
        np.multiply(a, 1.0, out=b)
        np.add(b, 0.0, out=a)


JOBS = {"interpreter": interpreter_job, "stream": stream_job}


def probe(job: str = "interpreter") -> float:
    """Seconds the named reference job takes now."""
    run = JOBS[job]
    start = time.perf_counter()
    run()
    return time.perf_counter() - start
