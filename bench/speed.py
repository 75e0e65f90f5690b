"""The host's speed, read from a fixed reference computation.

On a shared virtual machine the same code ran at speeds up to 50 %
apart, in phases lasting from seconds to minutes, with process CPU time
equal to wall time: the CPU itself was slower, no time was stolen.  A
20 s run that falls in a slow phase has no fast pass, so even the
fastest pass moved by up to 30 % between runs of the same code.

So the benchmark also times a fixed computation, one that uses no
slsolve code, about once a second between its passes.  The fastest pass
and the fastest reference computation of a run both estimate the
machine at its best in that run, and their ratio depends far less on
the phase than either does (a busy phase still slows Python-heavy
passes more than it slows this computation).  A pass time is reported
as ``fastest pass * REFERENCE_S / fastest reference``: the fastest pass
on a machine where the reference computation takes REFERENCE_S seconds.

The reference computation mixes what slsolve spends its time on: a
dense generalized symmetric eigensolve through LAPACK (size 300) and a
pure-Python loop of float arithmetic.  BLAS runs on one thread.
"""

import math
from time import perf_counter

import numpy as np
import scipy.linalg

# Seconds of one reference computation on the reference machine: about
# its fastest on the 2-core Xeon virtual machine the benchmark was built
# on, so scaled times read close to that machine's fastest wall times.
REFERENCE_S = 0.0175
SIZE = 300
LOOP = 30000
REPEATS = 3


class Reference:
    """The fixed computation; ``measure`` returns its time in seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((SIZE, SIZE))
        self.a = m @ m.T + SIZE * np.eye(SIZE)
        self.b = np.diag(rng.uniform(1.0, 2.0, SIZE))
        self.measure()  # warm-up

    def once(self):
        start = perf_counter()
        scipy.linalg.eigh(self.a, self.b)
        total = 0.0
        for i in range(LOOP):
            total += math.sin(i) * i
        return perf_counter() - start

    def measure(self):
        return min(self.once() for _ in range(REPEATS))


def scale(measurements):
    """Factor from a run's fastest wall seconds to reference-machine
    seconds, given the run's reference computation times."""
    return REFERENCE_S / min(measurements)
