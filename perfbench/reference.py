"""A fixed pure-Python loop that measures how fast the machine runs right now.

The benchmark was built on a 2-vCPU virtual machine on a shared host, whose
speed drifts by 25 % to 100 % over seconds to minutes, on both CPUs at once
and for any code.  The runner times this loop between checks and scales
every check time by ``REFERENCE_S`` over the loop's local time, which
reports each check at one fixed machine speed.  Over ten runs of the
taxonomy workload, this cut the spread of throughput (interquartile range
over median) from 0.18 to 0.04.

The loop does the kind of work the package does in the interpreter: integer
arithmetic modulo a prime, and stores into a small dict.  It depends on
nothing in the package, so a change to the package cannot change it.
"""

from __future__ import annotations

from time import perf_counter

# The loop's usual time on the machine the benchmark was built on (Intel Xeon
# vCPU at 2.1 GHz, CPython 3.11.7), so scaled times stay close to that
# machine's wall-clock times.
REFERENCE_S = 250e-6


def reference_loop() -> int:
    s = 0
    table = {}
    for i in range(2000):
        s = (s * 31 + i) % 65521
        table[i & 63] = s
    return s


def time_reference() -> float:
    t0 = perf_counter()
    reference_loop()
    return perf_counter() - t0
