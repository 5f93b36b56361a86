"""The machine-speed reference: a fixed pure-Python loop.

The 2-core VM the bounds were set on drifts between a steady slow regime
and a fast one up to 1.6 times quicker, in spells of seconds to several
minutes.  A run of 40 s can fall wholly inside a fast spell, and no
statistic of its wall times alone can tell that from a faster program.
The loop below is benchmark code the program cannot change, and it slows
and speeds up with the machine (the ratio of a busy command's wall time
to the loop times around it spread 0.025 where the wall times spread
0.083).  So the benchmark times the loop next to its commands and
reports each wall time ``t`` measured while the loop took ``r`` seconds as
``t * REFERENCE_S / r``: the time the command would take on a machine on
which the loop takes ``REFERENCE_S``.
"""
from __future__ import annotations

import time

ITERATIONS = 100_000
# the loop's time in the steady slow regime of a 2-core Intel Xeon VM, so
# scaled times read close to that machine's wall times
REFERENCE_S = 0.007


def loop_s() -> float:
    """Seconds the fixed loop takes now."""
    start = time.perf_counter()
    acc = 0
    for i in range(ITERATIONS):
        acc += i & 7
    return time.perf_counter() - start


def scaled(seconds: float, loop: float) -> float:
    """A wall time measured while the loop took ``loop`` seconds, at the
    reference speed."""
    return seconds * REFERENCE_S / loop
