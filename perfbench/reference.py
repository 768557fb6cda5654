"""A fixed reference loop, timed between commands to track machine speed.

On a machine whose cores are shared with other tenants, the same
computation can take from one to two times as long from one second to the
next.  The benchmark therefore times this loop (sparse polynomial
products over ``Fraction``, like the program's own inner loops) between
commands, and scales each command's wall and CPU time by
``NOMINAL_S / t`` where ``t`` is the mean of the loop times just before
and just after that command.  Scaled times are the times at the speed at
which the loop takes ``NOMINAL_S``; the unscaled ones go to the run's
context line.
"""

from __future__ import annotations

import time
from fractions import Fraction

NOMINAL_S = 0.001
_ROUNDS = 3
_A = {(i, j, 3 - i): Fraction(i + 1, j + 2) for i in range(4) for j in range(2)}
_B = {(j, i, 1): Fraction(2 * i - 3, j + 1) for i in range(3) for j in range(3)}


def _loop():
    out = {}
    for _ in range(_ROUNDS):
        for (a1, a2, a3), c1 in _A.items():
            for (b1, b2, b3), c2 in _B.items():
                m = (a1 + b1, a2 + b2, a3 + b3)
                out[m] = out.get(m, 0) + c1 * c2
    return out


def reference_time() -> tuple[float, float]:
    """Wall and CPU seconds of one run of the reference loop."""
    wall, cpu = time.perf_counter(), time.process_time()
    _loop()
    return time.perf_counter() - wall, time.process_time() - cpu
