"""Pass timing in reference seconds: wall time corrected for the machine's speed.

On a small shared VM the same computation runs at speeds up to 2x apart,
for a second at a time or for minutes, set by what other tenants run on the
host.  A fixed pure-Python loop slows down with the program, so the clock
cuts a pass into steps of STEP_S wall seconds with an interval timer, times
the loop at every cut, and scales each step by how fast the loop ran around
it:

    ref_s = sum over steps of  step_s * REF_LOOP_S / loop_s

where `loop_s` is the mean of the loop timings just before and just after
the step.  A result in reference seconds is the wall time the pass takes
when the loop runs in REF_LOOP_S, about the loop's median time on the 2-core
box the benchmark was written on.  The loop runs from the timer's signal
handler, between two bytecodes of the pass, and its own time is never
counted in a pass.  Wall seconds are kept alongside.
"""

from __future__ import annotations

import signal
import time

REF_LOOP_ITERATIONS = 200_000
REF_LOOP_S = 0.020
STEP_S = 0.25


def reference_loop() -> float:
    """Seconds taken by a fixed arithmetic loop that touches no sidonpds code.

    Its working set is a few objects, so its time does not depend on what the
    program left in the caches: a loop walking a few MB ran twice as slowly
    after a program step as on its own, and would have shrunk the reference
    time of any change that made the program use more memory.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


class Clock:
    """Times one pass as a chain of steps, each bracketed by the reference loop.

    With `steps=False` the loop runs only before and after the whole pass:
    traced passes run that way, so that no loop runs inside a span of the
    library.
    """

    def __init__(self, steps: bool = True):
        self.steps = steps
        self.wall_s = 0.0
        self.ref_s = 0.0
        self.loop_s: list[float] = []

    def __enter__(self):
        self._prev_loop = reference_loop()
        self.loop_s.append(self._prev_loop)
        self._t0 = time.perf_counter()
        if self.steps:
            self._handler = signal.signal(signal.SIGALRM, self._close_step)
            signal.setitimer(signal.ITIMER_REAL, STEP_S, STEP_S)
        return self

    def __exit__(self, *exc):
        if self.steps:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._handler)
        self._close_step()
        return False

    def _close_step(self, *_signal_args) -> None:
        step = time.perf_counter() - self._t0
        loop = reference_loop()
        self.loop_s.append(loop)
        self.wall_s += step
        self.ref_s += step * REF_LOOP_S / ((self._prev_loop + loop) / 2)
        self._prev_loop = loop
        self._t0 = time.perf_counter()
