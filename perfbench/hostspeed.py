"""Host-speed probe: time a fixed reference kernel while the workload runs.

On a shared VM the host's speed drifts by up to +-40% for tens of seconds
at a time, and two sets of runs taken minutes apart can differ by more
than any useful bound.  So every timed command runs under a ``Probe``: a
SIGALRM interval timer runs ``kernel`` (a fixed numpy workload that does
not touch dimerlab) every ``INTERVAL`` seconds of the command, at the
next bytecode boundary.  The command's time minus the probe time, scaled
by ``NOMINAL`` / (median probe time), is its time on a host where the
kernel takes ``NOMINAL`` seconds.  A change to dimerlab cannot move the
kernel, so a real speed-up shows in full.

Set-up is mostly import and is not interrupted; ``slowdown()``, run
right after it, scales it instead.

The kernel is numpy on an array of the shape the batched transfer sweep
uses (256 replicas x 9 transition pairs).  On a 2-CPU Xeon VM its time
tracked the passes of all three workloads with a log-log slope of 0.7
to 1.1; pure-Python, dict-lookup and memory-bound kernels gave 0.4 to 1.6.
"""
from __future__ import annotations

import signal
import time
from statistics import median

INTERVAL = 0.01             # seconds of command time between probes
NOMINAL = 6.0e-4            # kernel seconds that define the nominal host speed
CALIBRATION = 0.2           # seconds of back-to-back kernel runs in slowdown()

_A = None


def kernel() -> float:
    """The reference work: numpy on a 256 x 9 array, 8 times."""
    global _A
    import numpy as np  # here, so that set-up time still counts numpy's import

    if _A is None:
        _A = np.random.default_rng(0).standard_normal(256 * 9)
    s = 0.0
    for _ in range(8):
        s += float(np.logaddexp(_A, _A[::-1]).sum())
    return s


def _timed_kernel() -> float:
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t


def slowdown() -> float:
    """Host slowdown against nominal, from the kernel run back to back."""
    samples = [_timed_kernel()]
    end = time.perf_counter() + CALIBRATION
    while time.perf_counter() < end:
        samples.append(_timed_kernel())
    return median(samples) / NOMINAL


class Probe:
    """Samples the kernel's time during a ``with`` block.

    One sample is taken on entry, before the caller's clock starts, so a
    block too short for the timer still has one.  ``spent`` is the probe
    time inside the block, which ``scaled`` removes.
    """

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0
        self._old = None

    def _on_alarm(self, signum, frame) -> None:
        dt = _timed_kernel()
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self) -> "Probe":
        self.samples.append(_timed_kernel())
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    @property
    def slowdown(self) -> float:
        """Host slowdown against nominal: above 1 when the host runs slow."""
        return median(self.samples) / NOMINAL

    def scaled(self, seconds: float) -> float:
        """``seconds`` measured around the block, at nominal host speed."""
        return (seconds - self.spent) / self.slowdown
