"""Shared test settings, a sink that collects the states ``evolve`` drops, a
trapezoidal time quadrature over collected states, the tests' oracle for
the integral ``evolve`` accumulates, the trajectory file oracles: the
binary built by hand and the CSV built by ``np.savetxt``, a fault for the
trajectory CSV writer's forked workers, and a deadline for tests that fork.

Property tests run under one registered ``hypothesis`` profile: examples are
derived from each test's source (``derandomize``), so every run checks the
same cases; no per-example deadline, since shared machines stall at random;
and a bounded example count, so the property tests stay a few seconds.
"""

import io
import os
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import settings

from nonlocal_heat import Field
from nonlocal_heat import io as nio

settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=25,
                          database=None)
settings.load_profile("tier1")


class StateCollector:
    """A sink for ``evolve`` that keeps ``u0`` and every state of the last sweep.

    ``evolve`` only keeps ``u0`` and ``u_K``; tests that read the states
    between them pass this as ``sink``.  A block at step 0 starts a sweep.
    """

    def __init__(self, u0):
        self.rows = [np.array(u0.values)]

    def __call__(self, start, block):
        if start == 0:
            del self.rows[1:]
        self.rows.extend(np.array(block))

    @property
    def states(self):
        return np.array(self.rows)


@pytest.fixture(scope="session")  # session scope: usable under hypothesis' @given
def collector():
    """``collector(u0)`` makes a :class:`StateCollector`."""
    return StateCollector


def _trapezoid_weights(times):
    dt = np.diff(times)
    w = np.zeros(times.size)
    w[:-1] += 0.5 * dt
    w[1:] += 0.5 * dt
    return w


def trapezoid_time_integral(samples):
    """Pointwise trapezoidal rule over time samples ``(t_k, u_k)``.

    Requires at least two samples on a shared grid, strictly increasing
    times starting at 0.
    """
    samples = list(samples)
    if len(samples) < 2:
        raise ValueError("need at least two time samples")
    times = np.array([t for t, _ in samples], dtype=float)
    if times[0] != 0.0:
        raise ValueError(f"first sample time must be 0, got {times[0]}")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("sample times must be strictly increasing")
    grid = samples[0][1].grid
    for _, field in samples[1:]:
        if field.grid != grid:
            raise ValueError("all samples must share one grid")
    stacked = np.stack([field.values for _, field in samples])
    return Field(grid, _trapezoid_weights(times) @ stacked)


def trajectory_binary(n, times, states):
    """The trajectory binary layout of ``states`` ((K+1) x N) on node counts ``n``."""
    header = np.array([len(n), len(times) - 1, *n], dtype="<i8")
    return (header.tobytes() + np.asarray(times, dtype="<f8").tobytes()
            + np.asarray(states, dtype="<f8").tobytes())


def savetxt_trajectory_csv(times, states):
    """The trajectory CSV of ``states`` ((K+1) x N), as ``np.savetxt`` writes it."""
    K1, N = states.shape
    out = io.BytesIO()
    np.savetxt(out, np.column_stack((np.repeat(times, N), np.tile(np.arange(N), K1),
                                     states.ravel())),
               delimiter=",", header="t,node,value", comments="", fmt=("%.17g", "%d", "%.17g"))
    return out.getvalue()


def fail_in_workers(monkeypatch):
    """Make every forked worker of the trajectory CSV writer raise while it
    formats a block; the calling process formats its own blocks as usual."""
    parent, block_text = os.getpid(), nio._block_text

    def failing(*args):
        if os.getpid() != parent:
            raise RuntimeError("a worker's formatting failed")
        return block_text(*args)

    monkeypatch.setattr(nio, "_block_text", failing)


@contextmanager
def deadline(seconds):
    """Raise ``TimeoutError`` here after ``seconds``, so a writer that
    hangs fails its test instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
