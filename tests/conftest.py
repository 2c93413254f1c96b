"""Shared test settings and a sink that collects the states ``evolve`` drops.

Property tests run under one registered ``hypothesis`` profile: examples are
derived from each test's source (``derandomize``), so every run checks the
same cases; no per-example deadline, since shared machines stall at random;
and a bounded example count, so the property tests stay a few seconds.
"""

import numpy as np
import pytest
from hypothesis import settings

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
