"""Shared test settings.

Property tests run under one registered ``hypothesis`` profile: examples are
derived from each test's source (``derandomize``), so every run checks the
same cases; no per-example deadline, since shared machines stall at random;
and a bounded example count, so the property tests stay a few seconds.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=25,
                          database=None)
settings.load_profile("tier1")
