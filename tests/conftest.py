"""Hypothesis runs a fixed set of examples, with no per-example deadline.

Derandomized runs draw the same examples on every run, so a result never
depends on the run; timing deadlines would fail on a slow or busy machine.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
