"""Hypothesis runs a fixed set of examples, with no per-example deadline.

Derandomized runs draw the same examples on every run, so a result never
depends on the run; timing deadlines would fail on a slow or busy machine.

On a failing example the Hypothesis plugin imports its patch writer, whose
``libcst`` import raises a ``DeprecationWarning`` that the suite's filters
turn into an error, ending the whole run.  Imported here once, with that
warning ignored, it is already loaded then, and the failure is reported as
one failed test.
"""

import contextlib
import warnings

from hypothesis import settings

with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
