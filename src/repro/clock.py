"""The phase-accounting clock.

Every sql/solver phase measurement (``engine.stats.Stopwatch``, the
evaluator's phase split, the solver's ``time_seconds``) reads time
through :func:`phase_clock`, the wall clock (``perf_counter``), so the
phase split is measured in the time a user waits.  This module must stay
dependency-free: it is imported from both the engine and the solver,
below every package ``__init__``.
"""

from __future__ import annotations

import time

__all__ = ["phase_clock"]

#: Current reading of the phase-accounting clock, in seconds.
phase_clock = time.perf_counter
