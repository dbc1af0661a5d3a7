"""Shared machinery for the chaos suite.

Faults are driven through the production ``FAURE_CHAOS`` protocol (see
:mod:`repro.robustness.chaos`): a directive names the instant to kill or
stall a real process and a sentinel file that makes the fault
once-only, so the restarted process runs clean.
"""

from __future__ import annotations

import pytest

from repro.network.forwarding import compile_forwarding
from repro.workloads.ribgen import RibConfig, generate_rib

#: Small enough that a kill/resume run stays well under the suite's
#: SIGALRM budget, big enough to have multi-path prefixes for pattern
#: queries.
RIB_PREFIXES = 8


@pytest.fixture(scope="session")
def rib():
    """A small real RIB workload: (routes, compiled forwarding)."""
    routes = generate_rib(RibConfig(prefixes=RIB_PREFIXES, as_count=40, seed=20210610))
    return routes, compile_forwarding(routes)
