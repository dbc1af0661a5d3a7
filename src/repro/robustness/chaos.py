"""The ``FAURE_CHAOS`` fault protocol: process-level chaos hooks.

The chaos suite (``tests/chaos/``) kills or stalls a real process at a
chosen instant, through the production code path, by setting the
``FAURE_CHAOS`` environment variable.  Its value is ``;``-separated
directives:

* ``die-after-records:<n>:<sentinel>`` — hard-exit the process after
  the checkpoint journal (or the serve WAL) appends ``<n>`` records
  (:mod:`repro.robustness.checkpoint`);
* ``compact-die:<sentinel>`` — hard-exit a serve compaction between
  the snapshot fsync and segment retirement (:mod:`repro.serve.state`);
* ``serve-hang-apply:<seconds>:<sentinel>`` — stall the serve ingest
  thread before an apply (:mod:`repro.serve.server`).

Every directive fires once: the first process to create its sentinel
file claims it, so a restarted process runs clean.  Unset means no
faults.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

__all__ = ["chaos_directives", "sentinel_fires"]


def chaos_directives(env: Optional[str] = None) -> List[Tuple[str, ...]]:
    """Parse the ``FAURE_CHAOS`` schedule into colon-split directives."""
    raw = os.environ.get("FAURE_CHAOS", "") if env is None else env
    directives: List[Tuple[str, ...]] = []
    for part in raw.split(";"):
        part = part.strip()
        if part:
            directives.append(tuple(part.split(":")))
    return directives


def sentinel_fires(path: str) -> bool:
    """Atomically claim a once-only fault; False if it already fired."""
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True
