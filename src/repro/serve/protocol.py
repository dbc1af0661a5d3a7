"""The serve wire protocol: newline-delimited JSON requests/responses.

One request per line, one response line per request, over a plain TCP
stream.  Requests::

    {"op": "update",  "relation": "F", "values": ["p1", "A", "B"],
     "condition": "$x == 1"?, "txid": "client-key"?, "weaken": bool?}
    {"op": "query",   "relation": "R", "where": "$x == 1"?, "limit": 10?}
    {"op": "health"}
    {"op": "shutdown"}

Responses always carry ``"ok"``.  Failures mirror the CLI's exit-code
taxonomy in an ``"errno"`` field so scripts can classify them the same
way (2 = malformed request — the exit-code-2 class —, 3 = budget
exhausted, 6 = server-side failure), plus a symbolic ``"code"``::

    {"ok": false, "code": "MALFORMED", "errno": 2, "error": "..."}
    {"ok": false, "code": "OVERLOADED", "errno": 6, "retry_after": 0.05}

Degraded (but sound) answers are *successes* with a status field:
a query that exhausted its budget returns ``"status": "INCONCLUSIVE"``
with every definite row plus the rows it could not decide flagged
``"unknown": true`` — partial information, never a stall.

Validation happens *before* the write-ahead log sees an update: a
request that fails :func:`validate_update` is rejected without a log
append, so replay never encounters a malformed entry and a bad client
cannot poison the resident state.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from ..ctable.condition import Comparison
from ..ctable.parse import ParseError, TokenStream, parse_condition, parse_term, tokenize
from ..ctable.terms import Constant, Variable
from .wal import UpdateEntry

__all__ = [
    "MAX_LINE_BYTES",
    "MAX_BULK_BYTES",
    "PROTOCOL_VERSION",
    "FEATURES",
    "ServeRequestError",
    "decode_request",
    "encode",
    "error_response",
    "validate_update",
    "validate_withdraw",
    "parse_values",
    "parse_where",
]

#: Requests larger than this are refused outright (a malformed or
#: hostile client must not make the daemon buffer without bound).
MAX_LINE_BYTES = 1 << 20

#: Cap on *bulk* response lines a client will read (snapshot transfer,
#: tail batches) — large state is expected there, unbounded is not.
MAX_BULK_BYTES = 64 << 20

#: Wire protocol generation.  v1 (PR 6) speaks update/query/health/
#: shutdown; v2 adds removable facts + withdraw, replica tail/snapshot,
#: and the admin surface.  Servers advertise ``protocol`` and
#: ``features`` in health responses; clients gate v2-only requests on
#: that advertisement so an old peer produces a typed error, not a hang.
PROTOCOL_VERSION = 2

#: Capability names a v2 server advertises.
FEATURES = ("removable", "withdraw", "tail", "snapshot", "admin", "compaction")

#: errno values mirroring the CLI exit codes (see repro.cli).
ERRNO_MALFORMED = 2
ERRNO_BUDGET = 3
ERRNO_SERVE = 6

#: Symbolic code -> errno. Everything in the exit-code-2 class is a
#: request the server refused to even log; OVERLOADED/INTERNAL are
#: server-side conditions.  READ_ONLY (ingest sent to a replica),
#: UNSUPPORTED (feature the peer does not speak), UNKNOWN_GUARD and
#: COMPACTED (tail cursor below the primary's snapshot horizon) are all
#: requests the server refuses without touching its log, so they share
#: the exit-code-2 class.
ERRNO_OF = {
    "MALFORMED": ERRNO_MALFORMED,
    "UNKNOWN_RELATION": ERRNO_MALFORMED,
    "ARITY": ERRNO_MALFORMED,
    "IDB_INSERT": ERRNO_MALFORMED,
    "NON_MONOTONE": ERRNO_MALFORMED,
    "UNKNOWN_GUARD": ERRNO_MALFORMED,
    "READ_ONLY": ERRNO_MALFORMED,
    "UNSUPPORTED": ERRNO_MALFORMED,
    "COMPACTED": ERRNO_MALFORMED,
    "BUDGET": ERRNO_BUDGET,
    "OVERLOADED": ERRNO_SERVE,
    "INTERNAL": ERRNO_SERVE,
}

_OPS = (
    "update",
    "withdraw",
    "query",
    "health",
    "shutdown",
    "tail",
    "snapshot",
    "admin",
)


class ServeRequestError(Exception):
    """A request the server refuses; carries the protocol error code."""

    def __init__(self, code: str, message: str):
        if code not in ERRNO_OF:
            raise ValueError(f"unknown protocol error code {code!r}")
        super().__init__(message)
        self.code = code
        self.errno = ERRNO_OF[code]

    def response(self, **extra: Any) -> Dict[str, Any]:
        return error_response(self.code, str(self), **extra)


def error_response(code: str, message: str, **extra: Any) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "ok": False,
        "code": code,
        "errno": ERRNO_OF[code],
        "error": message,
    }
    out.update(extra)
    return out


def encode(obj: Dict[str, Any]) -> bytes:
    """One response/request as a wire line (compact, key-sorted JSON)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def decode_request(line: bytes) -> Dict[str, Any]:
    """Parse and shape-check one request line."""
    if len(line) > MAX_LINE_BYTES:
        raise ServeRequestError("MALFORMED", "request exceeds the line size limit")
    try:
        obj = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ServeRequestError("MALFORMED", f"not a JSON request: {exc}") from exc
    if not isinstance(obj, dict):
        raise ServeRequestError("MALFORMED", "request must be a JSON object")
    op = obj.get("op")
    if op not in _OPS:
        raise ServeRequestError("MALFORMED", f"unknown op {op!r} (want one of {_OPS})")
    return obj


# -- update validation (parse-before-log) ------------------------------------


def parse_values(raw_values: List[Any]) -> List[Any]:
    """Parse raw value strings into terms, CLI update-spec style.

    Identifiers resolve to constants (an update carries data, not
    program variables); ``$x`` spellings resolve to c-variables through
    the shared term grammar.
    """
    terms = []
    for raw in raw_values:
        if not isinstance(raw, str) or not raw.strip():
            raise ServeRequestError("MALFORMED", f"bad value {raw!r}: want a term string")
        try:
            stream = TokenStream(tokenize(raw), raw)
            term = parse_term(stream, resolve_ident=lambda n: Constant(n))
            if not stream.exhausted:
                tok = stream.peek()
                raise ParseError(f"trailing input {tok[1]!r}", tok[2], raw)
        except ParseError as exc:
            raise ServeRequestError("MALFORMED", f"bad value {raw!r}: {exc}") from exc
        terms.append(term)
    return terms


def parse_where(raw: Optional[str]):
    """Parse an optional condition string (update condition or query filter).

    A wire condition speaks about c-variables only.  A bare lowercase
    identifier parses as a *program* variable, which no solver or
    evaluator can decide, so it is refused here as ``MALFORMED`` —
    before an update reaches the WAL and before a query scans a row.
    """
    if raw is None:
        return None
    if not isinstance(raw, str):
        raise ServeRequestError("MALFORMED", f"bad condition {raw!r}: want a string")
    try:
        condition = parse_condition(raw)
    except ParseError as exc:
        raise ServeRequestError("MALFORMED", f"bad condition {raw!r}: {exc}") from exc
    for atom in condition.atoms():
        if isinstance(atom, Comparison):
            for term in (atom.lhs, atom.rhs):
                if isinstance(term, Variable):
                    raise ServeRequestError(
                        "MALFORMED",
                        f"bad condition {raw!r}: {term.name!r} is not a "
                        f"c-variable (write ${term.name}) or a constant",
                    )
    return condition


def validate_update(obj: Dict[str, Any]) -> UpdateEntry:
    """Shape-check an update request into an (unsequenced) WAL entry.

    Only wire-level validation happens here (field types, term and
    condition grammar); the state layer separately checks the entry
    against the schema and the program (relation exists, arity,
    EDB-only, monotone) — both before the WAL append.
    """
    relation = obj.get("relation")
    if not isinstance(relation, str) or not relation:
        raise ServeRequestError("MALFORMED", "update needs a 'relation' string")
    raw_values = obj.get("values")
    if not isinstance(raw_values, list) or not raw_values:
        raise ServeRequestError("MALFORMED", "update needs a non-empty 'values' list")
    parse_values(raw_values)  # grammar check; terms are rebuilt at apply
    condition = obj.get("condition")
    parse_where(condition)
    txid = obj.get("txid")
    if txid is not None and not isinstance(txid, str):
        raise ServeRequestError("MALFORMED", "'txid' must be a string")
    weaken = obj.get("weaken", False)
    if not isinstance(weaken, bool):
        raise ServeRequestError("MALFORMED", "'weaken' must be a boolean")
    if weaken and condition is None:
        raise ServeRequestError("MALFORMED", "a weaken update needs a 'condition'")
    removable = obj.get("removable", False)
    if not isinstance(removable, bool):
        raise ServeRequestError("MALFORMED", "'removable' must be a boolean")
    if removable and weaken:
        raise ServeRequestError(
            "MALFORMED",
            "a weaken widens an existing fact's worlds; only a fresh insert "
            "can be 'removable' (it gets its own guard c-variable)",
        )
    return UpdateEntry(
        kind="weaken" if weaken else "insert",
        relation=relation,
        values=tuple(raw_values),
        condition=condition,
        txid=txid,
        # The guard *name* is assigned at sequencing time (it embeds the
        # WAL seq); the sentinel "" marks the entry as wanting one.
        guard="" if removable else None,
    )


def validate_withdraw(obj: Dict[str, Any]) -> UpdateEntry:
    """Shape-check a withdraw request into an (unsequenced) WAL entry.

    Withdrawal is the paper's guard-variable encoding: the request names
    the guard handle the original removable insert returned, and the
    durable entry records an *assignment* of that guard — existence of
    the guard (and whether it was already withdrawn) is the state
    layer's admission check, exactly like schema checks for inserts.
    """
    guard = obj.get("guard")
    if not isinstance(guard, str) or not guard:
        raise ServeRequestError(
            "MALFORMED",
            "withdraw needs the 'guard' handle returned by the removable insert",
        )
    txid = obj.get("txid")
    if txid is not None and not isinstance(txid, str):
        raise ServeRequestError("MALFORMED", "'txid' must be a string")
    return UpdateEntry(
        kind="withdraw",
        relation=obj.get("relation") if isinstance(obj.get("relation"), str) else "",
        values=(),
        condition=None,
        txid=txid,
        guard=guard,
    )
