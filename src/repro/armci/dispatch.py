"""Active-message dispatch ids used by the ARMCI protocols."""

from __future__ import annotations

#: Remote memory-region cache miss service (Section III-B).
REGION_QUERY = 1
#: Active-message get of any datatype: the target reads (packs) the
#: remote side and streams the data back (Section III-C.1, Eq. 8).
GET_REQUEST = 2
#: Active-message put of any datatype: the payload is written (unpacked)
#: through the remote side by the target's progress engine.
PUT_REQUEST = 3
#: Atomic accumulate (associative, serviced by the progress engine).
ACC_REQUEST = 4
#: Software tree-collective message (process groups).
GROUP_MESSAGE = 12

#: Reverse map id -> name, for protocol-level service logs (repro.verify)
#: and debug output.
DISPATCH_NAMES = {
    REGION_QUERY: "region_query",
    GET_REQUEST: "get_request",
    PUT_REQUEST: "put_request",
    ACC_REQUEST: "acc_request",
    GROUP_MESSAGE: "group_message",
}
