"""likwid-server: concurrent measurement sessions over shared nodes.

The tenth front-end (ISSUE 9).  Standalone tools resolve uncore
contention by degrading (socket lock held → NaN); the server resolves
it by *scheduling* — a deficit-fair wait queue with aging, virtual-
clock deadlines, and preemption of over-held leases through the
crash-recovery machinery — while every granted session still runs the
exact PR 3 measurement pipeline and returns results bit-identical to
a standalone run.
"""

from repro.retry import NO_RETRY, RetryPolicy
from repro.server.chaos import ChaosPlan, ChaosState
from repro.server.client import (ServerClient, SyncServerClient,
                                 parse_endpoint)
from repro.server.ingest import (ServerIngestSink, batch_from_dict,
                                 batch_to_dict)
from repro.server.loadtest import (LoadTestConfig, LoadTestReport,
                                   generate_requests, run_load_test)
from repro.server.protocol import (ProtocolServer, recover_protocol,
                                   request_from_dict, request_to_dict)
from repro.server.scheduler import (NodeResidue, NodeScheduler,
                                    ServerSession, SessionRequest,
                                    SessionState)
from repro.server.server import ReproServer, SessionHandle
from repro.server.wal import ServerWal, WalReplay
from repro.server.workload import (results_identical, run_standalone,
                                   sockets_of)

__all__ = [
    "ChaosPlan", "ChaosState", "LoadTestConfig", "LoadTestReport",
    "NO_RETRY", "NodeResidue", "NodeScheduler", "ProtocolServer",
    "ReproServer", "RetryPolicy", "ServerClient", "ServerIngestSink",
    "ServerSession", "ServerWal", "SessionHandle", "SessionRequest",
    "SessionState", "SyncServerClient", "WalReplay",
    "batch_from_dict", "batch_to_dict", "generate_requests",
    "parse_endpoint", "recover_protocol", "request_from_dict",
    "request_to_dict", "results_identical", "run_load_test",
    "run_standalone", "sockets_of",
]
