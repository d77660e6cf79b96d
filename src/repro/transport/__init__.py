"""Data-plane transports.

The paper's custom protocol directly on TCP (framing + connection + rpc)
and the status-quo HTTP baseline (http_rpc).  Proclets talk to each other
through this package; the control plane never touches it (§4.3: "the
runtime implements the control plane but not the data plane").
"""

from repro.transport.client import ConnectionPool
from repro.transport.connection import Connection
from repro.transport.framing import MAX_FRAME
from repro.transport.http_rpc import HttpRpcClient, HttpServer, rpc_route
from repro.transport.rpc import Dispatcher, RemoteInvoker, ReplicaResolver
from repro.transport.server import RPCServer, parse_address

__all__ = [
    "ConnectionPool",
    "Connection",
    "MAX_FRAME",
    "HttpRpcClient",
    "HttpServer",
    "rpc_route",
    "Dispatcher",
    "RemoteInvoker",
    "ReplicaResolver",
    "RPCServer",
    "parse_address",
]
