"""Fine-grained component call-graph telemetry (§5.1).

    "our framework can construct a fine-grained call graph between
    components and use it to identify the critical path, the bottleneck
    components, the chatty components, etc."

Every stub invocation reports an observation here: a local call through
:meth:`CallGraph.record`, a remote one straight into the edge cell its
invoker bound once per (caller, method).  The graph aggregates
per-edge call counts, bytes, and latency, and answers the queries the
runtime's placement engine asks: who talks to whom, which pairs are chatty
(co-location candidates), which components dominate latency (bottlenecks),
and what the critical path of a request tree looks like.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Name used for calls originating outside any component (e.g. main, the
#: load generator, an HTTP front door).
ROOT = "<root>"


@dataclass
class EdgeStats:
    """Aggregated observations for one (caller, callee, method) edge."""

    caller: str
    callee: str
    method: str
    calls: int = 0
    local_calls: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    total_latency_s: float = 0.0
    errors: int = 0

    @property
    def remote_calls(self) -> int:
        return self.calls - self.local_calls

    @property
    def avg_latency_s(self) -> float:
        return self.total_latency_s / self.calls if self.calls else 0.0

    @property
    def avg_bytes(self) -> float:
        return (self.bytes_sent + self.bytes_received) / self.calls if self.calls else 0.0


class CallGraph:
    """Aggregation of component-to-component call telemetry.

    No lock: each process records and reads on its one event loop.
    """

    def __init__(self) -> None:
        self._edges: dict[tuple[str, str, str], EdgeStats] = {}

    def record(
        self,
        caller: str,
        callee: str,
        method: str,
        *,
        latency_s: float,
        bytes_sent: int = 0,
        bytes_received: int = 0,
        local: bool = False,
        error: bool = False,
    ) -> None:
        key = (caller, callee, method)
        stats = self._edges.get(key)
        if stats is None:
            stats = EdgeStats(caller, callee, method)
            self._edges[key] = stats
        stats.calls += 1
        if local:
            stats.local_calls += 1
        stats.bytes_sent += bytes_sent
        stats.bytes_received += bytes_received
        stats.total_latency_s += latency_s
        if error:
            stats.errors += 1

    def edge(self, caller: str, callee: str, method: str) -> EdgeStats:
        """The live cell of one edge, for an invoker that binds it once and
        updates its fields itself from its event loop, with no keyword call.
        Like a bound metric cell, readers see a statistical snapshot (one
        call's fields may be partly applied)."""
        key = (caller, callee, method)
        stats = self._edges.get(key)
        if stats is None:
            stats = self._edges[key] = EdgeStats(caller, callee, method)
        return stats

    # -- queries -------------------------------------------------------------

    def edges(self) -> list[EdgeStats]:
        """Every edge called at least once (a bound edge exists before its
        first call completes)."""
        return [_copy(e) for e in self._edges.values() if e.calls]

    def components(self) -> set[str]:
        out: set[str] = set()
        for e in self.edges():
            if e.caller != ROOT:
                out.add(e.caller)
            out.add(e.callee)
        return out

    def pair_traffic(self) -> dict[tuple[str, str], EdgeStats]:
        """Per (caller, callee) pair, methods merged."""
        pairs: dict[tuple[str, str], EdgeStats] = {}
        for e in self.edges():
            key = (e.caller, e.callee)
            agg = pairs.get(key)
            if agg is None:
                agg = EdgeStats(e.caller, e.callee, "*")
                pairs[key] = agg
            agg.calls += e.calls
            agg.local_calls += e.local_calls
            agg.bytes_sent += e.bytes_sent
            agg.bytes_received += e.bytes_received
            agg.total_latency_s += e.total_latency_s
            agg.errors += e.errors
        return pairs

    def chatty_pairs(self, top: int = 5) -> list[tuple[str, str, int]]:
        """The most frequently communicating component pairs — the
        co-location candidates the paper describes (§3.1, §5.1)."""
        pairs = self.pair_traffic()
        ranked = sorted(
            ((c, s, stats.calls) for (c, s), stats in pairs.items() if c != ROOT),
            key=lambda t: t[2],
            reverse=True,
        )
        return ranked[:top]

    def bottlenecks(self, top: int = 5) -> list[tuple[str, float]]:
        """Components ranked by total time spent inside them (self time).

        Self time of a callee on an edge is its total latency minus the
        latency of the calls it made in turn; a coarse but serviceable
        estimate when edges overlap.
        """
        inbound: dict[str, float] = {}
        outbound: dict[str, float] = {}
        for e in self.edges():
            inbound[e.callee] = inbound.get(e.callee, 0.0) + e.total_latency_s
            if e.caller != ROOT:
                outbound[e.caller] = outbound.get(e.caller, 0.0) + e.total_latency_s
        self_time = {
            c: max(0.0, inbound.get(c, 0.0) - outbound.get(c, 0.0))
            for c in set(inbound) | set(outbound)
        }
        return sorted(self_time.items(), key=lambda t: t[1], reverse=True)[:top]

    def critical_path(self, root: str = ROOT) -> list[str]:
        """The heaviest average-latency path from ``root`` through the graph.

        Cycles (rare, but components may be mutually recursive) are broken
        by refusing to revisit a node within one path.
        """
        adj: dict[str, list[EdgeStats]] = {}
        for e in self.edges():
            adj.setdefault(e.caller, []).append(e)

        best_path: list[str] = []
        best_cost = -1.0

        def walk(node: str, path: list[str], cost: float) -> None:
            nonlocal best_path, best_cost
            extended = False
            for e in adj.get(node, ()):
                if e.callee in path:
                    continue
                extended = True
                walk(e.callee, path + [e.callee], cost + e.avg_latency_s)
            if not extended and cost > best_cost:
                best_cost = cost
                best_path = path

        walk(root, [root], 0.0)
        return [n for n in best_path if n != ROOT]

    def colocation_advice(self, max_group_size: int = 0) -> list[tuple[str, str]]:
        """Pairs whose traffic is dominated by remote calls, ranked by the
        bytes they would save if co-located (§5.1's smarter placement)."""
        advice = []
        for (caller, callee), stats in self.pair_traffic().items():
            if caller == ROOT or stats.remote_calls == 0:
                continue
            saved = stats.bytes_sent + stats.bytes_received
            advice.append(((caller, callee), saved))
        advice.sort(key=lambda t: t[1], reverse=True)
        pairs = [pair for pair, _ in advice]
        return pairs[:max_group_size] if max_group_size else pairs

    def reset(self) -> None:
        # Zeroed in place: invokers keep updating the edges they bound.
        for e in self._edges.values():
            e.calls = e.local_calls = e.bytes_sent = e.bytes_received = e.errors = 0
            e.total_latency_s = 0.0

    # -- aggregation across processes -----------------------------------------

    def to_wire(self) -> list[dict]:
        """JSON-able edge list, shipped proclet -> manager with heartbeats."""
        return [
            {
                "caller": e.caller,
                "callee": e.callee,
                "method": e.method,
                "calls": e.calls,
                "local_calls": e.local_calls,
                "bytes_sent": e.bytes_sent,
                "bytes_received": e.bytes_received,
                "total_latency_s": e.total_latency_s,
                "errors": e.errors,
            }
            for e in self.edges()
        ]

    def replace_from_wire(self, source: str, raw: list[dict]) -> None:
        """Replace all edges previously reported by ``source``.

        Proclets send cumulative snapshots, so the manager replaces rather
        than adds; ``source`` scoping keeps different proclets' (and
        replicas') contributions separable.
        """
        stale = [
            k
            for k, e in self._edges.items()
            if getattr(e, "_source", None) == source
        ]
        for k in stale:
            del self._edges[k]
        for entry in raw:
            key = (source + "|" + entry["caller"], entry["callee"], entry["method"])
            stats = EdgeStats(
                entry["caller"],
                entry["callee"],
                entry["method"],
                entry["calls"],
                entry["local_calls"],
                entry["bytes_sent"],
                entry["bytes_received"],
                entry["total_latency_s"],
                entry["errors"],
            )
            stats._source = source
            self._edges[key] = stats

    def total_calls(self) -> int:
        return sum(e.calls for e in self.edges())


def _copy(e: EdgeStats) -> EdgeStats:
    return EdgeStats(
        e.caller,
        e.callee,
        e.method,
        e.calls,
        e.local_calls,
        e.bytes_sent,
        e.bytes_received,
        e.total_latency_s,
        e.errors,
    )
