"""The RPC layer: marshals stub invocations onto the wire and back.

Two halves:

* :class:`Dispatcher` — server side.  Looks up the component by numeric id,
  the method by index, decodes the argument tuple with the deployment
  codec, invokes the local replica, and encodes the result.  It makes the
  caller's remaining budget *ambient* for the handler's own outgoing
  calls; it does not enforce it — the connection that created the
  request's task cuts it off (:mod:`repro.transport.connection`).
* :class:`RemoteInvoker` — client side, plugged into stubs
  (:mod:`repro.core.stub`).  Encodes arguments, asks a
  :class:`ReplicaResolver` which peer should execute the call (this is
  where affinity routing enters, §5.2), performs the call with deadline
  and bounded retries, and records the call's only call-graph edge.  A
  warm call is ``invoke`` and one attempt above ``Connection.call``; the
  resolver and the pool are asked synchronously, and a routing refresh
  or a dial is awaited only when they come back empty.

Numeric component/method ids are deployment-version-scoped (see
:mod:`repro.codegen.versioning`); no names travel with requests.
"""

from __future__ import annotations

import asyncio
import logging
import time
from typing import Any, Optional, Protocol

from repro.codegen.compiler import MethodSpec
from repro.core.call_graph import CallGraph
from repro.core.errors import (
    ComponentNotFound,
    DeadlineExceeded,
    ErrorCode,
    RPCError,
    Unavailable,
)
from repro.core.options import (
    DEFAULT_OPTIONS,
    CallOptions,
    budget_to_wire_ms,
    decorrelated_jitter,
    effective_budget_s,
    restore_deadline,
    shrink_deadline,
)
from repro.core.registry import FrozenRegistry, Registration
from repro.core.stub import LocalInvoker
from repro.observability.tracing import NOOP_SPAN, current_context
from repro.serde.base import Codec
from repro.transport.client import ConnectionPool

log = logging.getLogger("repro.transport")


class ReplicaResolver(Protocol):
    """Chooses the peer address for one invocation."""

    def pick(
        self, reg: Registration, method: MethodSpec, args: tuple, route_key: Optional[Any] = None
    ) -> Optional[str]:
        """The address of the replica that should execute the call, or None
        if nothing cached says; ``resolve`` is awaited only then.

        ``route_key`` is an explicit affinity key from
        :class:`~repro.core.options.CallOptions`, overriding extraction
        from the ``@routed(by=...)`` argument.
        """
        ...

    async def resolve(
        self, reg: Registration, method: MethodSpec, args: tuple, route_key: Optional[Any] = None
    ) -> str:
        """Like :meth:`pick`, asking the runtime on a miss."""
        ...

    def report_outcome(
        self,
        reg: Registration,
        address: str,
        *,
        ok: bool,
        code: Optional[Any] = None,
        draining: bool = False,
        wrong_owner: bool = False,
    ) -> None:
        """Record the outcome of one attempt against ``address``.

        Every attempt — success or failure — lands here; the resolver
        feeds its per-replica circuit breakers from this stream.  ``code``
        is the :class:`~repro.core.errors.ErrorCode` on failure;
        ``draining`` marks rejections from a gracefully draining replica
        (fail over, but don't penalize the replica as broken).
        """
        ...


class Dispatcher:
    """Serves decoded RPC requests against local component replicas."""

    def __init__(
        self,
        build: FrozenRegistry,
        codec: Codec,
        local: LocalInvoker,
        *,
        hosted: Optional[set[str]] = None,
        tracer: Optional[Any] = None,
    ) -> None:
        self._build = build
        self._codec = codec
        self._local = local
        self._hosted = hosted  # None: host everything (single group)
        self._tracer = tracer
        self._span_names: dict[tuple[int, int], str] = {}

    def hosts(self, name: str) -> bool:
        return self._hosted is None or name in self._hosted

    def set_hosted(self, hosted: set[str]) -> None:
        self._hosted = hosted

    async def handle(
        self,
        component_id: int,
        method_index: int,
        args: bytes,
        trace: tuple[int, int] = (0, 0),
        deadline_ms: int = 0,
    ) -> bytes:
        try:
            reg = self._build.by_id(component_id)
        except ComponentNotFound as exc:
            raise RPCError(str(exc), code=ErrorCode.INTERNAL, executed=False) from exc
        if not self.hosts(reg.name):
            # The manager moved this component elsewhere; tell the caller
            # to re-resolve rather than failing the request permanently.
            raise Unavailable(
                f"{reg.name} is not hosted by this proclet", executed=False
            )
        if method_index >= len(reg.spec.methods):
            raise RPCError(
                f"{reg.name} has no method index {method_index}",
                code=ErrorCode.INTERNAL,
                executed=False,
            )
        spec = reg.spec.methods[method_index]
        arg_values = self._codec.decode(spec.arg_schema, args)
        # Re-derive an absolute deadline from our own clock and make it
        # ambient, so every outgoing call this handler performs inherits
        # the *remaining* budget (the paper's runtime-owned resilience).
        # Cutting the handler off when the budget is spent is not done
        # here: the connection that created this request's task does it.
        ambient = (
            shrink_deadline(time.monotonic() + deadline_ms / 1000.0)
            if deadline_ms > 0
            else None
        )
        try:
            if self._tracer is not None and trace[0]:
                span_name = self._span_names.get((component_id, method_index))
                if span_name is None:
                    span_name = f"{reg.name.rsplit('.', 1)[-1]}.{spec.name}"
                    self._span_names[(component_id, method_index)] = span_name
                # Join the caller's trace: the server-side span becomes the
                # ambient parent for everything this invocation does locally.
                with self._tracer.start_span(
                    span_name,
                    remote_parent=trace,
                    side="server",
                ):
                    result = await self._local.invoke(
                        reg, spec, arg_values, caller="<remote>"
                    )
            else:
                result = await self._local.invoke(
                    reg, spec, arg_values, caller="<remote>"
                )
        finally:
            restore_deadline(ambient)
        # The returned buffer is enqueued on the wire as-is (no bytes()
        # materialization); the connection owns it from here.
        reply = bytearray()
        self._codec.encode_into(spec.result_schema, result, reply)
        return reply


class RemoteInvoker:
    """Client-side invoker: stub call -> encode -> dial -> decode.

    Per-call policy arrives via :class:`~repro.core.options.CallOptions`
    (from ``stub.with_options(...)``); deployment defaults fill the gaps.
    The invoker enforces an end-to-end *budget* (explicit deadline, capped
    by the ambient deadline of the request being served), ships the
    remaining budget on the wire with every attempt, retries retryable
    failures with capped decorrelated-jitter backoff — re-executing a
    method that may already have run only if it is idempotent — and hedges
    idempotent calls that were asked to.
    """

    def __init__(
        self,
        *,
        codec: Codec,
        pool: ConnectionPool,
        resolver: ReplicaResolver,
        call_graph: Optional[CallGraph] = None,
        timeout_s: float = 30.0,
        max_retries: int = 2,
        retry_backoff_s: float = 0.05,
        retry_backoff_max_s: float = 1.0,
        tracer: Optional[Any] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        self._codec = codec
        self._pool = pool
        self._resolver = resolver
        self._call_graph = call_graph
        self._timeout_s = timeout_s
        self._max_retries = max_retries
        self._retry_backoff_s = retry_backoff_s
        self._retry_backoff_max_s = retry_backoff_max_s
        self._tracer = tracer
        # Client-side latency/error view: sees retries, hedges, breaker
        # trips and injected faults that the server-side histogram cannot.
        # Exemplars pivot a latency bucket to the trace that landed there.
        self._client_latency = (
            metrics.histogram("rpc_client_latency_s") if metrics is not None else None
        )
        self._client_errors = (
            metrics.counter("rpc_client_errors") if metrics is not None else None
        )
        # Per-component bound cells and span names, resolved once: the
        # invoke fast path must not pay label sorting or rsplit per call.
        self._lat_cells: dict[str, Any] = {}
        self._err_cells: dict[str, Any] = {}
        self._span_names: dict[tuple[str, str], str] = {}
        #: Optional repro.testing.faults.FaultPlan, consulted per call.
        self.fault_plan = None
        #: Count of hedge attempts issued (observability/tests).
        self.hedges = 0

    async def invoke(
        self,
        reg: Registration,
        method: MethodSpec,
        args: tuple,
        caller: str,
        *,
        options: Optional[CallOptions] = None,
    ) -> Any:
        opts = options or DEFAULT_OPTIONS
        payload = bytearray()
        self._codec.encode_into(method.arg_schema, args, payload)
        start = time.perf_counter()
        error = False
        reply = b""
        span = NOOP_SPAN
        if self._tracer is not None:
            span_name = self._span_names.get((reg.name, method.name))
            if span_name is None:
                span_name = f"rpc {reg.name.rsplit('.', 1)[-1]}.{method.name}"
                self._span_names[(reg.name, method.name)] = span_name
            span = self._tracer.start_span(span_name, side="client", caller=caller)
        try:
            with span:
                budget_s = effective_budget_s(opts.deadline_s, self._timeout_s)
                if budget_s <= 0:
                    raise DeadlineExceeded(
                        f"no budget left calling {reg.name}.{method.name}", executed=False
                    )
                deadline = time.monotonic() + budget_s
                max_retries = self._max_retries if opts.retries is None else opts.retries
                hedge_after_s = opts.hedge_after_s if method.idempotent else None
                attempt = 0
                backoff = self._retry_backoff_s
                while True:
                    try:
                        if hedge_after_s is None:
                            reply = await self._single_attempt(
                                reg, method, args, payload, opts, deadline, attempt
                            )
                        else:
                            reply = await self._hedged_attempt(
                                reg, method, args, payload, opts, deadline, hedge_after_s
                            )
                        break
                    except RPCError as exc:
                        if not exc.retryable or attempt >= max_retries:
                            raise
                        if exc.executed and not method.idempotent:
                            # The method body may already have run; re-executing a
                            # non-idempotent method could double its effect (the
                            # double-charge bug this layer exists to fix).
                            raise
                        # Outcome reporting and pool eviction already happened
                        # at the failure site (_single_attempt); this loop only
                        # decides whether another attempt is worth it.
                        attempt += 1
                        backoff = decorrelated_jitter(
                            backoff,
                            base_s=self._retry_backoff_s,
                            cap_s=self._retry_backoff_max_s,
                        )
                        if time.monotonic() + backoff >= deadline:
                            raise DeadlineExceeded(
                                f"budget exhausted retrying {reg.name}.{method.name} "
                                f"(after {attempt} attempts)",
                                executed=exc.executed,
                            ) from exc
                        log.debug(
                            "retrying %s.%s after %s (attempt %d, backoff %.3fs)",
                            reg.name, method.name, exc, attempt, backoff,
                        )
                        await asyncio.sleep(backoff)
            return self._codec.decode(method.result_schema, reply)
        except Exception:
            error = True
            raise
        finally:
            if self._client_latency is not None:
                cell = self._lat_cells.get(reg.name)
                if cell is None:
                    cell = self._client_latency.bind(component=reg.name)
                    self._lat_cells[reg.name] = cell
                cell.observe(time.perf_counter() - start, exemplar=span.span.trace_id)
                if error:
                    err = self._err_cells.get(reg.name)
                    if err is None:
                        err = self._client_errors.bind(component=reg.name)
                        self._err_cells[reg.name] = err
                    err.inc()
            if self._call_graph is not None:
                self._call_graph.record(
                    caller,
                    reg.name,
                    method.name,
                    latency_s=time.perf_counter() - start,
                    bytes_sent=len(payload),
                    bytes_received=len(reply),
                    local=False,
                    error=error,
                )

    async def _single_attempt(
        self,
        reg: Registration,
        method: MethodSpec,
        args: tuple,
        payload: bytes,
        opts: CallOptions,
        deadline: float,
        attempt: int = 0,
    ) -> bytes:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise DeadlineExceeded(
                f"deadline exhausted calling {reg.name}.{method.name}",
                executed=False,
            )
        resolver = self._resolver
        address = resolver.pick(reg, method, args, opts.route_key)
        if address is None:
            address = await resolver.resolve(reg, method, args, opts.route_key)
        wall_start = time.time() if self._tracer is not None else 0.0
        conn = None
        try:
            # Faults inject per *attempt*, modeling a replica failing
            # mid-call: retryable injections are absorbed by the retry loop
            # exactly like real replica failures.
            if self.fault_plan is not None:
                await self.fault_plan.before_call(reg, method)
            conn = self._pool.live(address)
            if conn is None:
                conn = await self._pool.get(address)
            reply = await conn.call(
                reg.component_id,
                method.index,
                payload,
                timeout=remaining,
                trace=current_context(),
                deadline_ms=budget_to_wire_ms(remaining),
            )
        except RPCError as exc:
            exc.address = address  # lets callers/tests see who failed
            if exc.code is ErrorCode.UNAVAILABLE and (conn is None or conn.closed):
                # Evict a broken connection (or the dial lock of one that
                # never came up) at the failure site.  An UNAVAILABLE
                # *reply* — a draining door, a component hosted elsewhere,
                # a wrong shard owner — arrived over a healthy connection
                # that other calls are still using: closing it would fail
                # them all.
                self._pool.drop(address)
            # Every outcome feeds the resolver's breakers.
            resolver.report_outcome(
                reg, address, ok=False, code=exc.code,
                draining=getattr(exc, "draining", False),
                wrong_owner=getattr(exc, "wrong_owner", False),
            )
            self._attempt_span(
                reg, method, address, attempt, wall_start, status="error", exc=exc
            )
            raise
        resolver.report_outcome(reg, address, ok=True)
        if attempt > 0:
            # A failover retry that landed: record it as a sibling of the
            # failed attempt(s) so the trace shows the whole story.  The
            # happy first attempt stays span-free — zero hot-path cost.
            self._attempt_span(reg, method, address, attempt, wall_start, status="ok")
        return reply

    def _attempt_span(
        self,
        reg: Registration,
        method: MethodSpec,
        address: str,
        attempt: int,
        wall_start: float,
        *,
        status: str,
        exc: Optional[RPCError] = None,
    ) -> None:
        """Materialize one per-attempt span (failures and failover retries only)."""
        if self._tracer is None:
            return
        attrs: dict[str, Any] = {"address": address, "attempt": attempt}
        if exc is not None:
            attrs["code"] = exc.code.name.lower()
        self._tracer.record_span(
            f"attempt {reg.name.rsplit('.', 1)[-1]}.{method.name}#{attempt}",
            trace=current_context(),
            start_s=wall_start,
            end_s=time.time(),
            status=status,
            **attrs,
        )

    async def _hedged_attempt(
        self,
        reg: Registration,
        method: MethodSpec,
        args: tuple,
        payload: bytes,
        opts: CallOptions,
        deadline: float,
        hedge_after_s: float,
    ) -> bytes:
        """Race a second attempt if the first is slow; first result wins.

        Only ever used for idempotent methods — the loser is cancelled, but
        its request may still execute server-side.
        """

        def spawn() -> asyncio.Task:
            return asyncio.ensure_future(
                self._single_attempt(reg, method, args, payload, opts, deadline)
            )

        tasks = [spawn()]
        try:
            wait_s = max(0.0, min(hedge_after_s, deadline - time.monotonic()))
            done, _ = await asyncio.wait(tasks, timeout=wait_s)
            if tasks[0] in done:
                return tasks[0].result()
            self.hedges += 1
            tasks.append(spawn())
            pending = set(tasks)
            last_exc: Optional[BaseException] = None
            while pending:
                done, pending = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                for task in done:
                    exc = task.exception()
                    if exc is None:
                        return task.result()
                    last_exc = exc
            assert last_exc is not None
            raise last_exc
        finally:
            for task in tasks:
                if not task.done():
                    task.cancel()

