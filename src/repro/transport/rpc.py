"""The RPC layer: marshals stub invocations onto the wire and back.

Both halves bind what a call needs once per method, not per call — the
§4.2 point that the framework, not the developer, owns marshaling:

* :class:`Dispatcher` — server side.  When a component is hosted, each of
  its methods gets a *thunk*: the handler, schemas, span name and
  routing-advisor stats looked up once.  A served request is the thunk:
  decode the argument tuple with the deployment codec, make the caller's
  remaining budget *ambient* for the handler's own outgoing calls, run
  the handler, encode the result.  The budget is not enforced here — the
  connection that created the request's task cuts it off
  (:mod:`repro.transport.connection`).
* :class:`RemoteInvoker` — client side, plugged into stubs
  (:mod:`repro.core.stub`).  Encodes arguments, asks a
  :class:`ReplicaResolver` which peer should execute the call (this is
  where affinity routing enters, §5.2), performs the call with deadline
  and bounded retries, and records the call's only call-graph edge into
  a cell bound per (caller, method).  The first attempt runs inline, so a
  warm call is ``invoke`` directly above ``Connection.call``: the resolver
  and the pool answer synchronously.  Only a failed first attempt, an
  injected fault or a hedge enters the retry loop.

Numeric component/method ids are deployment-version-scoped (see
:mod:`repro.codegen.versioning`); no names travel with requests.
"""

from __future__ import annotations

import asyncio
import logging
import time
from typing import Any, Awaitable, Callable, Optional, Protocol

from repro.codegen.compiler import MethodSpec
from repro.core.call_graph import CallGraph
from repro.core.errors import (
    ComponentNotFound,
    DeadlineExceeded,
    DecodeError,
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
from repro.observability.tracing import (
    NOOP_SPAN,
    bind_unsampled,
    current_context,
    reset_span,
    site_attributes,
)
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


#: One hosted method's serving path: (args, (trace_id, parent_span_id),
#: deadline_ms) -> the encoded result.
Thunk = Callable[[bytes, tuple[int, int], int], Awaitable[bytearray]]


class Dispatcher:
    """Serves RPC requests against local component replicas.

    :meth:`thunk` binds one hosted method's whole serving path once, when
    its component is hosted; a proclet keeps a table of them and awaits
    the one a request names.  :meth:`handle` is the same path for a server
    without such a table (a bare :class:`~repro.transport.server.RPCServer`
    handler, as in the transport tests): it resolves, instantiates and
    binds per request.  The perf harness's seam table also names it
    (``benchmarks/perf/trace.py``).
    """

    def __init__(
        self,
        build: FrozenRegistry,
        codec: Codec,
        local: LocalInvoker,
        *,
        hosted: Optional[set[str]] = None,
        tracer: Optional[Any] = None,
        advisor: Optional[Any] = None,
    ) -> None:
        self._build = build
        self._codec = codec
        self._local = local
        self._hosted = hosted  # None: host everything (single group)
        self._tracer = tracer
        self._advisor = advisor

    def hosts(self, name: str) -> bool:
        return self._hosted is None or name in self._hosted

    def set_hosted(self, hosted: set[str]) -> None:
        self._hosted = hosted

    def resolve(self, component_id: int, method_index: int) -> tuple[Registration, MethodSpec]:
        """The hosted method a request names, or the error refusing it."""
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
        return reg, reg.spec.methods[method_index]

    def thunk(self, reg: Registration, spec: MethodSpec, instance: Any) -> Thunk:
        """Bind one method of a hosted ``instance``: its handler, schemas,
        span name and routing-advisor stats are looked up here, once.

        ``codec.decode``/``encode_into`` and ``tracer.start_span`` are
        looked up per call, never captured, so a wrapper installed on their
        class (the perf harness's tracing) sees every call.
        """
        codec, local, tracer = self._codec, self._local, self._tracer
        arg_schema, result_schema = spec.arg_schema, spec.result_schema
        handler = getattr(instance, spec.name)
        params = (
            self._advisor.bind(
                reg.name, spec.name, spec.arg_names, already_routed=spec.routing_key is not None
            )
            if self._advisor is not None
            else ()
        )
        span_name = f"{reg.name.rsplit('.', 1)[-1]}.{spec.name}"
        span_site = site_attributes(side="server")

        async def serve(args: bytes, trace: tuple[int, int], deadline_ms: int) -> bytearray:
            try:
                values = codec.decode(arg_schema, args)
            except DecodeError as exc:
                # The method never ran: not an application error, and not
                # a success for the caller's breaker.
                raise RPCError(
                    f"malformed arguments for {span_name}: {exc}",
                    code=ErrorCode.INTERNAL,
                    executed=False,
                ) from exc
            # Pin the caller's budget to our clock and make it ambient
            # (deadlines only shrink), so every outgoing call the handler
            # makes inherits the *remaining* budget.
            token = (
                shrink_deadline(time.monotonic() + deadline_ms / 1000.0)
                if deadline_ms > 0
                else None
            )
            try:
                if local.fault_plan is not None:
                    await local.fault_plan.before_call(reg, spec)
                for stats, value in zip(params, values):
                    stats.observe(value)
                if tracer is not None and trace[0]:
                    # Join the caller's trace: the server-side span becomes
                    # the ambient parent for everything the handler does.
                    with tracer.start_span(span_name, span_site, trace):
                        result = await handler(*values)
                elif trace[1]:
                    # The caller chose not to sample (UNSAMPLED_CONTEXT):
                    # nothing the handler calls starts a trace of its own.
                    ambient = bind_unsampled()
                    try:
                        result = await handler(*values)
                    finally:
                        reset_span(ambient)
                else:
                    result = await handler(*values)
            finally:
                restore_deadline(token)
            # Enqueued on the wire as-is (no bytes() materialization); the
            # connection owns it from here.
            reply = bytearray()
            codec.encode_into(result_schema, result, reply)
            return reply

        return serve

    async def handle(
        self,
        component_id: int,
        method_index: int,
        args: bytes,
        trace: tuple[int, int] = (0, 0),
        deadline_ms: int = 0,
    ) -> bytes:
        reg, spec = self.resolve(component_id, method_index)
        instance = await self._local.instance(reg)
        return await self.thunk(reg, spec, instance)(args, trace, deadline_ms)


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
        #: (caller, component id, method index) -> what a call updates
        #: once it is done, bound on the first call: its call-graph edge,
        #: the component's client latency and error cells, its span name and
        #: span attributes.
        self._sites: dict[tuple[str, int, int], tuple[Any, Any, Any, str, Any]] = {}
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
        """One call.  The first attempt runs inline, awaiting a routing
        refresh or a dial only on a cache miss; a failed first attempt, and
        every attempt of a fault-injected or hedged call, go through
        :meth:`_retry_loop`."""
        site = self._sites.get((caller, reg.component_id, method.index))
        if site is None:
            site = self._bind_site(reg, method, caller)
        edge, latency, errors, span_name, span_site = site
        opts = options or DEFAULT_OPTIONS
        payload = bytearray()
        self._codec.encode_into(method.arg_schema, args, payload)
        start = time.perf_counter()
        error = False
        reply = b""
        span = NOOP_SPAN
        tracer = self._tracer
        if tracer is not None:
            span = tracer.start_span(span_name, span_site)
        try:
            with span:
                budget = effective_budget_s(opts.deadline_s, self._timeout_s)
                if budget <= 0:
                    raise DeadlineExceeded(
                        f"no budget left calling {reg.name}.{method.name}", executed=False
                    )
                deadline = time.monotonic() + budget
                if self.fault_plan is not None or (
                    opts.hedge_after_s is not None and method.idempotent
                ):
                    reply = await self._retry_loop(reg, method, args, payload, opts, deadline)
                else:
                    # Attempt 0, inline: the same steps as _single_attempt.
                    resolver = self._resolver
                    address = conn = failure = None
                    try:
                        address = resolver.pick(reg, method, args, opts.route_key)
                        if address is None:
                            address = await resolver.resolve(reg, method, args, opts.route_key)
                        wall_start = time.time() if tracer is not None else 0.0
                        conn = self._pool.live(address)
                        if conn is None:
                            conn = await self._pool.get(address)
                        reply = await conn.call(
                            reg.component_id,
                            method.index,
                            payload,
                            timeout=budget,
                            trace=current_context(),
                            deadline_ms=budget_to_wire_ms(budget),
                        )
                    except RPCError as exc:
                        if address is not None:  # routing failures are not reported
                            self._attempt_failed(reg, method, address, conn, 0, wall_start, exc)
                        failure = exc
                    else:
                        resolver.report_outcome(reg, address, ok=True)
                    if failure is not None:
                        reply = await self._retry_loop(
                            reg, method, args, payload, opts, deadline, failure
                        )
            return self._codec.decode(method.result_schema, reply)
        except Exception:
            error = True
            raise
        finally:
            elapsed = time.perf_counter() - start
            if latency is not None:
                latency.observe(elapsed, exemplar=span.trace_id)
                if error:
                    errors.inc()
            if edge is not None:
                edge.calls += 1
                edge.bytes_sent += len(payload)
                edge.bytes_received += len(reply)
                edge.total_latency_s += elapsed
                if error:
                    edge.errors += 1

    def _bind_site(self, reg: Registration, method: MethodSpec, caller: str) -> tuple:
        metered = self._client_latency is not None
        site = (
            self._call_graph.edge(caller, reg.name, method.name)
            if self._call_graph is not None
            else None,
            self._client_latency.bind(component=reg.name) if metered else None,
            self._client_errors.bind(component=reg.name) if metered else None,
            f"rpc {reg.name.rsplit('.', 1)[-1]}.{method.name}",
            site_attributes(side="client", caller=caller),
        )
        self._sites[(caller, reg.component_id, method.index)] = site
        return site

    async def _retry_loop(
        self,
        reg: Registration,
        method: MethodSpec,
        args: tuple,
        payload: bytes,
        opts: CallOptions,
        deadline: float,
        failure: Optional[RPCError] = None,
    ) -> bytes:
        """Every attempt after the failed inline one (``failure``), or every
        attempt of a fault-injected or hedged call."""
        max_retries = self._max_retries if opts.retries is None else opts.retries
        hedge_after_s = opts.hedge_after_s if method.idempotent else None
        attempt = 0
        backoff = self._retry_backoff_s
        while True:
            if failure is not None:
                if not failure.retryable or attempt >= max_retries:
                    raise failure
                if failure.executed and not method.idempotent:
                    # The method body may already have run; re-executing a
                    # non-idempotent method could double its effect (the
                    # double-charge bug this layer exists to fix).
                    raise failure
                # Outcome reporting and pool eviction already happened at
                # the failure site (_attempt_failed); this loop only
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
                        executed=failure.executed,
                    ) from failure
                log.debug(
                    "retrying %s.%s after %s (attempt %d, backoff %.3fs)",
                    reg.name, method.name, failure, attempt, backoff,
                )
                await asyncio.sleep(backoff)
            try:
                if hedge_after_s is None:
                    return await self._single_attempt(
                        reg, method, args, payload, opts, deadline, attempt
                    )
                return await self._hedged_attempt(
                    reg, method, args, payload, opts, deadline, hedge_after_s
                )
            except RPCError as exc:
                failure = exc

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
            self._attempt_failed(reg, method, address, conn, attempt, wall_start, exc)
            raise
        resolver.report_outcome(reg, address, ok=True)
        if attempt > 0:
            # A failover retry that landed: record it as a sibling of the
            # failed attempt(s) so the trace shows the whole story.  The
            # happy first attempt stays span-free — zero hot-path cost.
            self._attempt_span(reg, method, address, attempt, wall_start, status="ok")
        return reply

    def _attempt_failed(
        self,
        reg: Registration,
        method: MethodSpec,
        address: str,
        conn: Optional[Any],
        attempt: int,
        wall_start: float,
        exc: RPCError,
    ) -> None:
        """What every failed attempt does at its failure site."""
        exc.address = address  # lets callers/tests see who failed
        if exc.code is ErrorCode.UNAVAILABLE and (conn is None or conn.closed):
            # Evict a broken connection (or the dial lock of one that never
            # came up) at the failure site.  An UNAVAILABLE *reply* — a
            # draining door, a component hosted elsewhere, a wrong shard
            # owner — arrived over a healthy connection that other calls
            # are still using: closing it would fail them all.
            self._pool.drop(address)
        # Every outcome feeds the resolver's breakers.
        self._resolver.report_outcome(
            reg, address, ok=False, code=exc.code,
            draining=getattr(exc, "draining", False),
            wrong_owner=getattr(exc, "wrong_owner", False),
        )
        self._attempt_span(reg, method, address, attempt, wall_start, status="error", exc=exc)

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

