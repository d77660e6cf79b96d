"""Application deployment configuration.

The paper's applications carry no environment-specific code; *how* the
logical monolith is split across processes, replicated, scaled, and rolled
out is configuration consumed by the runtime, not code (§4.3).  This module
defines that configuration surface.

Components can be referred to by interface class or by fully qualified name
(strings are what a config file would contain; classes are friendlier in
code).  ``AppConfig.resolve`` normalizes everything to names against a
frozen registry and validates that groups are disjoint and complete.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Iterable, Optional, Union

from repro.core.component import component_name
from repro.core.errors import ConfigError

ComponentRef = Union[type, str]


def _ref_name(ref: ComponentRef) -> str:
    if isinstance(ref, str):
        return ref
    return component_name(ref)


@dataclass(frozen=True)
class AutoscaleConfig:
    """HPA-style autoscaling policy (§6.1 uses Horizontal Pod Autoscalers).

    Replica count is adjusted to keep per-replica utilization near
    ``target_utilization`` (fraction of one core), clamped to
    [min_replicas, max_replicas].  ``scale_down_stabilization_s`` delays
    scale-down, mirroring the HPA's default anti-flapping window.
    """

    min_replicas: int = 1
    max_replicas: int = 64
    target_utilization: float = 0.65
    scale_up_tolerance: float = 0.10
    scale_down_stabilization_s: float = 30.0

    def __post_init__(self) -> None:
        if self.min_replicas < 1:
            raise ConfigError("min_replicas must be >= 1")
        if self.max_replicas < self.min_replicas:
            raise ConfigError("max_replicas must be >= min_replicas")
        if not 0.0 < self.target_utilization <= 1.0:
            raise ConfigError("target_utilization must be in (0, 1]")


@dataclass(frozen=True)
class RolloutConfig:
    """Atomic blue/green rollout policy (§4.4).

    Traffic shifts from the old version to the new in ``steps`` increments,
    waiting ``step_duration_s`` between increments; a request is pinned to
    one version for its entire lifetime.
    """

    strategy: str = "blue_green"  # blue_green | rolling (baseline, unsafe)
    steps: int = 10
    step_duration_s: float = 1.0

    def __post_init__(self) -> None:
        if self.strategy not in ("blue_green", "rolling"):
            raise ConfigError(f"unknown rollout strategy {self.strategy!r}")
        if self.steps < 1:
            raise ConfigError("rollout steps must be >= 1")


@dataclass(frozen=True)
class AppConfig:
    """Everything the runtime needs to deploy one application."""

    name: str = "app"
    #: Wire format for remote calls: compact | tagged | json.
    codec: str = "compact"
    #: Co-location groups: components in the same group share an OS process.
    #: Components absent from every group each get their own group (the
    #: paper's "apples-to-apples" non-co-located deployment).
    colocate: tuple[tuple[ComponentRef, ...], ...] = ()
    #: Initial replica count per component (name or class); default 1.
    replicas: dict[ComponentRef, int] = field(default_factory=dict)
    autoscale: AutoscaleConfig = field(default_factory=AutoscaleConfig)
    rollout: RolloutConfig = field(default_factory=RolloutConfig)
    #: Per-call deadline for remote invocations, seconds.
    call_timeout_s: float = 30.0
    #: Max automatic retries for retryable RPC failures.
    max_retries: int = 2
    #: Admission control: max concurrently executing requests per proclet
    #: (0 = unlimited, the default).  Excess requests queue, then shed.
    max_inflight: int = 0
    #: Admission control: max queued requests before shedding with
    #: RESOURCE_EXHAUSTED.  Only meaningful when max_inflight > 0.
    max_queue_depth: int = 64
    #: Compress large data-plane frames on the wire (§5.1's network-bound
    #: optimization; a per-sender runtime policy, no negotiation needed).
    compress_wire: bool = False
    #: Per-replica circuit breakers: callers eject replicas that keep
    #: failing instead of waiting for the manager's health sweep.
    breakers_enabled: bool = True
    #: Consecutive attempt failures that trip a replica's breaker OPEN.
    breaker_failures: int = 3
    #: Base cooldown before an OPEN breaker admits a half-open probe
    #: (doubles on each re-trip).
    breaker_open_for_s: float = 1.0
    #: Graceful-drain budget for planned replica shutdown (autoscale
    #: shrink, rollout replacement): in-flight RPCs get this long to
    #: finish after the door closes.  0 disables drain (hard stop).
    drain_deadline_s: float = 5.0
    #: Root directory for durable component state (repro.state).  None
    #: (the default) means memory-only state for single-process runs; the
    #: multi-process deployer provisions a per-deployment temp dir when
    #: unset so ``ctx.state`` is durable across replica churn.
    state_dir: Optional[str] = None
    #: Hash-partitions per component's key space; deployment-stable (the
    #: key->shard mapping must never move, only shard *ownership* does).
    state_shards: int = 16
    #: fsync every WAL append (durability vs. throughput knob).  Off by
    #: default: flush-to-OS before ack survives process kills, which is
    #: the failure domain the runtime manages (§4.1's machine failures
    #: need replication, out of scope).
    state_fsync: bool = False
    #: WAL appends per shard between snapshots (bounds replay cost).
    state_snapshot_every: int = 256
    #: Telemetry level: "full" (traces, time series, exemplars) | "off"
    #: (counters and heartbeats only — the zero-span data plane).
    telemetry: str = "full"
    #: Adaptive head-sampling budget: new traces admitted per second per
    #: process (token bucket, burst 2x).  Low-rate traffic — tests,
    #: interactive use — is always fully traced; saturated hot paths pay
    #: span cost for at most this many traces/s.  ``None`` traces every
    #: request.  Metrics record every call regardless.
    trace_rate: Optional[float] = 500.0
    #: Tail-sampling keep probability for unremarkable traces (errors,
    #: deadline-exceeded and slow-tail traces are always kept).
    trace_sample_rate: float = 1.0
    #: Bound on traces retained by the manager's trace store (oldest
    #: evicted, with drop accounting).
    trace_max_traces: int = 2000
    #: SLO: long-run fraction of requests allowed to fail (0.01 = 99%).
    slo_error_budget: float = 0.01
    #: SLO: latency objective — a request slower than this is SLO-bad.
    slo_latency_ms: float = 250.0
    #: SLO: long-run fraction of requests allowed over slo_latency_ms.
    slo_latency_budget: float = 0.05
    #: Interval of the manager's telemetry tick (series, signals, and the
    #: remediation controller all run on it).  1s is the paper-faithful
    #: default; benchmarks tighten it to shrink detection latency.
    telemetry_tick_s: float = 1.0
    #: Closed-loop remediation kill switch: "on" executes guarded actions,
    #: "observe" journals every decision without acting (the dry-run mode
    #: to enable first), "off" disables the controller entirely.
    remediation: str = "off"
    #: Guardrail: per-(target, action-type) cooldown — the same fix is
    #: never applied to the same target more often than this.
    remediation_cooldown_s: float = 15.0
    #: Guardrail: executed actions allowed per rolling minute, deployment
    #: wide.  A metric storm can flap signals every tick; it cannot
    #: translate into more actions than this.
    remediation_max_actions_per_min: int = 6
    #: Guardrail: fraction of a group's live replicas that may be under
    #: remediation (restart/eject) concurrently — blast-radius cap,
    #: clamped to at least one replica so singletons stay fixable.
    remediation_blast_fraction: float = 1 / 3
    #: Bounded action-journal length exported via ``runtime.status``.
    remediation_journal_size: int = 256
    #: Free-form, application-visible settings (ctx.config).
    settings: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.codec not in ("compact", "tagged", "json"):
            raise ConfigError(f"unknown codec {self.codec!r}")
        if self.call_timeout_s <= 0:
            raise ConfigError("call_timeout_s must be positive")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.max_inflight < 0:
            raise ConfigError("max_inflight must be >= 0 (0 = unlimited)")
        if self.max_queue_depth < 0:
            raise ConfigError("max_queue_depth must be >= 0")
        if self.breaker_failures < 1:
            raise ConfigError("breaker_failures must be >= 1")
        if self.breaker_open_for_s <= 0:
            raise ConfigError("breaker_open_for_s must be positive")
        if self.drain_deadline_s < 0:
            raise ConfigError("drain_deadline_s must be >= 0 (0 = hard stop)")
        if self.state_shards < 1:
            raise ConfigError("state_shards must be >= 1")
        if self.state_snapshot_every < 1:
            raise ConfigError("state_snapshot_every must be >= 1")
        if self.telemetry not in ("full", "off"):
            raise ConfigError(f"telemetry must be full/off, got {self.telemetry!r}")
        if self.trace_rate is not None and self.trace_rate <= 0:
            raise ConfigError("trace_rate must be > 0 (None traces everything)")
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ConfigError("trace_sample_rate must be in [0, 1]")
        if self.trace_max_traces < 1:
            raise ConfigError("trace_max_traces must be >= 1")
        if not 0.0 < self.slo_error_budget < 1.0:
            raise ConfigError("slo_error_budget must be in (0, 1)")
        if self.slo_latency_ms <= 0:
            raise ConfigError("slo_latency_ms must be positive")
        if not 0.0 < self.slo_latency_budget < 1.0:
            raise ConfigError("slo_latency_budget must be in (0, 1)")
        if self.telemetry_tick_s <= 0:
            raise ConfigError("telemetry_tick_s must be positive")
        if self.remediation not in ("on", "observe", "off"):
            raise ConfigError(
                f"remediation must be on/observe/off, got {self.remediation!r}"
            )
        if self.remediation_cooldown_s < 0:
            raise ConfigError("remediation_cooldown_s must be >= 0")
        if self.remediation_max_actions_per_min < 1:
            raise ConfigError("remediation_max_actions_per_min must be >= 1")
        if not 0.0 < self.remediation_blast_fraction <= 1.0:
            raise ConfigError("remediation_blast_fraction must be in (0, 1]")
        if self.remediation_journal_size < 1:
            raise ConfigError("remediation_journal_size must be >= 1")

    # -- normalization ------------------------------------------------------

    def resolve(self, names: Iterable[str]) -> "ResolvedConfig":
        """Validate against the deployed component set and normalize refs.

        ``names`` is the full set of component names in the frozen build.
        Returns the placement-ready view: disjoint groups covering every
        component, and per-component replica counts.
        """
        all_names = list(names)
        known = set(all_names)

        groups: list[tuple[str, ...]] = []
        seen: set[str] = set()
        for group in self.colocate:
            resolved = tuple(_ref_name(ref) for ref in group)
            for n in resolved:
                if n not in known:
                    raise ConfigError(
                        f"colocate group names unknown component {n!r}; "
                        f"deployed components: {sorted(known)}"
                    )
                if n in seen:
                    raise ConfigError(
                        f"component {n!r} appears in more than one colocate group"
                    )
                seen.add(n)
            if resolved:
                groups.append(resolved)
        for n in all_names:
            if n not in seen:
                groups.append((n,))

        replicas: dict[str, int] = {}
        for ref, count in self.replicas.items():
            n = _ref_name(ref)
            if n not in known:
                raise ConfigError(f"replicas names unknown component {n!r}")
            if count < 1:
                raise ConfigError(f"replica count for {n!r} must be >= 1")
            replicas[n] = count
        for n in all_names:
            replicas.setdefault(n, 1)

        return ResolvedConfig(app=self, groups=tuple(groups), replicas=replicas)

    def colocate_all(self, names: Iterable[str]) -> "AppConfig":
        """Return a copy that places every component in one process —
        the paper's single-process co-location experiment (§6.1)."""
        return replace(self, colocate=(tuple(names),))

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "AppConfig":
        """Build from a parsed config file (e.g. TOML)."""
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs: dict[str, Any] = dict(raw)
        if "colocate" in kwargs:
            kwargs["colocate"] = tuple(tuple(g) for g in kwargs["colocate"])
        if "autoscale" in kwargs and isinstance(kwargs["autoscale"], dict):
            kwargs["autoscale"] = AutoscaleConfig(**kwargs["autoscale"])
        if "rollout" in kwargs and isinstance(kwargs["rollout"], dict):
            kwargs["rollout"] = RolloutConfig(**kwargs["rollout"])
        return cls(**kwargs)

    @classmethod
    def from_toml(cls, text: str) -> "AppConfig":
        """Parse a TOML config document.

        Deployment configuration is data, not code (§4.3); this is the
        file-format front end::

            name = "boutique"
            codec = "compact"
            compress_wire = true
            colocate = [["app.Cart", "app.CartStore"]]

            [replicas]
            "app.Frontend" = 3

            [autoscale]
            target_utilization = 0.65
        """
        import tomllib

        try:
            raw = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ConfigError(f"invalid TOML config: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def load(cls, path: str) -> "AppConfig":
        """Read and parse a TOML config file."""
        with open(path, encoding="utf-8") as f:
            return cls.from_toml(f.read())


@dataclass(frozen=True)
class ResolvedConfig:
    """An :class:`AppConfig` normalized against a concrete build."""

    app: AppConfig
    #: Disjoint colocation groups covering every deployed component.
    groups: tuple[tuple[str, ...], ...]
    #: Initial replica count per component name.
    replicas: dict[str, int]

    def group_of(self, name: str) -> int:
        for i, group in enumerate(self.groups):
            if name in group:
                return i
        raise ConfigError(f"component {name!r} not in any group")
