"""Per-call resilience options: the single override surface for RPC policy.

The paper argues the runtime, not the developer, should own distributed
concerns (§3, §5.3) — but callers still need a small, declarative way to
*parameterize* the runtime's policy per call site.  :class:`CallOptions` is
that surface: one value type, overriding the deployment defaults
(``timeout_s``, ``max_retries``), that flows ``stub → invoker → rpc →
wire``::

    payment = ctx.get(Payment).with_options(deadline_s=0.5, retries=0)
    catalog = ctx.get(ProductCatalog).with_options(hedge=0.05)

Deadlines are *budgets*, not per-hop timeouts.  The root caller's budget is
carried on the wire (``deadline_ms`` in the framed transport,
``X-Repro-Deadline`` over HTTP), decremented at every hop, and enforced
both client-side and at the server door, so a chain of calls can never
outlive the root deadline.  In-process the remaining budget travels as an
ambient :mod:`contextvars` value, which asyncio propagates across task
boundaries for free.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import random
import time
from typing import Any, Iterator, Optional

from repro.core.errors import ConfigError

_OPTION_FIELDS = ("deadline_s", "retries", "hedge_after_s", "route_key")
#: Ergonomic aliases accepted by ``with_options``/``replace``.
_OPTION_ALIASES = {"hedge": "hedge_after_s", "timeout_s": "deadline_s"}


@dataclasses.dataclass(frozen=True)
class CallOptions:
    """Immutable per-call overrides; ``None`` means "use deployment default".

    * ``deadline_s`` — end-to-end budget for the call, including all retries
      and all downstream hops.
    * ``retries`` — max retry attempts after the first (0 disables retries;
      non-idempotent methods are only ever retried when the failure provably
      happened before execution).
    * ``hedge_after_s`` — if set and the method is idempotent, race a second
      attempt after this many seconds without a response; first result wins.
    * ``route_key`` — explicit affinity-routing key, overriding the
      ``@routed(by=...)`` argument extraction.
    """

    deadline_s: Optional[float] = None
    retries: Optional[int] = None
    hedge_after_s: Optional[float] = None
    route_key: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigError(f"deadline_s must be positive, got {self.deadline_s}")
        if self.retries is not None and self.retries < 0:
            raise ConfigError(f"retries must be >= 0, got {self.retries}")
        if self.hedge_after_s is not None and self.hedge_after_s < 0:
            raise ConfigError(
                f"hedge_after_s must be >= 0, got {self.hedge_after_s}"
            )

    def replace(self, **overrides: Any) -> "CallOptions":
        """A copy with the given fields overridden; unset fields survive."""
        fields = {f: getattr(self, f) for f in _OPTION_FIELDS}
        for key, value in overrides.items():
            key = _OPTION_ALIASES.get(key, key)
            if key not in fields:
                raise ConfigError(
                    f"unknown call option {key!r} (valid: "
                    f"{', '.join(_OPTION_FIELDS)})"
                )
            fields[key] = value
        return CallOptions(**fields)


#: The empty options value; invokers treat ``None`` and this identically.
DEFAULT_OPTIONS = CallOptions()


# ---------------------------------------------------------------------------
# Ambient deadline: the remaining budget of the request being served.
# ---------------------------------------------------------------------------

_deadline_var: contextvars.ContextVar[Optional[float]] = contextvars.ContextVar(
    "repro_call_deadline", default=None
)


def current_deadline() -> Optional[float]:
    """The ambient absolute deadline (``time.monotonic()`` scale), if any."""
    return _deadline_var.get()


def remaining_budget_s() -> Optional[float]:
    """Seconds left on the ambient deadline, or ``None`` if unconstrained.

    May be zero or negative once the budget is spent.
    """
    deadline = _deadline_var.get()
    if deadline is None:
        return None
    return deadline - time.monotonic()


def shrink_deadline(deadline: float) -> Optional[contextvars.Token]:
    """Make ``deadline`` ambient unless a tighter one already is.

    A server does this around each handler invocation so every outgoing
    call the handler makes inherits the remaining budget; deadlines only
    ever shrink.  Returns the token :func:`restore_deadline` undoes it
    with, or ``None`` if nothing changed.
    """
    current = _deadline_var.get()
    if current is not None and current <= deadline:
        return None
    return _deadline_var.set(deadline)


def restore_deadline(token: Optional[contextvars.Token]) -> None:
    if token is not None:
        _deadline_var.reset(token)


@contextlib.contextmanager
def deadline_scope(deadline: Optional[float]) -> Iterator[None]:
    """Run a block under an absolute deadline (see :func:`shrink_deadline`)."""
    token = None if deadline is None else shrink_deadline(deadline)
    try:
        yield
    finally:
        restore_deadline(token)


def effective_budget_s(explicit: Optional[float], default: float) -> float:
    """Budget for an outgoing call: explicit/default, capped by the ambient
    deadline.  May be <= 0, which means the call must fail immediately."""
    budget = default if explicit is None else explicit
    ambient = remaining_budget_s()
    if ambient is not None and ambient < budget:
        budget = ambient
    return budget


def budget_to_wire_ms(budget_s: float) -> int:
    """Encode a positive remaining budget for the wire (0 = no deadline).

    Rounds up to 1ms so a nearly-spent budget still reads as "has a
    deadline" on the server side rather than silently becoming unlimited.
    """
    if budget_s <= 0:
        return 1
    return max(1, int(budget_s * 1000))


# ---------------------------------------------------------------------------
# Retry backoff: decorrelated jitter (Brooker), capped.
# ---------------------------------------------------------------------------

_backoff_rng = random.Random()


def decorrelated_jitter(
    prev_s: float,
    *,
    base_s: float,
    cap_s: float,
    rng: Optional[random.Random] = None,
) -> float:
    """Next sleep in a decorrelated-jitter sequence.

    ``sleep = min(cap, uniform(base, prev * 3))`` — grows roughly
    geometrically but never synchronizes across clients, so a failed
    replica coming back is not greeted by a retry storm.
    """
    r = rng or _backoff_rng
    return min(cap_s, r.uniform(base_s, max(base_s, prev_s * 3)))
