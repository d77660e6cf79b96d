"""Exception hierarchy for the repro framework.

Every error raised by the framework derives from :class:`WeaverError` so
applications can catch framework failures separately from their own bugs.
The hierarchy mirrors the paper's architecture: programming-model errors
(registration, configuration), data-plane errors (serialization, transport,
RPC), and control-plane errors (placement, rollout, deployment).
"""

from __future__ import annotations

import enum
from typing import Optional, Union


class WeaverError(Exception):
    """Base class for all framework errors."""


# ---------------------------------------------------------------------------
# Programming model (Section 3)
# ---------------------------------------------------------------------------


class RegistrationError(WeaverError):
    """A component interface or implementation was declared incorrectly."""


class ComponentNotFound(WeaverError):
    """No implementation is registered for the requested component interface."""


class ConfigError(WeaverError):
    """The application configuration is invalid."""


# ---------------------------------------------------------------------------
# Code generation / serialization (Sections 4.2, 6)
# ---------------------------------------------------------------------------


class SchemaError(WeaverError):
    """A type cannot be used in a component method signature."""


class EncodeError(WeaverError):
    """A value does not conform to its schema and cannot be encoded."""


class DecodeError(WeaverError):
    """A byte stream does not decode to a value of the expected schema."""


class VersionMismatch(DecodeError):
    """Peers disagree on the deployment version.

    The compact serialization format is only safe when encoder and decoder
    run the exact same version of the application (Section 6).  The
    transport handshake enforces this; a mismatch aborts the connection
    rather than risking silent corruption.
    """


# ---------------------------------------------------------------------------
# Transport / RPC (data plane)
# ---------------------------------------------------------------------------


class TransportError(WeaverError):
    """A connection-level failure (framing, I/O, handshake)."""


class ErrorCode(enum.IntEnum):
    """Stable status codes carried on the wire with every RPC failure.

    Whether an error is worth retrying is a property of its *code*, not of
    whoever happened to raise it; ``RPCError.retryable`` is derived from
    this enum so both data planes (TCP and HTTP baseline) agree.
    """

    INTERNAL = 0  # framework bug or unclassified failure; do not retry
    DEADLINE_EXCEEDED = 1  # the caller's budget ran out; retrying cannot help
    RESOURCE_EXHAUSTED = 2  # server shed the request before executing it
    UNAVAILABLE = 3  # no healthy replica reachable / connection failed
    APPLICATION = 4  # the component method itself raised


#: Codes for which a retry against another replica can plausibly succeed.
RETRYABLE_CODES = frozenset({ErrorCode.RESOURCE_EXHAUSTED, ErrorCode.UNAVAILABLE})


class RPCError(WeaverError):
    """A remote method invocation failed.

    ``code`` classifies the failure (see :class:`ErrorCode`); ``retryable``
    is derived from it.  ``executed`` records whether the remote method body
    *may have run*: errors raised before the request reached user code
    (connect failures, admission-control sheds, deadline rejections at the
    server door) carry ``executed=False`` and are safe to retry even for
    non-idempotent methods.
    """

    def __init__(
        self,
        message: str,
        *,
        code: Union[ErrorCode, int],
        executed: bool = True,
    ) -> None:
        super().__init__(message)
        self.code = ErrorCode(code)
        self.executed = executed

    @property
    def retryable(self) -> bool:
        return self.code in RETRYABLE_CODES


class RemoteApplicationError(RPCError):
    """The remote method raised an application-level exception.

    The original exception type name and message are preserved so callers
    can at least log a faithful description of the failure.  The method
    body ran, so these are never retried unless the method is idempotent —
    and even then the APPLICATION code is non-retryable by policy.
    """

    def __init__(self, exc_type: str, exc_message: str) -> None:
        super().__init__(
            f"{exc_type}: {exc_message}", code=ErrorCode.APPLICATION, executed=True
        )
        self.exc_type = exc_type
        self.exc_message = exc_message


class DeadlineExceeded(RPCError):
    """The call did not complete within its deadline.

    Non-retryable: once the budget is spent there is nothing left to retry
    with.  Callers that want another attempt must start a new call with a
    fresh deadline.
    """

    def __init__(
        self, message: str = "deadline exceeded", *, executed: bool = True
    ) -> None:
        super().__init__(message, code=ErrorCode.DEADLINE_EXCEEDED, executed=executed)


class ResourceExhausted(RPCError):
    """The server shed this request under overload (admission control).

    Retryable by design, and always ``executed=False``: shedding happens at
    the proclet door, before the method body runs, so even non-idempotent
    methods may be safely retried.
    """

    def __init__(self, message: str = "server at capacity") -> None:
        super().__init__(message, code=ErrorCode.RESOURCE_EXHAUSTED, executed=False)


class Unavailable(RPCError):
    """No healthy replica of the callee component is reachable.

    Retryable by design: replicas may be restarting (Section 3.1 notes that
    component replicas may fail and get restarted).  ``executed=False``
    marks failures that provably happened before the request was sent
    (dial errors, handshake failures) — those retries are safe for any
    method.  ``draining=True`` marks rejections from a replica that is
    shutting down gracefully: the door is closed but the replica is
    otherwise fine, so callers should fail over without penalizing it as
    broken (the breaker layer treats draining rejections as neutral).
    """

    def __init__(
        self,
        message: str = "component unavailable",
        *,
        executed: bool = True,
        draining: bool = False,
    ) -> None:
        super().__init__(message, code=ErrorCode.UNAVAILABLE, executed=executed)
        self.draining = draining


class WrongOwner(Unavailable):
    """A routed key reached a replica that does not own it.

    Raised by the state layer when a caller's :class:`Assignment` is stale
    — the ring changed mid-flight and the key's slice moved.  Retryable
    and provably not executed: the write was rejected at the ownership
    check, before touching state.  The caller's resolver drops its cached
    assignment on this marker (without penalizing the replica's breaker —
    the replica is healthy, the *caller's map* is old) so the retry
    re-resolves through the runtime and lands on the current owner.
    """

    def __init__(
        self, message: str = "replica does not own this key", *, owner: Optional[str] = None
    ) -> None:
        if "wrong-owner" not in message:
            message = f"wrong-owner: {message}"
        super().__init__(message, executed=False)
        self.wrong_owner = True
        #: The owner under the rejecting replica's assignment, if known
        #: (diagnostic only; callers re-resolve rather than trusting it).
        self.owner = owner


def error_from_code(
    code: Union[ErrorCode, int], message: str, *, executed: bool = True
) -> RPCError:
    """Rehydrate the canonical exception class for a wire-level error code."""
    try:
        code = ErrorCode(code)
    except ValueError:
        code = ErrorCode.INTERNAL
    if code is ErrorCode.DEADLINE_EXCEEDED:
        return DeadlineExceeded(message, executed=executed)
    if code is ErrorCode.RESOURCE_EXHAUSTED:
        err = ResourceExhausted(message)
        err.executed = executed
        return err
    if code is ErrorCode.UNAVAILABLE:
        # The wire carries (code, message, executed); the draining and
        # wrong-owner markers ride in the message text (set by RPCServer's
        # drain rejection and WrongOwner.__init__ respectively).
        if "wrong-owner" in message:
            return WrongOwner(message)
        return Unavailable(
            message, executed=executed, draining="draining" in message
        )
    return RPCError(message, code=code, executed=executed)


# ---------------------------------------------------------------------------
# Control plane (Section 4.3/4.4)
# ---------------------------------------------------------------------------


class RuntimeControlError(WeaverError):
    """The proclet <-> runtime control protocol was violated."""


class PlacementError(WeaverError):
    """The placement engine produced or was given an invalid assignment."""


class RolloutError(WeaverError):
    """An atomic rollout could not be performed or was violated."""


class CrossVersionViolation(RolloutError):
    """A request at one application version reached code at another version.

    This is exactly the failure mode the paper's atomic rollouts eliminate
    (Section 4.4, citing [78]).  The runtime raises this error in tests and
    simulations when the invariant would be broken.
    """
