"""Stateful rollouts: testing cross-version interactions through state (§5.4).

    "if an application updates state in a persistent storage system ...
    different versions of an application will indirectly influence each
    other via the data they read and write.  These cross-version
    interactions are unavoidable ... an open question remains about how to
    test these interactions and identify bugs early."

This module is our take on that open question: a *state compatibility
checker* run at rollout time, before any traffic shifts.  Given the old
and new versions' schemas for each persisted record type, it verifies —
with the actual wire codec — that:

* **forward**: records written by the old version decode under the new
  schema (the new version can read existing state);
* **backward**: records written by the new version decode under the old
  schema (during the shift, and after a rollback, the old version can
  read state the new version wrote);
* **round-trip fidelity**: values survive old→new→old re-encoding without
  silent mutation (the corruption case of E10: tagged formats "succeed"
  while scrambling fields).

The checker consumes representative sample values (from tests or recorded
production data) and produces a report the rollout driver can gate on —
:func:`gate_rollout` raises before a single request reaches green if state
would be unsafe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.codegen.schema import Schema, schema_of
from repro.core.errors import DecodeError, EncodeError, RolloutError
from repro.serde import codec_by_name


@dataclass(frozen=True)
class StateType:
    """One persisted record type in one application version."""

    name: str  # logical store name, e.g. "orders"
    cls: type  # the dataclass the version reads/writes

    @property
    def schema(self) -> Schema:
        return schema_of(self.cls)


@dataclass
class Incompatibility:
    store: str
    direction: str  # "forward" | "backward" | "roundtrip"
    detail: str
    sample: Any = None

    def __str__(self) -> str:
        return f"[{self.store}] {self.direction}: {self.detail}"


@dataclass
class CompatibilityReport:
    checked_stores: list[str] = field(default_factory=list)
    samples_checked: int = 0
    incompatibilities: list[Incompatibility] = field(default_factory=list)

    @property
    def safe(self) -> bool:
        return not self.incompatibilities

    def summary(self) -> str:
        if self.safe:
            return (
                f"state compatible: {len(self.checked_stores)} store(s), "
                f"{self.samples_checked} sample(s) verified"
            )
        lines = [
            f"state INCOMPATIBLE: {len(self.incompatibilities)} issue(s) "
            f"across {len(self.checked_stores)} store(s):"
        ]
        lines += [f"  - {issue}" for issue in self.incompatibilities]
        return "\n".join(lines)


class StateCompatibilityChecker:
    """Checks every shared store between two application versions."""

    def __init__(self, codec_name: str = "tagged") -> None:
        # State at rest is typically in the *versioned* format (the compact
        # format is only valid within one deployment version — that is the
        # whole point), so tagged is the natural default here.
        self._codec = codec_by_name(codec_name)
        self._codec_name = codec_name

    def check(
        self,
        old: list[StateType],
        new: list[StateType],
        samples: dict[str, list[Any]],
    ) -> CompatibilityReport:
        """Check all stores; ``samples`` maps store name -> old-version values."""
        report = CompatibilityReport()
        new_by_name = {t.name: t for t in new}
        for old_type in old:
            new_type = new_by_name.get(old_type.name)
            if new_type is None:
                # Store dropped in the new version: old data becomes
                # unreachable, which deserves an explicit call-out.
                report.incompatibilities.append(
                    Incompatibility(
                        old_type.name,
                        "forward",
                        "store has no schema in the new version; existing "
                        "records would be orphaned",
                    )
                )
                report.checked_stores.append(old_type.name)
                continue
            report.checked_stores.append(old_type.name)
            for sample in samples.get(old_type.name, []):
                report.samples_checked += 1
                self._check_sample(old_type, new_type, sample, report)
        return report

    def _check_sample(
        self,
        old_type: StateType,
        new_type: StateType,
        sample: Any,
        report: CompatibilityReport,
    ) -> None:
        store = old_type.name
        try:
            stored = self._codec.encode(old_type.schema, sample)
        except EncodeError as exc:
            report.incompatibilities.append(
                Incompatibility(store, "forward", f"sample does not encode: {exc}", sample)
            )
            return
        # Forward: can the new version read old state?
        try:
            as_new = self._codec.decode(new_type.schema, stored)
        except DecodeError as exc:
            report.incompatibilities.append(
                Incompatibility(store, "forward", f"old record unreadable by new schema: {exc}", sample)
            )
            return
        # Forward fidelity: fields that exist under the same *name* in
        # both versions must carry the same value after decoding.  This is
        # what catches the silent swap of two same-typed fields — the wire
        # accepts it, round-trips cancel it, but `user_id` now holds an
        # order id.
        shared = {f.name for f in old_type.schema.fields} & {
            f.name for f in new_type.schema.fields
        }
        for name in sorted(shared):
            if getattr(sample, name) != getattr(as_new, name):
                report.incompatibilities.append(
                    Incompatibility(
                        store,
                        "forward",
                        f"field {name!r} changed meaning: "
                        f"{getattr(sample, name)!r} -> {getattr(as_new, name)!r} "
                        "(same-named fields must keep their values)",
                        sample,
                    )
                )
                return
        # Backward: can the old version read what the new one writes?
        try:
            rewritten = self._codec.encode(new_type.schema, as_new)
            as_old_again = self._codec.decode(old_type.schema, rewritten)
        except (EncodeError, DecodeError) as exc:
            report.incompatibilities.append(
                Incompatibility(store, "backward", f"new record unreadable by old schema: {exc}", sample)
            )
            return
        # Round-trip fidelity: shared fields must survive unchanged.  This
        # is the silent-corruption detector — a reordered or re-numbered
        # field decodes "fine" but lands in the wrong place.
        if not self._fields_match(old_type, sample, as_old_again):
            report.incompatibilities.append(
                Incompatibility(
                    store,
                    "roundtrip",
                    f"value mutated across versions: {sample!r} -> {as_old_again!r}",
                    sample,
                )
            )

    def _fields_match(self, old_type: StateType, before: Any, after: Any) -> bool:
        for f in old_type.schema.fields:
            if getattr(before, f.name) != getattr(after, f.name):
                return False
        return True


async def gate_rollout(
    checker: StateCompatibilityChecker,
    old: list[StateType],
    new: list[StateType],
    samples: dict[str, list[Any]],
) -> CompatibilityReport:
    """The rollout gate: raise :class:`RolloutError` on unsafe state.

    Call before ``run_rollout``; a failed gate means the new build must not
    receive traffic because even atomic rollouts cannot isolate persistent
    state (§5.4).
    """
    report = checker.check(old, new, samples)
    if not report.safe:
        raise RolloutError(report.summary())
    return report
