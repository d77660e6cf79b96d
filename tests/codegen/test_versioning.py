"""Deployment version digests."""

from __future__ import annotations

from repro.codegen.compiler import compile_interface
from repro.codegen.versioning import deployment_version
from repro.core.component import Component


class A(Component):
    async def m(self, x: int) -> int: ...


class B(Component):
    async def n(self, y: str) -> str: ...


class AChanged(Component):
    async def m(self, x: int, extra: bool) -> int: ...


SPEC_A = compile_interface(A, "test.A")
SPEC_B = compile_interface(B, "test.B")
SPEC_A2 = compile_interface(AChanged, "test.A")  # same name, new signature


def test_version_deterministic():
    assert deployment_version([SPEC_A, SPEC_B]) == deployment_version([SPEC_A, SPEC_B])


def test_version_order_independent():
    assert deployment_version([SPEC_A, SPEC_B]) == deployment_version([SPEC_B, SPEC_A])


def test_version_changes_with_signature():
    assert deployment_version([SPEC_A]) != deployment_version([SPEC_A2])


def test_version_changes_with_component_set():
    assert deployment_version([SPEC_A]) != deployment_version([SPEC_A, SPEC_B])


def test_salt_mints_new_version():
    base = deployment_version([SPEC_A])
    assert deployment_version([SPEC_A], salt="build-2") != base


def test_version_is_short_hex():
    v = deployment_version([SPEC_A])
    assert len(v) == 16
    int(v, 16)  # parses as hex


def test_boutique_version_is_pinned():
    """The compact codec's wire is part of this digest's promise: codec work
    must leave it alone.  Changing a boutique interface or message type
    changes it legitimately — update the pin in that change."""
    from repro.boutique import ALL_COMPONENTS
    from repro.core.registry import global_registry

    assert global_registry().freeze(components=ALL_COMPONENTS).version == "d9f52a46931142d2"
