"""Stub generation and the local invoker."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.call_graph import CallGraph, ROOT
from repro.core.stub import LocalInvoker, make_stub

from tests.conftest import Adder, Flaky, Greeter


@pytest.fixture
def invoker(demo_build):
    class Resolver:
        def __init__(self):
            self.inv = None

        def get_for(self, iface, caller):
            return make_stub(demo_build.by_iface(iface), self.inv, caller)

    resolver = Resolver()
    inv = LocalInvoker(
        version=demo_build.version, call_graph=CallGraph(), resolver=resolver
    )
    resolver.inv = inv
    return inv


@pytest.fixture
def adder_stub(demo_build, invoker):
    return make_stub(demo_build.by_iface(Adder), invoker, ROOT)


class TestStubCalls:
    async def test_positional_args(self, adder_stub):
        assert await adder_stub.add(2, 3) == 5

    async def test_keyword_args(self, adder_stub):
        assert await adder_stub.add(a=2, b=3) == 5

    async def test_mixed_args(self, adder_stub):
        assert await adder_stub.add(2, b=3) == 5

    async def test_missing_arg_raises_typeerror(self, adder_stub):
        with pytest.raises(TypeError, match="missing 1 required positional argument: 'b'"):
            await adder_stub.add(2)

    async def test_extra_args_raise(self, adder_stub):
        with pytest.raises(TypeError):
            await adder_stub.add(1, 2, 3)

    async def test_unknown_kwarg_raises(self, adder_stub):
        with pytest.raises(TypeError, match="unexpected"):
            await adder_stub.add(1, 2, c=3)

    def test_repr_names_component_and_caller(self, adder_stub):
        assert "Adder" in repr(adder_stub)
        assert ROOT in repr(adder_stub)

    def test_stub_class_cached(self, demo_build, invoker):
        a = make_stub(demo_build.by_iface(Adder), invoker, ROOT)
        b = make_stub(demo_build.by_iface(Adder), invoker, "other")
        assert type(a) is type(b)
        assert a is not b


class TestLocalInvoker:
    async def test_singleton_instance(self, demo_build, invoker):
        reg = demo_build.by_iface(Adder)
        i1 = await invoker.instance(reg)
        i2 = await invoker.instance(reg)
        assert i1 is i2

    async def test_concurrent_instantiation_single_instance(self, demo_build, invoker):
        reg = demo_build.by_iface(Adder)
        instances = await asyncio.gather(*[invoker.instance(reg) for _ in range(20)])
        assert len({id(i) for i in instances}) == 1

    async def test_dependency_resolution_through_context(self, demo_build, invoker):
        stub = make_stub(demo_build.by_iface(Greeter), invoker, ROOT)
        assert await stub.greet("Bob") == "Hello, Bob! (4)"

    async def test_call_graph_records_caller(self, demo_build, invoker):
        stub = make_stub(demo_build.by_iface(Greeter), invoker, ROOT)
        await stub.greet("Bob")
        edges = {(e.caller, e.callee.rsplit(".", 1)[-1]) for e in invoker.call_graph.edges()}
        assert (ROOT, "Greeter") in edges
        greeter_name = demo_build.by_iface(Greeter).name
        assert (greeter_name, "Adder") in edges

    async def test_calls_marked_local(self, demo_build, invoker, adder_stub):
        await adder_stub.add(1, 1)
        (edge,) = [e for e in invoker.call_graph.edges() if e.callee.endswith("Adder")]
        assert edge.local_calls == edge.calls == 1

    async def test_errors_recorded_and_propagated(self, demo_build, invoker):
        from repro.core.errors import Unavailable

        stub = make_stub(demo_build.by_iface(Flaky), invoker, ROOT)
        with pytest.raises(Unavailable):
            await stub.work(5)
        (edge,) = [e for e in invoker.call_graph.edges() if e.callee.endswith("Flaky")]
        assert edge.errors == 1

    async def test_fault_plan_applies_to_existing_stubs(self, demo_build, invoker, adder_stub):
        from repro.core.errors import Unavailable
        from repro.testing.faults import FaultPlan, FaultRule

        invoker.fault_plan = FaultPlan([FaultRule(component="Adder", failure_rate=1.0)])
        with pytest.raises(Unavailable, match="injected"):
            await adder_stub.add(1, 2)
