"""CallOptions: validation, layering, aliases, and budget helpers."""

from __future__ import annotations

import random
import time

import pytest

from repro.core.call_graph import ROOT
from repro.core.errors import ConfigError, DeadlineExceeded
from repro.core.options import (
    CallOptions,
    budget_to_wire_ms,
    current_deadline,
    decorrelated_jitter,
    effective_budget_s,
    remaining_budget_s,
    restore_deadline,
    shrink_deadline,
)
from repro.core.stub import LocalInvoker, make_stub

from tests.conftest import Adder


class TestCallOptions:
    def test_defaults_mean_deployment_policy(self):
        opts = CallOptions()
        assert opts.deadline_s is None
        assert opts.retries is None
        assert opts.hedge_after_s is None
        assert opts.route_key is None

    def test_validation(self):
        with pytest.raises(ConfigError):
            CallOptions(deadline_s=0)
        with pytest.raises(ConfigError):
            CallOptions(deadline_s=-1)
        with pytest.raises(ConfigError):
            CallOptions(retries=-1)
        with pytest.raises(ConfigError):
            CallOptions(hedge_after_s=-0.1)

    def test_replace_merges_and_keeps_unset(self):
        base = CallOptions(deadline_s=2.0, retries=1)
        merged = base.replace(retries=3)
        assert merged.deadline_s == 2.0
        assert merged.retries == 3
        assert base.retries == 1  # immutable

    def test_replace_aliases(self):
        opts = CallOptions().replace(hedge=0.05, timeout_s=1.5)
        assert opts.hedge_after_s == 0.05
        assert opts.deadline_s == 1.5

    def test_replace_rejects_unknown_option(self):
        with pytest.raises(ConfigError, match="unknown call option"):
            CallOptions().replace(dead_line=1.0)


class TestStubWithOptions:
    def test_with_options_returns_configured_clone(self, demo_build):
        invoker = LocalInvoker(version=demo_build.version)
        stub = make_stub(demo_build.by_iface(Adder), invoker, ROOT)
        configured = stub.with_options(deadline_s=2.0, retries=0)
        assert configured is not stub
        assert stub._repro_options is None
        assert configured._repro_options == CallOptions(deadline_s=2.0, retries=0)

    def test_with_options_layers(self, demo_build):
        invoker = LocalInvoker(version=demo_build.version)
        stub = make_stub(demo_build.by_iface(Adder), invoker, ROOT)
        layered = stub.with_options(deadline_s=2.0).with_options(retries=1)
        assert layered._repro_options == CallOptions(deadline_s=2.0, retries=1)

    async def test_configured_stub_still_calls(self, demo_build):
        invoker = LocalInvoker(version=demo_build.version)
        stub = make_stub(demo_build.by_iface(Adder), invoker, ROOT)
        assert await stub.with_options(deadline_s=5.0).add(1, 2) == 3

    async def test_local_deadline_enforced(self, demo_registry):
        import asyncio

        import repro
        from repro.core.component import Component

        class Sleeper(Component):
            async def nap(self, seconds: float) -> str: ...

        class SleeperImpl:
            async def nap(self, seconds: float) -> str:
                await asyncio.sleep(seconds)
                return "rested"

        registry = demo_registry
        registry.register(Sleeper, SleeperImpl)
        app = await repro.init(components=None, registry=registry)
        try:
            sleeper = app.get(Sleeper).with_options(deadline_s=0.05)
            with pytest.raises(DeadlineExceeded):
                await sleeper.nap(1.0)
        finally:
            await app.shutdown()


class TestAmbientDeadline:
    def test_scope_sets_and_restores(self):
        assert current_deadline() is None
        token = shrink_deadline(time.monotonic() + 1.0)
        assert remaining_budget_s() is not None
        restore_deadline(token)
        assert current_deadline() is None

    def test_scope_only_shrinks(self):
        tight = time.monotonic() + 0.5
        loose = time.monotonic() + 60.0
        outer = shrink_deadline(tight)
        inner = shrink_deadline(loose)  # must NOT extend
        assert inner is None
        assert current_deadline() == tight
        restore_deadline(inner)
        restore_deadline(outer)
        assert current_deadline() is None

    def test_effective_budget_capped_by_ambient(self):
        token = shrink_deadline(time.monotonic() + 0.2)
        assert effective_budget_s(None, 30.0) <= 0.2
        assert effective_budget_s(10.0, 30.0) <= 0.2
        restore_deadline(token)
        assert effective_budget_s(10.0, 30.0) == 10.0
        assert effective_budget_s(None, 30.0) == 30.0

    def test_budget_to_wire_never_reads_as_unlimited(self):
        assert budget_to_wire_ms(0.5) == 500
        assert budget_to_wire_ms(0.0001) == 1
        assert budget_to_wire_ms(0.0) == 1
        assert budget_to_wire_ms(-1.0) == 1


class TestBackoff:
    def test_jitter_stays_within_bounds(self):
        rng = random.Random(42)
        prev = 0.05
        for _ in range(200):
            prev = decorrelated_jitter(prev, base_s=0.05, cap_s=1.0, rng=rng)
            assert 0.05 <= prev <= 1.0

    def test_jitter_is_capped(self):
        rng = random.Random(7)
        sleep = 100.0  # absurd previous sleep
        assert decorrelated_jitter(sleep, base_s=0.05, cap_s=1.0, rng=rng) == 1.0

    def test_jitter_decorrelates(self):
        rng = random.Random(3)
        values = set()
        prev = 0.05
        for _ in range(20):
            prev = decorrelated_jitter(prev, base_s=0.05, cap_s=10.0, rng=rng)
            values.add(round(prev, 6))
        assert len(values) > 10  # not a fixed geometric ladder
