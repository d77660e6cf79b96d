"""Live re-placement: moving components between running proclets (§3.1).

    "The runtime may also move component replicas around, e.g., to
    co-locate two chatty components in the same OS process so that
    communication between the components is done locally."

No redeploy, no new build: the manager pushes new hosted sets to running
proclets, routing re-resolves, and calls keep working throughout.
"""

from __future__ import annotations

import pytest

from repro.core.component import component_name
from repro.core.config import AppConfig
from repro.runtime.deployers.multi import deploy_multiprocess

from tests.conftest import Adder, Flaky, Greeter, KVStore, until


def hosted_by(app, iface):
    """The proclets currently hosting a component (by live envelope)."""
    name = component_name(iface)
    return {
        proclet_id
        for proclet_id, env in app.envelopes.items()
        if not env.stopped and name in env.proclet.hosted
    }


async def deployed(demo_registry):
    return await deploy_multiprocess(AppConfig(name="move"), registry=demo_registry)


class TestMergeLive:
    async def test_merge_makes_calls_local(self, demo_registry):
        app = await deployed(demo_registry)
        greeter = app.get(Greeter)
        assert await greeter.greet("pre") == "Hello, pre! (4)"
        assert hosted_by(app, Adder) != hosted_by(app, Greeter)

        # Merge the chatty pair into one process, live.
        names = {component_name(c): c for c in (Adder, Greeter, KVStore, Flaky)}
        new_groups = [
            (component_name(Adder), component_name(Greeter)),
            (component_name(KVStore),),
            (component_name(Flaky),),
        ]
        await app.replace_placement(new_groups)

        # Both components now live in the same proclet(s)...
        assert hosted_by(app, Adder) == hosted_by(app, Greeter)
        # ...and the app still answers.
        assert await greeter.greet("post") == "Hello, post! (5)"

        # The Greeter->Adder edge is local in whichever proclet serves it.
        for proclet_id in hosted_by(app, Greeter):
            proclet = app.envelopes[proclet_id].proclet
            assert component_name(Adder) in proclet.hosted
        await app.shutdown()

    async def test_merge_keeps_all_components_reachable(self, demo_registry):
        app = await deployed(demo_registry)
        await app.get(KVStore).put("k", "v")
        await app.replace_placement(
            [
                (component_name(Adder), component_name(Greeter), component_name(Flaky)),
                (component_name(KVStore),),
            ]
        )
        assert await app.get(Adder).add(1, 1) == 2
        assert await app.get(Flaky).work(0) == "done"
        # KVStore's group and proclet were untouched: state survived.
        assert await app.get(KVStore).get("k") == "v"
        await app.shutdown()


class TestSplitLive:
    async def test_split_colocated_group(self, demo_registry):
        config = AppConfig(name="split", colocate=((Adder, Greeter),))
        app = await deploy_multiprocess(config, registry=demo_registry)
        assert hosted_by(app, Adder) == hosted_by(app, Greeter)

        await app.replace_placement(
            [
                (component_name(Adder),),
                (component_name(Greeter),),
                (component_name(KVStore),),
                (component_name(Flaky),),
            ]
        )
        # One side keeps the old proclet, the other starts lazily on use.
        assert await app.get(Greeter).greet("x") == "Hello, x! (2)"
        assert await app.get(Adder).add(2, 2) == 4
        assert hosted_by(app, Adder) != hosted_by(app, Greeter)
        await app.shutdown()


class TestReplacementValidation:
    async def test_incomplete_placement_rejected(self, demo_registry):
        from repro.core.errors import PlacementError

        app = await deployed(demo_registry)
        with pytest.raises(PlacementError):
            await app.replace_placement([(component_name(Adder),)])
        # Failed re-placement must not corrupt the live deployment.
        assert await app.get(Greeter).greet("ok") == "Hello, ok! (3)"
        await app.shutdown()

    async def test_noop_replacement(self, demo_registry):
        app = await deployed(demo_registry)
        groups = [tuple(g.components) for g in app.manager.plan.groups]
        await app.replace_placement(groups)
        assert await app.get(Adder).add(3, 4) == 7
        await app.shutdown()


class TestBoutiqueLiveOptimization:
    async def test_observe_then_optimize_without_redeploy(self):
        """The full §5.1 loop with zero downtime: traffic -> merged call
        graph at the manager -> recommendation -> live re-placement ->
        same workload keeps running."""
        from repro.boutique import ALL_COMPONENTS, Frontend
        from repro.runtime.placement import recommend_groups

        app = await deploy_multiprocess(
            AppConfig(name="liveopt"), components=ALL_COMPONENTS, mode="inproc"
        )
        fe = app.get(Frontend)
        for i in range(8):
            await fe.add_to_cart(f"u{i}", "OLJCESPC7Z", 1)
            await fe.view_cart(f"u{i}", "USD")
        # Each caller's edges reach the manager on its own proclet's
        # heartbeat: wait until the Frontend's and the Cart's have landed.
        # Every iteration makes three Frontend -> Cart calls and three
        # Cart -> CartStore calls.
        name = {r.iface.__name__: r.name for r in app.build}

        def traffic(caller: str, callee: str) -> int:
            stats = app.manager.call_graph.pair_traffic().get((name[caller], name[callee]))
            return 0 if stats is None else stats.calls

        await until(
            lambda: traffic("Frontend", "Cart") >= 24 and traffic("Cart", "CartStore") >= 24,
            10.0,
            "the Frontend's and the Cart's call-graph edges never landed",
        )

        groups = recommend_groups(
            app.manager.call_graph, app.build.names(), max_group_size=3, min_traffic=5
        )
        assert len(groups) < 11
        await app.replace_placement(groups)

        # Still serving, now with fewer processes' worth of groups.
        for i in range(4):
            assert await fe.view_cart(f"u{i}", "USD") is not None
        home = await fe.home("post-opt", "USD")
        assert len(home.products) == 9
        await app.shutdown()
