"""End-to-end boutique flows across every deployment shape (§5.3, §6.1)."""

from __future__ import annotations

import asyncio

from repro.baseline.service import deploy_baseline
from repro.boutique import (
    ALL_COMPONENTS,
    Address,
    Cart,
    CartItem,
    CreditCard,
    Frontend,
)
from repro.core.app import init
from repro.core.config import AppConfig
from repro.runtime.deployers.multi import deploy_multiprocess

ADDRESS = Address("1600 Amphitheatre Pkwy", "Mountain View", "CA", "US", 94043)
CARD = CreditCard("4432-8015-6152-0454", 672, 2030, 1)


async def shopping_journey(app, user: str):
    fe = app.get(Frontend)
    home = await fe.home(user, "USD")
    await fe.browse_product(user, home.products[0].id, "USD")
    await fe.add_to_cart(user, home.products[0].id, 2)
    await fe.add_to_cart(user, "6E92ZMYYFZ", 1)
    order = await fe.checkout(user, "USD", ADDRESS, f"{user}@x.com", CARD)
    assert await fe.view_cart(user, "USD") == []
    return order


class TestJourneyAcrossDeployments:
    async def test_single_process(self):
        app = await init(components=ALL_COMPONENTS)
        order = await shopping_journey(app, "u-single")
        assert len(order.items) == 2
        await app.shutdown()

    async def test_multiprocess_inproc(self):
        app = await deploy_multiprocess(
            AppConfig(name="shop"), components=ALL_COMPONENTS, mode="inproc"
        )
        order = await shopping_journey(app, "u-multi")
        assert len(order.items) == 2
        await app.shutdown()

    async def test_http_baseline(self):
        app = await deploy_baseline(components=ALL_COMPONENTS)
        order = await shopping_journey(app, "u-base")
        assert len(order.items) == 2
        await app.shutdown()

    async def test_orders_identical_across_worlds(self):
        """Deployment shape must never change behaviour."""
        totals = []
        for make in (
            lambda: init(components=ALL_COMPONENTS),
            lambda: deploy_multiprocess(
                AppConfig(name="shop"), components=ALL_COMPONENTS, mode="inproc"
            ),
            lambda: deploy_baseline(components=ALL_COMPONENTS),
        ):
            app = await make()
            order = await shopping_journey(app, "parity")
            totals.append(order.total("USD"))
            await app.shutdown()
        assert len(set(totals)) == 1

    async def test_colocation_groups_from_recommendation(self):
        """§5.1 loop closed: observe traffic, co-locate the chatty pairs,
        redeploy, and the app still works with fewer processes."""
        from repro.runtime.placement import recommend_groups

        observe = await init(components=ALL_COMPONENTS)
        await shopping_journey(observe, "observer")
        groups = recommend_groups(
            observe.call_graph, observe.build.names(), max_group_size=4, min_traffic=3
        )
        await observe.shutdown()
        assert len(groups) < 11  # something merged

        config = AppConfig(name="opt", colocate=tuple(groups))
        app = await deploy_multiprocess(config, components=ALL_COMPONENTS, mode="inproc")
        assert app.manager.total_replicas() == len(groups)
        order = await shopping_journey(app, "after-opt")
        assert order.items
        await app.shutdown()

    async def test_concurrent_users_multiprocess(self):
        app = await deploy_multiprocess(
            AppConfig(name="shop"), components=ALL_COMPONENTS, mode="inproc"
        )
        orders = await asyncio.gather(
            *[shopping_journey(app, f"user-{i}") for i in range(8)]
        )
        assert len({o.order_id for o in orders}) == 8
        await app.shutdown()

    async def test_routed_cartstore_affinity_multiprocess(self):
        config = AppConfig(name="shop", replicas={"repro.boutique.cartstore.CartStore": 3})
        app = await deploy_multiprocess(config, components=ALL_COMPONENTS, mode="inproc")
        cart = app.get(Cart)
        for i in range(20):
            await cart.add_item(f"u{i}", CartItem("OLJCESPC7Z", 1))
        for i in range(20):
            assert await cart.get_cart(f"u{i}") == [CartItem("OLJCESPC7Z", 1)]
        await app.shutdown()
