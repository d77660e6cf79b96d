"""Checkout orchestration and the frontend facade — the end-to-end flows."""

from __future__ import annotations

import pytest

from repro.boutique import (
    Cart,
    Checkout,
    Email,
    Frontend,
)
from repro.boutique.types import Address, CartItem, CheckoutError, CreditCard, Money

ADDRESS = Address("1600 Amphitheatre Pkwy", "Mountain View", "CA", "US", 94043)
CARD = CreditCard("4432-8015-6152-0454", 672, 2030, 1)
BAD_CARD = CreditCard("4432-8015-6152-0455", 672, 2030, 1)


class TestCheckout:
    async def test_full_order(self, boutique_app):
        app = await boutique_app()
        cart = app.get(Cart)
        await cart.add_item("u1", CartItem("OLJCESPC7Z", 2))  # 2 x $19.99
        await cart.add_item("u1", CartItem("9SIQT8TOJO", 1))  # 1 x $5.49

        order = await app.get(Checkout).place_order("u1", "USD", ADDRESS, "a@b.com", CARD)
        assert len(order.items) == 2
        # 2*19.99 + 5.49 + 8.99 shipping = 54.46
        assert order.total("USD") == Money("USD", 54, 460_000_000)
        assert order.shipping_tracking_id
        await app.shutdown()

    async def test_cart_emptied_after_order(self, boutique_app):
        app = await boutique_app()
        cart = app.get(Cart)
        await cart.add_item("u1", CartItem("OLJCESPC7Z", 1))
        await app.get(Checkout).place_order("u1", "USD", ADDRESS, "a@b.com", CARD)
        assert await cart.get_cart("u1") == []
        await app.shutdown()

    async def test_confirmation_email_sent(self, boutique_app):
        app = await boutique_app()
        await app.get(Cart).add_item("u1", CartItem("OLJCESPC7Z", 1))
        await app.get(Checkout).place_order("u1", "USD", ADDRESS, "a@b.com", CARD)
        assert await app.get(Email).sent_count() == 1
        await app.shutdown()

    async def test_empty_cart_rejected(self, boutique_app):
        app = await boutique_app()
        with pytest.raises(CheckoutError, match="empty"):
            await app.get(Checkout).place_order("u1", "USD", ADDRESS, "a@b.com", CARD)
        await app.shutdown()

    async def test_payment_failure_keeps_cart(self, boutique_app):
        """A declined card must not destroy the cart (no partial commit)."""
        from repro.boutique.types import PaymentError

        app = await boutique_app()
        cart = app.get(Cart)
        await cart.add_item("u1", CartItem("OLJCESPC7Z", 1))
        with pytest.raises(PaymentError):
            await app.get(Checkout).place_order("u1", "USD", ADDRESS, "a@b.com", BAD_CARD)
        assert await cart.get_cart("u1") != []
        await app.shutdown()

    async def test_order_in_foreign_currency(self, boutique_app):
        app = await boutique_app()
        await app.get(Cart).add_item("u1", CartItem("OLJCESPC7Z", 1))
        order = await app.get(Checkout).place_order("u1", "EUR", ADDRESS, "a@b.com", CARD)
        assert order.shipping_cost.currency_code == "EUR"
        assert all(oi.cost.currency_code == "EUR" for oi in order.items)
        # 19.99 + 8.99 = 28.98 USD ~= 25.63 EUR at the demo rate.
        assert abs(order.total("EUR").as_float() - 28.98 / 1.1305) < 0.02
        await app.shutdown()

    async def test_order_ids_unique(self, boutique_app):
        app = await boutique_app()
        cart, checkout = app.get(Cart), app.get(Checkout)
        ids = set()
        for i in range(3):
            await cart.add_item("u1", CartItem("OLJCESPC7Z", 1))
            order = await checkout.place_order("u1", "USD", ADDRESS, "a@b.com", CARD)
            ids.add(order.order_id)
        assert len(ids) == 3
        await app.shutdown()


class TestFrontend:
    async def test_home(self, boutique_app):
        app = await boutique_app()
        home = await app.get(Frontend).home("u1", "EUR")
        assert len(home.products) == 9
        assert all(p.price.currency_code == "EUR" for p in home.products)
        assert home.cart_size == 0
        assert home.ad.text
        assert "EUR" in home.currency_codes
        await app.shutdown()

    async def test_home_shows_cart_size(self, boutique_app):
        app = await boutique_app()
        fe = app.get(Frontend)
        await fe.add_to_cart("u1", "OLJCESPC7Z", 3)
        home = await fe.home("u1", "USD")
        assert home.cart_size == 3
        await app.shutdown()

    async def test_browse_product_converts_price(self, boutique_app):
        app = await boutique_app()
        p = await app.get(Frontend).browse_product("u1", "1YMWWN1N4O", "JPY")
        assert p.price.currency_code == "JPY"
        assert p.id == "1YMWWN1N4O"
        await app.shutdown()

    async def test_add_to_cart_validates_product(self, boutique_app):
        from repro.boutique.catalog import ProductNotFound

        app = await boutique_app()
        with pytest.raises(ProductNotFound):
            await app.get(Frontend).add_to_cart("u1", "FAKE", 1)
        await app.shutdown()

    async def test_add_to_cart_returns_running_total(self, boutique_app):
        app = await boutique_app()
        fe = app.get(Frontend)
        assert await fe.add_to_cart("u1", "OLJCESPC7Z", 2) == 2
        assert await fe.add_to_cart("u1", "6E92ZMYYFZ", 1) == 3
        await app.shutdown()

    async def test_recommendations_resolve_to_products(self, boutique_app):
        app = await boutique_app()
        recs = await app.get(Frontend).get_recommendations("u1", ["OLJCESPC7Z"])
        assert recs
        assert all(p.id != "OLJCESPC7Z" for p in recs)
        assert all(p.name for p in recs)
        await app.shutdown()

    async def test_full_shopping_journey(self, boutique_app):
        """The classic user story across every frontend route."""
        app = await boutique_app()
        fe = app.get(Frontend)
        home = await fe.home("shopper", "USD")
        product = await fe.browse_product("shopper", home.products[0].id, "USD")
        await fe.add_to_cart("shopper", product.id, 2)
        cart = await fe.view_cart("shopper", "USD")
        assert sum(i.quantity for i in cart) == 2
        order = await fe.checkout("shopper", "USD", ADDRESS, "s@example.com", CARD)
        assert order.items[0].item.product_id == product.id
        assert await fe.view_cart("shopper", "USD") == []
        await app.shutdown()

    async def test_frontend_logs_orders(self, boutique_app):
        app = await boutique_app()
        fe = app.get(Frontend)
        await fe.add_to_cart("u1", "OLJCESPC7Z", 1)
        await fe.checkout("u1", "USD", ADDRESS, "a@b.com", CARD)
        # Single-process app: the component logger defaults to the plain
        # logging logger; at least the order flow completes and the call
        # graph saw every component.
        touched = {c.rsplit(".", 1)[-1] for c in app.call_graph.components()}
        assert {"Frontend", "Checkout", "Payment", "Shipping", "Email"} <= touched
        await app.shutdown()
