"""Per-component behaviour of the Online Boutique port."""

from __future__ import annotations

import pytest

from repro.boutique import (
    Ads,
    Cart,
    CartStore,
    Currency,
    Email,
    Payment,
    ProductCatalog,
    Recommendation,
    Shipping,
)
from repro.boutique.catalog import ProductNotFound
from repro.boutique.currency import UnsupportedCurrency
from repro.boutique.payment import card_network, luhn_valid
from repro.boutique.types import (
    Address,
    CartItem,
    CreditCard,
    Money,
    PaymentError,
)

ADDRESS = Address("1 Main St", "Springfield", "IL", "US", 62701)
GOOD_CARD = CreditCard("4432-8015-6152-0454", 672, 2030, 1)


class TestCatalog:
    async def test_list_products(self, boutique_app):
        app = await boutique_app()
        products = await app.get(ProductCatalog).list_products()
        assert len(products) == 9
        assert all(p.price.currency_code == "USD" for p in products)
        await app.shutdown()

    async def test_get_product(self, boutique_app):
        app = await boutique_app()
        p = await app.get(ProductCatalog).get_product("OLJCESPC7Z")
        assert p.name == "Sunglasses"
        await app.shutdown()

    async def test_unknown_product(self, boutique_app):
        app = await boutique_app()
        with pytest.raises(ProductNotFound):
            await app.get(ProductCatalog).get_product("NOPE")
        await app.shutdown()

    async def test_search(self, boutique_app):
        app = await boutique_app()
        catalog = app.get(ProductCatalog)
        hits = await catalog.search_products("kitchen")
        assert {p.id for p in hits} >= {"9SIQT8TOJO"}
        assert await catalog.search_products("zzzznothing") == []
        await app.shutdown()


class TestCurrency:
    async def test_supported_currencies(self, boutique_app):
        app = await boutique_app()
        codes = await app.get(Currency).get_supported_currencies()
        assert "USD" in codes and "EUR" in codes and len(codes) > 30
        await app.shutdown()

    async def test_identity_conversion(self, boutique_app):
        app = await boutique_app()
        m = Money("USD", 10, 500_000_000)
        assert await app.get(Currency).convert(m, "USD") == m
        await app.shutdown()

    async def test_usd_to_eur_and_back_is_close(self, boutique_app):
        app = await boutique_app()
        currency = app.get(Currency)
        eur = await currency.convert(Money("USD", 100, 0), "EUR")
        assert eur.currency_code == "EUR"
        back = await currency.convert(eur, "USD")
        assert abs(back.as_float() - 100.0) < 0.001
        await app.shutdown()

    async def test_conversion_uses_demo_rate(self, boutique_app):
        app = await boutique_app()
        eur = await app.get(Currency).convert(Money("USD", 113, 50_000_000), "EUR")
        assert abs(eur.as_float() - 113.05 / 1.1305) < 0.01
        await app.shutdown()

    async def test_unknown_currency(self, boutique_app):
        app = await boutique_app()
        with pytest.raises(UnsupportedCurrency):
            await app.get(Currency).convert(Money("USD", 1, 0), "XXX")
        await app.shutdown()


class TestCart:
    async def test_add_and_get(self, boutique_app):
        app = await boutique_app()
        cart = app.get(Cart)
        await cart.add_item("u1", CartItem("p1", 2))
        await cart.add_item("u1", CartItem("p2", 1))
        items = await cart.get_cart("u1")
        assert items == [CartItem("p1", 2), CartItem("p2", 1)]
        await app.shutdown()

    async def test_quantities_merge(self, boutique_app):
        app = await boutique_app()
        cart = app.get(Cart)
        await cart.add_item("u1", CartItem("p1", 2))
        await cart.add_item("u1", CartItem("p1", 3))
        assert await cart.get_cart("u1") == [CartItem("p1", 5)]
        await app.shutdown()

    async def test_users_isolated(self, boutique_app):
        app = await boutique_app()
        cart = app.get(Cart)
        await cart.add_item("u1", CartItem("p1", 1))
        assert await cart.get_cart("u2") == []
        await app.shutdown()

    async def test_empty_cart(self, boutique_app):
        app = await boutique_app()
        cart = app.get(Cart)
        await cart.add_item("u1", CartItem("p1", 1))
        await cart.empty_cart("u1")
        assert await cart.get_cart("u1") == []
        await app.shutdown()

    async def test_invalid_quantity(self, boutique_app):
        app = await boutique_app()
        with pytest.raises(ValueError):
            await app.get(Cart).add_item("u1", CartItem("p1", 0))
        await app.shutdown()

    async def test_empty_user_id(self, boutique_app):
        app = await boutique_app()
        with pytest.raises(ValueError):
            await app.get(Cart).add_item("", CartItem("p1", 1))
        await app.shutdown()

    async def test_store_stats(self, boutique_app):
        app = await boutique_app()
        store = app.get(CartStore)
        await store.add("u1", CartItem("p", 1))
        await store.get("u1")
        await store.get("unknown")
        stats = await store.stats("u1")
        assert stats["hits"] == 1 and stats["misses"] == 1 and stats["users"] == 1
        await app.shutdown()


class TestPayment:
    def test_luhn(self):
        assert luhn_valid("4432801561520454")
        assert not luhn_valid("4432801561520455")
        assert not luhn_valid("abc")
        assert not luhn_valid("1234")

    def test_network_detection(self):
        assert card_network("4432801561520454") == "visa"
        assert card_network("5105105105105100") == "mastercard"
        assert card_network("378282246310005") == "amex"
        assert card_network("6011111111111117") == "unknown"

    async def test_successful_charge(self, boutique_app):
        app = await boutique_app()
        result = await app.get(Payment).charge(Money("USD", 10, 0), GOOD_CARD)
        assert result.transaction_id.startswith("txn-")
        assert result.amount == Money("USD", 10, 0)
        await app.shutdown()

    async def test_transaction_ids_unique(self, boutique_app):
        app = await boutique_app()
        payment = app.get(Payment)
        a = await payment.charge(Money("USD", 1, 0), GOOD_CARD)
        b = await payment.charge(Money("USD", 1, 0), GOOD_CARD)
        assert a.transaction_id != b.transaction_id
        await app.shutdown()

    async def test_bad_luhn_rejected(self, boutique_app):
        app = await boutique_app()
        bad = CreditCard("4432-8015-6152-0455", 1, 2030, 1)
        with pytest.raises(PaymentError, match="invalid card"):
            await app.get(Payment).charge(Money("USD", 1, 0), bad)
        await app.shutdown()

    async def test_amex_not_accepted(self, boutique_app):
        app = await boutique_app()
        amex = CreditCard("378282246310005", 1, 2030, 1)
        with pytest.raises(PaymentError, match="amex"):
            await app.get(Payment).charge(Money("USD", 1, 0), amex)
        await app.shutdown()

    async def test_expired_card(self, boutique_app):
        app = await boutique_app()
        expired = CreditCard("4432-8015-6152-0454", 1, 2020, 1)
        with pytest.raises(PaymentError, match="expired"):
            await app.get(Payment).charge(Money("USD", 1, 0), expired)
        await app.shutdown()

    async def test_nonpositive_amount_rejected(self, boutique_app):
        app = await boutique_app()
        with pytest.raises(PaymentError, match="positive"):
            await app.get(Payment).charge(Money("USD", 0, 0), GOOD_CARD)
        await app.shutdown()


class TestShipping:
    async def test_flat_quote_for_small_orders(self, boutique_app):
        app = await boutique_app()
        quote = await app.get(Shipping).get_quote(ADDRESS, [CartItem("p", 2)])
        assert quote.cost == Money("USD", 8, 990_000_000)
        assert quote.tracking_eta_days == 3
        await app.shutdown()

    async def test_bulk_surcharge(self, boutique_app):
        app = await boutique_app()
        quote = await app.get(Shipping).get_quote(ADDRESS, [CartItem("p", 7)])
        assert quote.cost == Money("USD", 9, 990_000_000)  # +2 * $0.50
        assert quote.tracking_eta_days == 5
        await app.shutdown()

    async def test_tracking_id_deterministic_for_address(self, boutique_app):
        app = await boutique_app()
        shipping = app.get(Shipping)
        a = await shipping.ship_order(ADDRESS, [CartItem("p", 1)])
        b = await shipping.ship_order(ADDRESS, [CartItem("p", 1)])
        assert a == b
        assert a.startswith("SP-")
        await app.shutdown()


class TestEmailAdsRecommendation:
    async def test_ads_by_category(self, boutique_app):
        app = await boutique_app()
        ads = await app.get(Ads).get_ads(["kitchen"])
        assert len(ads) == 2
        await app.shutdown()

    async def test_ads_fallback_random(self, boutique_app):
        app = await boutique_app()
        ads = await app.get(Ads).get_ads([])
        assert len(ads) == 1
        await app.shutdown()

    async def test_recommendations_exclude_context(self, boutique_app):
        app = await boutique_app()
        recs = await app.get(Recommendation).list_recommendations("u1", ["OLJCESPC7Z"])
        assert "OLJCESPC7Z" not in recs
        assert 0 < len(recs) <= 5
        await app.shutdown()

    async def test_recommendations_differ_per_user(self, boutique_app):
        app = await boutique_app()
        rec = app.get(Recommendation)
        r1 = await rec.list_recommendations("user-a", [])
        r2 = await rec.list_recommendations("user-xyz", [])
        assert r1 != r2  # rotation is user-keyed
        await app.shutdown()

    async def test_email_renders_order(self, boutique_app):
        app = await boutique_app()
        from repro.boutique.types import OrderItem, OrderResult

        order = OrderResult(
            "o-1",
            "TRACK-1",
            Money("USD", 8, 990_000_000),
            ADDRESS,
            [OrderItem(CartItem("OLJCESPC7Z", 2), Money("USD", 19, 990_000_000))],
        )
        email = app.get(Email)
        confirmation = await email.send_order_confirmation("a@b.com", order)
        assert "o-1" in confirmation.body
        assert "TRACK-1" in confirmation.body
        assert await email.sent_count() == 1
        await app.shutdown()

    async def test_email_validates_address(self, boutique_app):
        app = await boutique_app()
        from repro.boutique.types import OrderResult

        order = OrderResult("o", "t", Money("USD", 0, 1), ADDRESS, [])
        with pytest.raises(ValueError, match="email"):
            await app.get(Email).send_order_confirmation("not-an-email", order)
        await app.shutdown()
