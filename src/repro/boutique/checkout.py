"""Checkout component — port of the demo's checkoutservice.

The orchestration heart of the application and the deepest call chain in
the graph: one ``place_order`` fans out to Cart, ProductCatalog, Currency,
Shipping, Payment, Email, and back to Cart — seven components, a dozen
calls.  Under the microservice baseline every one of those is a serialized
network hop; under the paper's runtime they are whatever placement makes
them.
"""

from __future__ import annotations

import hashlib
import itertools

from repro.core.component import Component, ComponentContext, implements
from repro.boutique.cart import Cart
from repro.boutique.catalog import ProductCatalog
from repro.boutique.currency import Currency
from repro.boutique.email import Email
from repro.boutique.payment import Payment
from repro.boutique.shipping import Shipping
from repro.boutique.types import (
    Address,
    CheckoutError,
    CreditCard,
    OrderItem,
    OrderResult,
    zero,
)


class Checkout(Component):
    async def place_order(
        self,
        user_id: str,
        user_currency: str,
        address: Address,
        email: str,
        card: CreditCard,
    ) -> OrderResult: ...


@implements(Checkout)
class CheckoutImpl:
    async def init(self, ctx: ComponentContext) -> None:
        self._cart = ctx.get(Cart)
        # Pricing reads are idempotent and latency-sensitive: hedge a
        # second attempt if the first dawdles.
        self._catalog = ctx.get(ProductCatalog).with_options(hedge=0.15)
        self._currency = ctx.get(Currency).with_options(hedge=0.15)
        self._shipping = ctx.get(Shipping)
        # Payment.charge moves money.  It is not idempotent, so the
        # invoker would refuse to re-send it after an ambiguous failure
        # anyway; retries=0 also forgoes the provably-safe retries so a
        # checkout fails fast instead of queueing behind a sick replica.
        self._payment = ctx.get(Payment).with_options(retries=0)
        self._email = ctx.get(Email)
        self._seq = itertools.count(1)

    async def place_order(
        self,
        user_id: str,
        user_currency: str,
        address: Address,
        email: str,
        card: CreditCard,
    ) -> OrderResult:
        cart_items = await self._cart.get_cart(user_id)
        if not cart_items:
            raise CheckoutError(f"cart for user {user_id!r} is empty")

        # Price each line in the user's currency.
        order_items: list[OrderItem] = []
        total = zero(user_currency)
        for item in cart_items:
            product = await self._catalog.get_product(item.product_id)
            price = await self._currency.convert(product.price, user_currency)
            order_items.append(OrderItem(item=item, cost=price))
            total = total + price.multiply(item.quantity)

        # Shipping quote, converted as well.
        quote = await self._shipping.get_quote(address, cart_items)
        shipping_cost = await self._currency.convert(quote.cost, user_currency)
        total = total + shipping_cost

        charge = await self._payment.charge(total, card)

        tracking_id = await self._shipping.ship_order(address, cart_items)
        await self._cart.empty_cart(user_id)

        order_id = self._mint_order_id(user_id, charge.transaction_id)
        order = OrderResult(
            order_id=order_id,
            shipping_tracking_id=tracking_id,
            shipping_cost=shipping_cost,
            shipping_address=address,
            items=order_items,
        )
        await self._email.send_order_confirmation(email, order)
        return order

    def _mint_order_id(self, user_id: str, txn_id: str) -> str:
        seq = next(self._seq)
        digest = hashlib.sha1(f"{user_id}|{txn_id}|{seq}".encode()).hexdigest()
        return (
            f"{digest[:8]}-{digest[8:12]}-{digest[12:16]}-"
            f"{digest[16:20]}-{digest[20:32]}"
        )
