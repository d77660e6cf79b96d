"""Frontend component — port of the demo's frontend service.

The HTTP-facing facade.  In the original it renders HTML; here each method
returns the structured data a page render needs, which is what the load
generator drives (the paper's Locust workload hits the frontend's routes).
Every method fans out to several components, making the frontend the
natural root of the call graph.
"""

from __future__ import annotations

from repro.codegen.compiler import idempotent
from repro.core.component import Component, ComponentContext, implements
from repro.boutique.ads import Ads
from repro.boutique.cart import Cart
from repro.boutique.catalog import ProductCatalog
from repro.boutique.checkout import Checkout
from repro.boutique.currency import Currency
from repro.boutique.recommendation import Recommendation
from repro.boutique.types import (
    Address,
    CartItem,
    CreditCard,
    HomePage,
    OrderResult,
    Product,
)


class Frontend(Component):
    @idempotent
    async def home(self, user_id: str, currency: str) -> HomePage: ...

    @idempotent
    async def browse_product(self, user_id: str, product_id: str, currency: str) -> Product: ...

    @idempotent
    async def view_cart(self, user_id: str, currency: str) -> list[CartItem]: ...

    async def add_to_cart(self, user_id: str, product_id: str, quantity: int) -> int: ...

    @idempotent
    async def get_recommendations(self, user_id: str, product_ids: list[str]) -> list[Product]: ...

    async def checkout(
        self,
        user_id: str,
        currency: str,
        address: Address,
        email: str,
        card: CreditCard,
    ) -> OrderResult: ...


@implements(Frontend)
class FrontendImpl:
    async def init(self, ctx: ComponentContext) -> None:
        self._catalog = ctx.get(ProductCatalog)
        self._cart = ctx.get(Cart)
        self._currency = ctx.get(Currency)
        # Page decorations: bound how long a render waits for them.
        self._recommendation = ctx.get(Recommendation).with_options(deadline_s=1.0)
        self._ads = ctx.get(Ads).with_options(deadline_s=1.0)
        # Checkout fans out to seven components; give the whole chain one
        # end-to-end budget and let the deadline shrink hop by hop.
        self._checkout = ctx.get(Checkout).with_options(deadline_s=10.0, retries=0)
        self._log = ctx.logger

    async def home(self, user_id: str, currency: str) -> HomePage:
        products = await self._catalog.list_products()
        converted = [
            Product(
                p.id,
                p.name,
                p.description,
                p.picture,
                await self._currency.convert(p.price, currency),
                p.categories,
            )
            for p in products
        ]
        cart = await self._cart.get_cart(user_id)
        ads = await self._ads.get_ads([])
        codes = await self._currency.get_supported_currencies()
        return HomePage(
            products=converted,
            cart_size=sum(i.quantity for i in cart),
            ad=ads[0],
            currency_codes=codes,
        )

    async def browse_product(self, user_id: str, product_id: str, currency: str) -> Product:
        product = await self._catalog.get_product(product_id)
        price = await self._currency.convert(product.price, currency)
        # The demo fetches recommendations and category ads on this page
        # too; the calls matter for the call-graph shape.
        await self._recommendation.list_recommendations(user_id, [product_id])
        await self._ads.get_ads(list(product.categories))
        return Product(
            product.id,
            product.name,
            product.description,
            product.picture,
            price,
            product.categories,
        )

    async def view_cart(self, user_id: str, currency: str) -> list[CartItem]:
        return await self._cart.get_cart(user_id)

    async def add_to_cart(self, user_id: str, product_id: str, quantity: int) -> int:
        product = await self._catalog.get_product(product_id)  # validates id
        await self._cart.add_item(user_id, CartItem(product.id, quantity))
        cart = await self._cart.get_cart(user_id)
        return sum(i.quantity for i in cart)

    async def get_recommendations(self, user_id: str, product_ids: list[str]) -> list[Product]:
        ids = await self._recommendation.list_recommendations(user_id, product_ids)
        return [await self._catalog.get_product(pid) for pid in ids]

    async def checkout(
        self,
        user_id: str,
        currency: str,
        address: Address,
        email: str,
        card: CreditCard,
    ) -> OrderResult:
        order = await self._checkout.place_order(user_id, currency, address, email, card)
        self._log.info(
            "order placed", user=user_id, order_id=order.order_id, items=len(order.items)
        )
        return order
