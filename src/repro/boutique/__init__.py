"""Online Boutique, ported to components (§6.1).

    "The application has eleven microservices ... We then ported the
    application to our prototype, with each microservice rewritten as a
    component."

The eleven components (the demo's ten services plus its Redis, which here
is the routed :class:`CartStore`):

======================  ===================================================
Frontend                page-level fan-out facade (the load target)
ProductCatalog          product list / lookup / search
Cart                    cart domain logic
CartStore               sharded per-user storage (routed; the Redis stand-in)
Currency                money conversion (EUR-based table)
Payment                 Luhn validation + charge
Shipping                quotes and tracking ids
Email                   order confirmations
Checkout                the place-order orchestration
Recommendation          related-product suggestions
Ads                     contextual ads
======================  ===================================================

Importing this package registers every implementation; deployers freeze
the registry over ``ALL_COMPONENTS``.
"""

from repro.boutique.ads import Ads, AdsImpl
from repro.boutique.cart import Cart, CartImpl
from repro.boutique.cartstore import CartStore, CartStoreImpl
from repro.boutique.catalog import ProductCatalog, ProductCatalogImpl, ProductNotFound
from repro.boutique.checkout import Checkout, CheckoutImpl
from repro.boutique.currency import Currency, CurrencyImpl, UnsupportedCurrency
from repro.boutique.email import Email, EmailImpl
from repro.boutique.frontend import Frontend, FrontendImpl
from repro.boutique.httpfront import BoutiqueHttpServer
from repro.boutique.payment import Payment, PaymentImpl
from repro.boutique.recommendation import Recommendation, RecommendationImpl
from repro.boutique.shipping import Shipping, ShippingImpl
from repro.boutique.types import (
    Ad,
    Address,
    CartItem,
    ChargeResult,
    CheckoutError,
    CreditCard,
    HomePage,
    Money,
    OrderItem,
    OrderResult,
    PaymentError,
    Product,
    ShipQuote,
)

#: The eleven components of the evaluation application, in a stable order.
ALL_COMPONENTS: list[type] = [
    Ads,
    Cart,
    CartStore,
    Checkout,
    Currency,
    Email,
    Frontend,
    Payment,
    ProductCatalog,
    Recommendation,
    Shipping,
]

__all__ = [
    "ALL_COMPONENTS",
    "Ads",
    "Cart",
    "CartStore",
    "Checkout",
    "Currency",
    "Email",
    "Frontend",
    "Payment",
    "ProductCatalog",
    "Recommendation",
    "Shipping",
    "BoutiqueHttpServer",
    "ProductNotFound",
    "UnsupportedCurrency",
    "Ad",
    "Address",
    "CartItem",
    "ChargeResult",
    "CheckoutError",
    "CreditCard",
    "HomePage",
    "Money",
    "OrderItem",
    "OrderResult",
    "PaymentError",
    "Product",
    "ShipQuote",
]
