"""Shared message types of the Online Boutique application (§6.1).

These mirror the protobuf messages of GoogleCloudPlatform's
``microservices-demo`` (the "popular web application [41]" of the paper's
evaluation), expressed as plain dataclasses: the framework derives wire
schemas from them (:mod:`repro.codegen.schema`), so the developer writes no
serialization code — the paper's core ergonomic claim.

Money arithmetic follows the demo's units/nanos convention: ``units`` whole
currency units plus ``nanos`` billionths, with matching signs.
"""

from __future__ import annotations

from dataclasses import dataclass

NANOS_PER_UNIT = 1_000_000_000


class PaymentError(Exception):
    """Raised by the payment service for invalid or declined cards."""


class CheckoutError(Exception):
    """Raised when an order cannot be placed."""


@dataclass(frozen=True)
class Money:
    currency_code: str
    units: int
    nanos: int

    def validate(self) -> "Money":
        if abs(self.nanos) >= NANOS_PER_UNIT:
            raise ValueError(f"nanos out of range: {self.nanos}")
        if self.units > 0 and self.nanos < 0 or self.units < 0 and self.nanos > 0:
            raise ValueError(f"units and nanos signs disagree: {self}")
        return self

    def as_float(self) -> float:
        return self.units + self.nanos / NANOS_PER_UNIT

    def __add__(self, other: "Money") -> "Money":
        if self.currency_code != other.currency_code:
            raise ValueError(
                f"cannot add {self.currency_code} and {other.currency_code}"
            )
        units = self.units + other.units
        nanos = self.nanos + other.nanos
        # Carry and sign-normalize.
        if abs(nanos) >= NANOS_PER_UNIT:
            units += 1 if nanos > 0 else -1
            nanos -= NANOS_PER_UNIT if nanos > 0 else -NANOS_PER_UNIT
        if units > 0 and nanos < 0:
            units -= 1
            nanos += NANOS_PER_UNIT
        elif units < 0 and nanos > 0:
            units += 1
            nanos -= NANOS_PER_UNIT
        return Money(self.currency_code, units, nanos)

    def multiply(self, quantity: int) -> "Money":
        total_nanos = (self.units * NANOS_PER_UNIT + self.nanos) * quantity
        return from_nanos(self.currency_code, total_nanos)


def from_nanos(currency_code: str, total_nanos: int) -> Money:
    units, nanos = divmod(abs(total_nanos), NANOS_PER_UNIT)
    sign = -1 if total_nanos < 0 else 1
    return Money(currency_code, sign * units, sign * nanos)


def zero(currency_code: str) -> Money:
    return Money(currency_code, 0, 0)


@dataclass(frozen=True)
class Product:
    id: str
    name: str
    description: str
    picture: str
    price: Money
    categories: list[str]


@dataclass(frozen=True)
class CartItem:
    product_id: str
    quantity: int


@dataclass(frozen=True)
class Address:
    street_address: str
    city: str
    state: str
    country: str
    zip_code: int


@dataclass(frozen=True)
class CreditCard:
    number: str
    cvv: int
    expiration_year: int
    expiration_month: int


@dataclass(frozen=True)
class OrderItem:
    item: CartItem
    cost: Money


@dataclass(frozen=True)
class OrderResult:
    order_id: str
    shipping_tracking_id: str
    shipping_cost: Money
    shipping_address: Address
    items: list[OrderItem]

    def total(self, currency_code: str) -> Money:
        total = Money(currency_code, self.shipping_cost.units, self.shipping_cost.nanos)
        for oi in self.items:
            total = total + oi.cost.multiply(oi.item.quantity)
        return total


@dataclass(frozen=True)
class Ad:
    redirect_url: str
    text: str


@dataclass(frozen=True)
class ShipQuote:
    cost: Money
    tracking_eta_days: int


@dataclass(frozen=True)
class ChargeResult:
    transaction_id: str
    amount: Money


@dataclass(frozen=True)
class HomePage:
    """What the frontend renders for '/': the full fan-out result."""

    products: list[Product]
    cart_size: int
    ad: Ad
    currency_codes: list[str]


@dataclass(frozen=True)
class OrderConfirmation:
    email: str
    order: OrderResult
    body: str
