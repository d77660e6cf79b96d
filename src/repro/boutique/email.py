"""Email component — port of the demo's emailservice.

Renders the order-confirmation message (the demo uses a Jinja template;
ours is a format string with the same fields) and counts it as sent
instead of talking SMTP — the delivery side is exactly the kind of
external service §8.2 says need not be a component.  Like the demo's
emailservice, it keeps no message once it has been returned.
"""

from __future__ import annotations

from repro.codegen.compiler import idempotent
from repro.core.component import Component, implements
from repro.boutique.types import OrderConfirmation, OrderResult


class Email(Component):
    async def send_order_confirmation(self, email: str, order: OrderResult) -> OrderConfirmation: ...

    @idempotent
    async def sent_count(self) -> int: ...


@implements(Email)
class EmailImpl:
    def __init__(self) -> None:
        self._sent = 0

    async def send_order_confirmation(self, email: str, order: OrderResult) -> OrderConfirmation:
        if "@" not in email:
            raise ValueError(f"invalid email address {email!r}")
        lines = [
            f"Your order {order.order_id} is confirmed!",
            f"It will ship as {order.shipping_tracking_id} to "
            f"{order.shipping_address.street_address}, {order.shipping_address.city}.",
            "Items:",
        ]
        for oi in order.items:
            lines.append(
                f"  - {oi.item.quantity} x {oi.item.product_id} @ "
                f"{oi.cost.units}.{oi.cost.nanos // 10_000_000:02d} {oi.cost.currency_code}"
            )
        shipping = order.shipping_cost
        lines.append(
            f"Shipping: {shipping.units}.{shipping.nanos // 10_000_000:02d} "
            f"{shipping.currency_code}"
        )
        self._sent += 1
        return OrderConfirmation(email=email, order=order, body="\n".join(lines))

    async def sent_count(self) -> int:
        return self._sent
