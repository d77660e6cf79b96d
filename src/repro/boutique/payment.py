"""Payment component — port of the demo's paymentservice.

Validates the card with a real Luhn check, infers the network from the
prefix, rejects expired or unsupported cards, and mints a transaction id.
No external processor exists (nor does one in the demo, which also fakes
the charge); what matters for the evaluation is that the component does
plausible CPU work and returns a structured result.
"""

from __future__ import annotations

import hashlib
import itertools

from repro.core.component import Component, implements
from repro.boutique.types import ChargeResult, CreditCard, Money, PaymentError


def luhn_valid(number: str) -> bool:
    digits = [int(c) for c in number if c.isdigit()]
    if len(digits) < 12 or not number.replace(" ", "").replace("-", "").isdigit():
        return False
    checksum = 0
    for i, d in enumerate(reversed(digits)):
        if i % 2 == 1:
            d *= 2
            if d > 9:
                d -= 9
        checksum += d
    return checksum % 10 == 0


def card_network(number: str) -> str:
    compact = number.replace(" ", "").replace("-", "")
    if compact.startswith("4"):
        return "visa"
    if compact[:2] in {"51", "52", "53", "54", "55"}:
        return "mastercard"
    if compact.startswith(("34", "37")):
        return "amex"
    return "unknown"


class Payment(Component):
    async def charge(self, amount: Money, card: CreditCard) -> ChargeResult: ...


@implements(Payment)
class PaymentImpl:
    ACCEPTED_NETWORKS = ("visa", "mastercard")

    def __init__(self) -> None:
        self._seq = itertools.count(1)
        self.charges = 0  # charges made (the at-most-once oracle); none is kept

    async def charge(self, amount: Money, card: CreditCard) -> ChargeResult:
        compact = card.number.replace(" ", "").replace("-", "")
        if not luhn_valid(compact):
            raise PaymentError(f"invalid card number ending in {compact[-4:]}")
        network = card_network(compact)
        if network not in self.ACCEPTED_NETWORKS:
            raise PaymentError(f"{network} cards are not accepted")
        if not (1 <= card.expiration_month <= 12):
            raise PaymentError(f"invalid expiration month {card.expiration_month}")
        if (card.expiration_year, card.expiration_month) < (2026, 7):
            raise PaymentError(
                f"card expired {card.expiration_month}/{card.expiration_year}"
            )
        if amount.units < 0 or (amount.units == 0 and amount.nanos <= 0):
            raise PaymentError(f"charge amount must be positive, got {amount}")
        seq = next(self._seq)
        token = hashlib.sha1(f"{compact}|{seq}".encode()).hexdigest()[:16]
        self.charges += 1
        return ChargeResult(transaction_id=f"txn-{token}", amount=amount)
