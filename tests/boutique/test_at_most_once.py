"""Payment.charge executes at most once per checkout, under fault injection.

The latent bug this guards against: an ambiguous RPC failure on the
charge (the connection died after the request was sent) used to be
retried like any other Unavailable, charging the card twice.  Charge is
not idempotent and checkout pins ``retries=0`` on its payment stub, so
an ambiguous failure must surface instead of re-executing.
"""

from __future__ import annotations

import pytest

from repro.boutique import ALL_COMPONENTS, Address, CreditCard, Frontend
from repro.boutique.payment import PaymentImpl
from repro.testing.faults import FaultPlan, FaultRule
from repro.testing.harness import weavertest

ADDRESS = Address("1 Main St", "Springfield", "IL", "US", 62701)
CARD = CreditCard("4432-8015-6152-0454", 672, 2030, 1)


def payment_instance(app) -> PaymentImpl:
    for envelope in app.envelopes.values():
        proclet = getattr(envelope, "proclet", None)
        if proclet is None:
            continue
        for instance in proclet._local.instances().values():
            if isinstance(instance, PaymentImpl):
                return instance
    raise AssertionError("no PaymentImpl instance found")


async def test_charge_at_most_once_under_ambiguous_faults():
    from repro.core.errors import Unavailable

    # Every charge attempt is hit by an ambiguous mid-call failure (the
    # server may or may not have executed it).  A retry here would be the
    # double-charge bug.
    plan = FaultPlan(
        [
            FaultRule(
                component="Payment",
                method="charge",
                failure_rate=1.0,
                max_failures=1,
                error=lambda: Unavailable("connection lost mid-call", executed=True),
            )
        ]
    )
    async with weavertest(
        components=ALL_COMPONENTS, mode="multi", faults=plan
    ) as app:
        fe = app.get(Frontend)
        user = "shopper-1"
        await fe.add_to_cart(user, "OLJCESPC7Z", 1)
        with pytest.raises(Exception):
            await fe.checkout(user, "USD", ADDRESS, f"{user}@x.com", CARD)
        # The injected failure was ambiguous, so the charge was issued at
        # most once — and since injection preempted it, exactly zero times.
        assert plan.total_injected == 1
        assert payment_instance(app).charges == 0

        # The fault budget is spent: the next checkout goes through, and
        # the card carries exactly one charge in total.
        await fe.add_to_cart(user, "OLJCESPC7Z", 1)
        order = await fe.checkout(user, "USD", ADDRESS, f"{user}@x.com", CARD)
        assert order.order_id
        assert payment_instance(app).charges == 1


async def test_checkout_succeeds_despite_faults_on_idempotent_reads():
    # Read-side faults (catalog, currency) are absorbed by retries; the
    # charge still happens exactly once per order.
    plan = FaultPlan(
        [
            FaultRule(component="ProductCatalog", failure_rate=0.5, max_failures=4),
            FaultRule(component="Currency", failure_rate=0.5, max_failures=4),
        ],
        seed=11,
    )
    async with weavertest(
        components=ALL_COMPONENTS, mode="multi", faults=plan
    ) as app:
        fe = app.get(Frontend)
        for i in range(3):
            user = f"shopper-{i}"
            await fe.add_to_cart(user, "OLJCESPC7Z", 1)
            order = await fe.checkout(user, "USD", ADDRESS, f"{user}@x.com", CARD)
            assert order.order_id
        assert payment_instance(app).charges == 3
