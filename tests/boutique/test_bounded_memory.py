"""A deployment's memory does not grow with the traffic it serves.

The verified shopping journey runs over the boutique, every component in
its own proclet (one event loop, ``mode="inproc"``), telemetry off.  After
a warm-up, live allocations may grow only by a small, fixed amount per
journey.  Keeping something per request (a sent email, a charge result,
every distinct argument value seen, a finished Task on a timeout heap)
costs tens of blocks per journey.
"""

from __future__ import annotations

import random
import sys

import pytest

from repro.boutique import ALL_COMPONENTS, Address, CreditCard, Frontend
from repro.boutique.data import PRODUCTS
from repro.core.config import AppConfig
from repro.runtime.deployers.multi import deploy_multiprocess

#: Shoppers the journeys pick from: each one's cart is application state,
#: so all of them shop during the warm-up and the state stops growing.
USERS = 32
WARM, MEASURED = 200, 400
#: Allowed growth of ``sys.getallocatedblocks()`` per measured journey.
#: Journeys differ in every argument, so bounded sketches and rings still
#: fill during the measured run.
MAX_BLOCKS_PER_JOURNEY = 40


def luhn_card(rng: random.Random) -> str:
    digits = [4] + [rng.randrange(10) for _ in range(14)]
    total = 0
    for i, d in enumerate(reversed(digits)):
        if i % 2 == 0:
            d = d * 2 - 9 if d > 4 else d * 2
        total += d
    return "".join(map(str, digits + [-total % 10]))


async def journey(fe, rng: random.Random) -> None:
    """Six pages, every reply checked; every argument drawn afresh."""
    user = f"shopper-{rng.randrange(USERS)}"
    currency = rng.choice(("USD", "EUR", "JPY"))
    (first, n1), (second, n2) = [
        (p.id, rng.randrange(1, 4)) for p in rng.sample(PRODUCTS, 2)
    ]
    home = await fe.home(user, currency)
    assert len(home.products) == len(PRODUCTS) and home.cart_size == 0
    assert (await fe.browse_product(user, first, currency)).id == first
    assert await fe.add_to_cart(user, first, n1) == n1
    assert await fe.add_to_cart(user, second, n2) == n1 + n2
    address = Address(f"{rng.randrange(9999)} Main St", "Springfield", "IL", "US",
                      rng.randrange(10000, 99999))
    card = CreditCard(luhn_card(rng), rng.randrange(100, 999), 2031, 6)
    email = f"buyer{rng.randrange(10**6)}@example.com"
    order = await fe.checkout(user, currency, address, email, card)
    assert sorted((i.item.product_id, i.item.quantity) for i in order.items) == sorted(
        [(first, n1), (second, n2)]
    )
    assert await fe.view_cart(user, currency) == []


@pytest.mark.skipif(
    sys.flags.dev_mode, reason="asyncio debug mode keeps a traceback per handle"
)
async def test_memory_per_journey_is_bounded():
    app = await deploy_multiprocess(
        AppConfig(name="bounded", telemetry="off"),
        components=ALL_COMPONENTS,
        mode="inproc",
    )
    try:
        fe = app.get(Frontend)
        rng = random.Random(7)
        for _ in range(WARM):
            await journey(fe, rng)
        before = sys.getallocatedblocks()
        for _ in range(MEASURED):
            await journey(fe, rng)
        per_journey = (sys.getallocatedblocks() - before) / MEASURED
    finally:
        await app.shutdown()
    assert per_journey <= MAX_BLOCKS_PER_JOURNEY, per_journey
