"""The five workloads: what is deployed, what one op sends, what it must get back.

Every workload is a closed loop (a caller sends its next op only after the
previous reply) against ``deploy_multiprocess(mode="inproc")``.  ``--seed``
drives everything a caller sends — ids, the user pool, payload contents —
through :func:`Workload.inputs`; the program under test only ever sees the
generated values.  Each op verifies its reply and returns ``True`` only if
every value is the expected one.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro.boutique import ALL_COMPONENTS, Frontend
from repro.boutique.data import PRODUCTS
from repro.boutique.types import Ad, Address, CreditCard, HomePage, Money, Product
from repro.core.app import init
from repro.core.component import Component
from repro.core.config import AppConfig
from repro.core.registry import Registry
from repro.runtime.deployers.multi import deploy_multiprocess


class Echo(Component):
    async def echo(self, value: int) -> int: ...


class EchoImpl:
    async def echo(self, value: int) -> int:
        return value


class FaultyEchoImpl:
    """``--selfcheck`` only: fails in two known, input-determined ways so
    the harness's failure accounting can be checked against arithmetic."""

    RAISE_EVERY = 10
    WRONG_EVERY = 17

    async def echo(self, value: int) -> int:
        if value % self.RAISE_EVERY == 0:
            raise RuntimeError(f"selfcheck: refusing {value}")
        if value % self.WRONG_EVERY == 0:
            return value + 1
        return value


class Mirror(Component):
    async def mirror(self, page: HomePage) -> HomePage: ...


class MirrorImpl:
    async def mirror(self, page: HomePage) -> HomePage:
        return page


@dataclass(frozen=True)
class Workload:
    """One closed-loop traffic shape.  Subclasses say what an op is."""

    name: str
    why: str
    callers: int
    telemetry: str
    #: Latency limit of ``slo_ok_ratio``: 5 x the calibrated ``lat_p50_ms``
    #: (CALIBRATION.json), frozen here — a stall detector, not a knee.
    slo_ms: float
    #: Warm deploy -> first verified op -> shutdown cycles behind ``setup_s``.
    #: A fixed count (not a time budget) so memory left behind by cycles is
    #: the same on every run; a 2 ms cycle needs more repeats than a 50 ms
    #: one for an equally steady median.
    setup_cycles: int = 101

    def config(self, telemetry: Optional[str] = None) -> AppConfig:
        return AppConfig(name=self.name, telemetry=telemetry or self.telemetry)

    def interfaces(self) -> list[tuple[type, type]]:
        """(interface, implementation) pairs the deployment compiles."""
        raise NotImplementedError

    async def deploy(self, telemetry: Optional[str] = None) -> Any:
        """Deploy ``interfaces()`` from a registry of the workload's own."""
        registry = Registry()
        for iface, impl in self.interfaces():
            registry.register(iface, impl)
        return await deploy_multiprocess(self.config(telemetry), registry=registry)

    def client(self, app: Any) -> Any:
        """The stub (or stubs) an op calls."""
        raise NotImplementedError

    def inputs(self, seed: int, caller: int) -> Iterator[Any]:
        """The endless, seed-determined stream of op inputs of one caller.

        Anything costly (a page pool) is built by this call, not by the
        first ``next()``, so it stays outside the timed interval."""
        raise NotImplementedError

    async def op(self, client: Any, value: Any) -> bool:
        """Run one op; True only if every reply is the expected value."""
        raise NotImplementedError


@dataclass(frozen=True)
class EchoWorkload(Workload):
    impl: type = EchoImpl

    def interfaces(self) -> list[tuple[type, type]]:
        return [(Echo, self.impl)]

    def client(self, app: Any) -> Any:
        return app.get(Echo)

    def inputs(self, seed: int, caller: int) -> Iterator[int]:
        rng = random.Random(f"{self.name}/{seed}/{caller}")
        while True:
            yield rng.getrandbits(31)

    async def op(self, client: Any, value: int) -> bool:
        return await client.echo(value) == value


_WORDS = (
    "amber birch cedar delta ember fjord grove heron inlet jetty knoll lotus "
    "maple north ochre pearl quartz ridge slate thorn umber vale wharf yarrow"
).split()


def _text(rng: random.Random, chars: int) -> str:
    words: list[str] = []
    while sum(len(w) + 1 for w in words) < chars:
        words.append(rng.choice(_WORDS))
    return " ".join(words)[:chars]


def make_page(rng: random.Random, products: int = 64) -> HomePage:
    """A home page of ``products`` catalog entries (~190 B each compact)."""
    items = [
        Product(
            id=f"{rng.getrandbits(50):010X}"[:10],
            name=_text(rng, 18),
            description=_text(rng, 96),
            picture=f"/static/img/products/{_text(rng, 12).replace(' ', '-')}.jpg",
            price=Money("USD", rng.randrange(1, 500), rng.randrange(0, 10**9, 10**7)),
            categories=[rng.choice(_WORDS), rng.choice(_WORDS)],
        )
        for _ in range(products)
    ]
    return HomePage(
        products=items,
        cart_size=rng.randrange(0, 9),
        ad=Ad(f"/product/{items[0].id}", _text(rng, 40)),
        currency_codes=["USD", "EUR", "JPY", "GBP", "CAD", "CHF", "SEK", "TRY"],
    )


@functools.lru_cache(maxsize=4)
def _page_pool(rng_seed: str, pages: int) -> list[HomePage]:
    """Built once per seed, before the clock starts, and shared by callers."""
    rng = random.Random(rng_seed)
    return [make_page(rng) for _ in range(pages)]


@dataclass(frozen=True)
class StructWorkload(Workload):
    pages: int = 8

    def interfaces(self) -> list[tuple[type, type]]:
        return [(Mirror, MirrorImpl)]

    def client(self, app: Any) -> Any:
        return app.get(Mirror)

    def inputs(self, seed: int, caller: int) -> Iterator[HomePage]:
        pool = _page_pool(f"{self.name}/{seed}/pages", self.pages)
        rng = random.Random(f"{self.name}/{seed}/{caller}")
        return (rng.choice(pool) for _ in itertools.repeat(None))

    async def op(self, client: Any, page: HomePage) -> bool:
        return await client.mirror(page) == page


@dataclass(frozen=True)
class Journey:
    """One shopper's visit: the inputs of the six frontend calls."""

    user: str
    currency: str
    first: tuple[str, int]
    second: tuple[str, int]
    address: Address
    email: str
    card: CreditCard


def _luhn_card(rng: random.Random) -> str:
    """A Luhn-valid 16-digit Visa number (Payment really checks)."""
    digits = [4] + [rng.randrange(10) for _ in range(14)]
    total = 0
    for i, d in enumerate(reversed(digits)):
        if i % 2 == 0:  # these positions double once the check digit is appended
            d = d * 2 - 9 if d > 4 else d * 2
        total += d
    digits.append(-total % 10)
    text = "".join(map(str, digits))
    return "-".join(text[i : i + 4] for i in range(0, 16, 4))


@dataclass(frozen=True)
class BoutiqueWorkload(Workload):
    users: int = 256
    setup_cycles: int = 41

    def interfaces(self) -> list[tuple[type, type]]:
        from repro.core.registry import global_registry

        registry = global_registry()
        return [(c, registry.lookup(c).impl) for c in ALL_COMPONENTS]

    async def deploy(self, telemetry: Optional[str] = None) -> Any:
        """From the global registry ``@implements`` filled, as an application would."""
        return await deploy_multiprocess(
            self.config(telemetry), components=ALL_COMPONENTS
        )

    async def deploy_local(self) -> Any:
        """The same components under ``init()``: every call is local."""
        return await init(self.config(), components=ALL_COMPONENTS)

    def client(self, app: Any) -> Any:
        return app.get(Frontend)

    def inputs(self, seed: int, caller: int) -> Iterator[Journey]:
        pool_rng = random.Random(f"{self.name}/{seed}/users")
        # Each caller has its own pool: two journeys never share a cart,
        # so the empty-cart check at the end of a journey is exact.
        pool = [
            f"user-{caller}-{pool_rng.getrandbits(40):010x}" for _ in range(self.users)
        ]
        return self._journeys(pool, random.Random(f"{self.name}/{seed}/{caller}"))

    @staticmethod
    def _journeys(pool: list[str], rng: random.Random) -> Iterator[Journey]:
        product_ids = [p.id for p in PRODUCTS]
        while True:
            first, second = rng.sample(product_ids, 2)
            yield Journey(
                user=rng.choice(pool),
                currency=rng.choice(("USD", "EUR", "JPY", "GBP", "CAD")),
                first=(first, rng.randrange(1, 4)),
                second=(second, rng.randrange(1, 4)),
                address=Address(
                    f"{rng.randrange(1, 9999)} {rng.choice(_WORDS).title()} St",
                    rng.choice(_WORDS).title(),
                    "CA",
                    "US",
                    rng.randrange(10000, 99999),
                ),
                email=f"{rng.choice(_WORDS)}{rng.randrange(1000)}@example.com",
                card=CreditCard(_luhn_card(rng), rng.randrange(100, 999), 2031, 6),
            )

    async def op(self, frontend: Any, j: Journey) -> bool:
        home = await frontend.home(j.user, j.currency)
        ok = len(home.products) == len(PRODUCTS) and home.cart_size == 0
        product = await frontend.browse_product(j.user, j.first[0], j.currency)
        ok &= product.id == j.first[0] and product.price.currency_code == j.currency
        ok &= await frontend.add_to_cart(j.user, *j.first) == j.first[1]
        ok &= await frontend.add_to_cart(j.user, *j.second) == j.first[1] + j.second[1]
        order = await frontend.checkout(j.user, j.currency, j.address, j.email, j.card)
        bought = sorted((i.item.product_id, i.item.quantity) for i in order.items)
        ok &= bought == sorted((j.first, j.second))
        ok &= order.shipping_address == j.address
        ok &= await frontend.view_cart(j.user, j.currency) == []
        return ok


# slo_ms = 5 x the lat_p50_ms column of CALIBRATION.json.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        EchoWorkload(
            name="echo_d1",
            why="one caller, telemetry off: lone frames take the direct "
            "write-through path, so this is the bare per-call cost of every layer",
            callers=1,
            telemetry="off",
            slo_ms=1.0,
        ),
        EchoWorkload(
            name="echo_d32",
            why="32 callers, telemetry off: the flusher batches frames, so "
            "syscalls amortise; a coalescing change must help here without hurting echo_d1",
            callers=32,
            telemetry="off",
            slo_ms=14.0,
        ),
        EchoWorkload(
            name="echo_d32_tel",
            why="echo_d32 with the default telemetry=full: observability works "
            "here and not in echo_d32, so the pair is its overhead",
            callers=32,
            telemetry="full",
            slo_ms=15.0,
        ),
        StructWorkload(
            name="struct_d4",
            why="4 callers mirror a seeded 64-product page (~12 KB): serde does "
            "most of the work here and almost none in the echo workloads",
            callers=4,
            telemetry="off",
            slo_ms=40.0,
        ),
        BoutiqueWorkload(
            name="boutique_c1",
            why="1 caller runs a verified 6-page shopping journey over the "
            "11-component boutique, default config: fan-out, routed state with "
            "WAL writes, telemetry on",
            callers=1,
            telemetry="full",
            slo_ms=65.0,
        ),
    )
}


@dataclass(frozen=True)
class SelfcheckWorkload(EchoWorkload):
    """echo_d1 against the handler that fails on purpose, fed 1, 2, 3, ...
    so the expected failure count is plain arithmetic on ``attempted``."""

    impl: type = FaultyEchoImpl

    def inputs(self, seed: int, caller: int) -> Iterator[int]:
        return itertools.count(1)

    @staticmethod
    def expected_failures(attempted: int) -> int:
        raised = attempted // FaultyEchoImpl.RAISE_EVERY
        wrong = attempted // FaultyEchoImpl.WRONG_EVERY
        both = attempted // (FaultyEchoImpl.RAISE_EVERY * FaultyEchoImpl.WRONG_EVERY)
        return raised + wrong - both


SELFCHECK = SelfcheckWorkload(
    name="selfcheck",
    why="failure accounting",
    callers=1,
    telemetry="off",
    slo_ms=WORKLOADS["echo_d1"].slo_ms,
)
