"""E7 — serialization ablation (§6).

    "Most of the performance benefits of our prototype come from its use of
    a custom serialization format designed for non-versioned data exchange."

Microbenchmarks of the three codecs on real boutique messages, plus the
wire-size table.  These measured numbers are what calibrates the cluster
simulation's cost model, so this experiment is load-bearing for E1.
"""

from __future__ import annotations

import asyncio

import pytest

from benchmarks.conftest import print_table
from repro.boutique import ALL_COMPONENTS, Frontend
from repro.boutique.types import HomePage, OrderResult, Product
from repro.codegen.schema import schema_of
from repro.core.app import init
from repro.serde import codec_by_name

CODECS = ("compact", "tagged", "json")


@pytest.fixture(scope="module")
def messages():
    """Real messages captured from the running application."""

    async def capture():
        app = await init(components=ALL_COMPONENTS)
        fe = app.get(Frontend)
        home = await fe.home("bench-user", "USD")
        product = await fe.browse_product("bench-user", "1YMWWN1N4O", "USD")
        await fe.add_to_cart("bench-user", "OLJCESPC7Z", 2)
        from repro.boutique import Address, CreditCard

        order = await fe.checkout(
            "bench-user",
            "USD",
            Address("1 Main", "Springfield", "IL", "US", 62701),
            "b@x.com",
            CreditCard("4432-8015-6152-0454", 672, 2030, 1),
        )
        await app.shutdown()
        return {
            "home_page": (schema_of(HomePage), home),
            "product": (schema_of(Product), product),
            "order": (schema_of(OrderResult), order),
        }

    return asyncio.run(capture())


@pytest.mark.parametrize("codec_name", CODECS)
@pytest.mark.parametrize("message_name", ["home_page", "product", "order"])
def test_encode_decode(benchmark, messages, codec_name, message_name):
    codec = codec_by_name(codec_name)
    schema, value = messages[message_name]
    data = codec.encode(schema, value)

    def roundtrip():
        return codec.decode(schema, codec.encode(schema, value))

    result = benchmark(roundtrip)
    assert result == value
    benchmark.extra_info["wire_bytes"] = len(data)


def test_wire_sizes(benchmark, messages):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    """The size table behind the CPU numbers."""
    rows = []
    for name, (schema, value) in messages.items():
        row = {"message": name}
        for codec_name in CODECS:
            row[codec_name] = len(codec_by_name(codec_name).encode(schema, value))
        row["tagged/compact"] = row["tagged"] / row["compact"]
        row["json/compact"] = row["json"] / row["compact"]
        rows.append(row)
    print_table(
        "E7: wire bytes per message",
        rows,
        ["message", "compact", "tagged", "json", "tagged/compact", "json/compact"],
    )
    for row in rows:
        assert row["compact"] < row["tagged"] < row["json"]


def test_no_tags_on_wire(benchmark, messages):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    """The compact format ships zero schema metadata."""
    schema, value = messages["order"]
    compact = codec_by_name("compact").encode(schema, value)
    json_bytes = codec_by_name("json").encode(schema, value)
    assert b"order_id" not in compact
    assert b"order_id" in json_bytes
