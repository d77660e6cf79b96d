"""The compact (tag-free) wire format."""

from __future__ import annotations

import asyncio
import enum
import hashlib
import random
import traceback
from dataclasses import dataclass, make_dataclass
from typing import Optional

import pytest

from repro.boutique.types import (
    Ad,
    Address,
    CartItem,
    HomePage,
    Money,
    OrderItem,
    OrderResult,
    Product,
)
from repro.codegen.schema import Kind, Schema, schema_of
from repro.core.errors import DecodeError, EncodeError
from repro.serde.compact import CODEC, CompactCodec


class Suit(enum.Enum):
    HEARTS = "h"
    SPADES = "s"
    CLUBS = "c"
    DIAMONDS = "d"


@dataclass
class Card:
    suit: Suit
    rank: int


@dataclass
class Hand:
    owner: str
    cards: list[Card]
    wager: float
    notes: Optional[str]


def roundtrip(tp, value):
    schema = schema_of(tp)
    data = CODEC.encode(schema, value)
    assert CODEC.decode(schema, data) == value
    return data


class TestRoundTrips:
    def test_bool(self):
        roundtrip(bool, True)
        roundtrip(bool, False)

    @pytest.mark.parametrize("n", [0, 1, -1, 63, -64, 127, 128, -129, 2**40, -(2**40), 2**70])
    def test_ints(self, n):
        roundtrip(int, n)

    @pytest.mark.parametrize("x", [0.0, -1.5, 3.14159, 1e300, -1e-300, float("inf")])
    def test_floats(self, x):
        roundtrip(float, x)

    def test_nan_roundtrips(self):
        schema = schema_of(float)
        out = CODEC.decode(schema, CODEC.encode(schema, float("nan")))
        assert out != out  # NaN

    @pytest.mark.parametrize("s", ["", "ascii", "ünïcödé", "日本語", "a" * 10_000])
    def test_strings(self, s):
        roundtrip(str, s)

    def test_bytes(self):
        roundtrip(bytes, b"")
        roundtrip(bytes, bytes(range(256)))

    def test_none(self):
        roundtrip(type(None), None)

    def test_list(self):
        roundtrip(list[int], [])
        roundtrip(list[int], [1, -2, 3])

    def test_nested_list(self):
        roundtrip(list[list[str]], [["a"], [], ["b", "c"]])

    def test_set(self):
        roundtrip(set[int], set())
        roundtrip(set[int], {1, 2, 3})

    def test_dict(self):
        roundtrip(dict[str, int], {})
        roundtrip(dict[str, int], {"a": 1, "b": -2})

    def test_dict_int_keys(self):
        roundtrip(dict[int, str], {1: "one", -5: "minus five"})

    def test_fixed_tuple(self):
        roundtrip(tuple[int, str, bool], (7, "x", True))

    def test_variable_tuple(self):
        roundtrip(tuple[int, ...], ())
        roundtrip(tuple[int, ...], (1, 2, 3))

    def test_optional(self):
        roundtrip(Optional[int], None)
        roundtrip(Optional[int], 42)

    def test_enum(self):
        for member in Suit:
            roundtrip(Suit, member)

    def test_dataclass(self):
        roundtrip(Card, Card(Suit.SPADES, 13))

    def test_nested_dataclass(self):
        hand = Hand("alice", [Card(Suit.HEARTS, 1), Card(Suit.CLUBS, 11)], 5.5, None)
        roundtrip(Hand, hand)


class TestFormatProperties:
    def test_no_field_names_on_wire(self):
        """The headline claim: no tags, no names, no type info."""
        hand = Hand("zz", [Card(Suit.HEARTS, 1)], 1.0, "memo")
        data = CODEC.encode(schema_of(Hand), hand)
        assert b"owner" not in data
        assert b"cards" not in data
        assert b"suit" not in data

    def test_small_ints_one_byte(self):
        assert len(CODEC.encode(schema_of(int), 0)) == 1
        assert len(CODEC.encode(schema_of(int), -1)) == 1
        assert len(CODEC.encode(schema_of(int), 63)) == 1

    def test_struct_is_concatenation_of_fields(self):
        card = Card(Suit.SPADES, 13)
        struct_bytes = CODEC.encode(schema_of(Card), card)
        field_bytes = CODEC.encode(schema_of(Suit), card.suit) + CODEC.encode(
            schema_of(int), card.rank
        )
        assert struct_bytes == field_bytes

    def test_empty_list_is_one_byte(self):
        assert len(CODEC.encode(schema_of(list[int]), [])) == 1


class TestErrors:
    def test_trailing_bytes_rejected(self):
        data = CODEC.encode(schema_of(int), 7) + b"\x00"
        with pytest.raises(DecodeError, match="trailing"):
            CODEC.decode(schema_of(int), data)

    def test_truncated_buffer_rejected(self):
        data = CODEC.encode(schema_of(str), "hello")
        with pytest.raises(DecodeError, match="truncated"):
            CODEC.decode(schema_of(str), data[:-2])

    def test_bad_bool_byte(self):
        with pytest.raises(DecodeError, match="bool"):
            CODEC.decode(schema_of(bool), b"\x07")

    def test_bad_optional_presence_byte(self):
        with pytest.raises(DecodeError, match="presence"):
            CODEC.decode(schema_of(Optional[int]), b"\x05\x00")

    def test_enum_index_out_of_range(self):
        with pytest.raises(DecodeError, match="out of range"):
            CODEC.decode(schema_of(Suit), b"\x63")

    def test_container_count_bomb_rejected(self):
        # A count far exceeding the buffer cannot allocate gigabytes.
        bomb = b"\xff\xff\xff\xff\x7f" + b"\x00"
        with pytest.raises(DecodeError, match="count"):
            CODEC.decode(schema_of(list[int]), bomb)

    def test_invalid_utf8_rejected(self):
        data = bytes([2, 0xFF, 0xFE])
        with pytest.raises(DecodeError, match="utf-8"):
            CODEC.decode(schema_of(str), data)

    def test_encode_wrong_type_raises_encode_error(self):
        with pytest.raises(EncodeError):
            CODEC.encode(schema_of(int), "not an int")

    def test_encode_bool_as_int_rejected(self):
        with pytest.raises(EncodeError):
            CODEC.encode(schema_of(int), True)

    def test_tuple_arity_mismatch(self):
        with pytest.raises(EncodeError):
            CODEC.encode(schema_of(tuple[int, int]), (1, 2, 3))

    def test_uvarint_overlong_rejected(self):
        with pytest.raises(DecodeError):
            CODEC.decode(schema_of(int), b"\xff" * 11)


# -- wire stability ------------------------------------------------------------
#
# GOLDEN was captured from the closure-compiled codec this file used to test
# (commit 26454db), one vector per Kind plus two boutique messages.  The wire
# is the deployment contract: WAL segments and peers of the same version hold
# these bytes, so the generated codec must reproduce them exactly.


def _seeded_page(products: int) -> HomePage:
    rng = random.Random(f"golden/{products}")
    words = "amber birch cedar delta ember fjord grove heron inlet jetty".split()
    items = [
        Product(
            id=f"{rng.getrandbits(40):010X}",
            name=" ".join(rng.choices(words, k=2)),
            description=" ".join(rng.choices(words, k=12)),
            picture=f"/static/img/products/{rng.choice(words)}.jpg",
            price=Money("USD", rng.randrange(1, 500), rng.randrange(0, 10**9, 10**7)),
            categories=rng.choices(words, k=2),
        )
        for _ in range(products)
    ]
    return HomePage(items, rng.randrange(9), Ad(f"/product/{items[0].id}", "ad"), ["USD", "EUR"])


_ORDER = OrderResult(
    order_id="7f3c2a9e-0b1d-4c55-9e61-2f0d6a1b8c47",
    shipping_tracking_id="ZX-81-4410-27",
    shipping_cost=Money("USD", 8, 990_000_000),
    shipping_address=Address("1600 Amphitheatre Pkwy", "Mountain View", "CA", "US", 94043),
    items=[
        OrderItem(CartItem("OLJCESPC7Z", 2), Money("USD", 19, 990_000_000)),
        OrderItem(CartItem("1YMWWN1N4O", 1), Money("EUR", -3, -500_000_000)),
    ],
)

GOLDEN_CASES = [
    ("none", type(None), None),
    ("bool_true", bool, True),
    ("bool_false", bool, False),
    ("int_zero", int, 0),
    ("int_neg1", int, -1),
    ("int_63", int, 63),
    ("int_neg64", int, -64),
    ("int_300", int, 300),
    ("int_neg_2p40", int, -(2**40)),
    ("int_2p70", int, 2**70),
    ("int_neg_2p70_1", int, -(2**70) - 1),
    ("float", float, -1.5),
    ("float_inf", float, float("inf")),
    ("float_neg_inf", float, float("-inf")),
    ("float_nan", float, float("nan")),
    ("str_empty", str, ""),
    ("str_ascii", str, "ascii"),
    ("str_non_ascii", str, "ünïcödé 日本語 🛒"),
    ("str_200", str, "x" * 200),
    ("bytes_empty", bytes, b""),
    ("bytes", bytes, bytes(range(0, 256, 17))),
    ("list", list[int], [1, -2, 300]),
    ("list_nested", list[list[str]], [["a"], [], ["b", "c"]]),
    ("set_of_one", set[int], {-7}),
    ("dict", dict[str, int], {"a": 1, "b": -2}),
    ("tuple_fixed", tuple[int, str, bool], (7, "x", True)),
    ("tuple_variable", tuple[int, ...], (1, 2, 3)),
    ("tuple_variable_empty", tuple[int, ...], ()),
    ("optional_none", Optional[int], None),
    ("optional_some", Optional[int], 42),
    ("enum", Suit, Suit.CLUBS),
    ("dataclass", Card, Card(Suit.SPADES, 13)),
    (
        "dataclass_nested",
        Hand,
        Hand("alice", [Card(Suit.HEARTS, 1), Card(Suit.DIAMONDS, -11)], 5.5, "ünï"),
    ),
    ("order_result", OrderResult, _ORDER),
    ("home_page_3", HomePage, _seeded_page(3)),
]

GOLDEN = {
    "none": "",
    "bool_true": "01",
    "bool_false": "00",
    "int_zero": "00",
    "int_neg1": "01",
    "int_63": "7e",
    "int_neg64": "7f",
    "int_300": "d804",
    "int_neg_2p40": "ffffffffff3f",
    "int_2p70": "8080808080808080808002",
    "int_neg_2p70_1": "8180808080808080808002",
    "float": "000000000000f8bf",
    "float_inf": "000000000000f07f",
    "float_neg_inf": "000000000000f0ff",
    "float_nan": "000000000000f87f",
    "str_empty": "00",
    "str_ascii": "056173636969",
    "str_non_ascii": "1ac3bc6ec3af63c3b664c3a920e697a5e69cace8aa9e20f09f9b92",
    "str_200": (
        "c8017878787878787878787878787878787878787878787878787878787878787878787878787878"
        "78787878787878787878787878787878787878787878787878787878787878787878787878787878"
        "78787878787878787878787878787878787878787878787878787878787878787878787878787878"
        "78787878787878787878787878787878787878787878787878787878787878787878787878787878"
        "78787878787878787878787878787878787878787878787878787878787878787878787878787878"
        "7878"
    ),
    "bytes_empty": "00",
    "bytes": "1000112233445566778899aabbccddeeff",
    "list": "030203d804",
    "list_nested": "03010161000201620163",
    "set_of_one": "010d",
    "dict": "02016102016203",
    "tuple_fixed": "0e017801",
    "tuple_variable": "03020406",
    "tuple_variable_empty": "00",
    "optional_none": "00",
    "optional_some": "0154",
    "enum": "02",
    "dataclass": "011a",
    "dataclass_nested": "05616c696365020002031500000000000016400105c3bc6ec3af",
    "order_result": (
        "2437663363326139652d306231642d346335352d396536312d3266306436613162386334370d5a58"
        "2d38312d343431302d3237035553441080ce91b007163136303020416d7068697468656174726520"
        "506b77790d4d6f756e7461696e2056696577024341025553b6bd0b020a4f4c4a4345535043375a04"
        "035553442680ce91b0070a31594d57574e314e344f020345555205ff93ebdc03"
    ),
    "home_page_3": (
        "030a444334333245424234360b626972636820656d62657247656d626572206865726f6e2067726f"
        "7665206865726f6e20616d6265722067726f766520666a6f7264206a657474792064656c74612064"
        "656c746120696e6c65742063656461721e2f7374617469632f696d672f70726f64756374732f666a"
        "6f72642e6a706703555344c20180ecc18501020567726f7665056a657474790a3344454642423433"
        "43330b6865726f6e206a6574747947666a6f726420616d62657220666a6f726420696e6c6574206a"
        "6574747920616d62657220636564617220656d62657220666a6f7264206365646172206269726368"
        "206a657474791e2f7374617469632f696d672f70726f64756374732f616d6265722e6a7067035553"
        "44ee0480fcfd82040205616d62657205696e6c65740a423433303439313246320b64656c74612063"
        "6564617247696e6c65742067726f766520656d626572206365646172206865726f6e20666a6f7264"
        "20616d62657220636564617220616d62657220656d62657220666a6f7264206865726f6e1e2f7374"
        "617469632f696d672f70726f64756374732f64656c74612e6a706703555344dc0280febe81020205"
        "64656c74610564656c746108132f70726f647563742f444334333245424234360261640203555344"
        "03455552"
    ),
}

#: sha256 and length of a 64-product page (9.6 KB; too long to print here).
GOLDEN_PAGE_64 = ("7515a72134682da3dd06d782924ac718b99c9ec6dcd5902239cae9258f63db82", 9615)


def _same(a, b):
    return a == b or (a != a and b != b)  # nan


class TestWireStability:
    @pytest.mark.parametrize("name,tp,value", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
    def test_golden_vector_reproduced_and_decoded(self, name, tp, value):
        schema = schema_of(tp)
        assert CODEC.encode(schema, value).hex() == GOLDEN[name]
        assert _same(CODEC.decode(schema, bytes.fromhex(GOLDEN[name])), value)
        # The transport hands the decoder a window into a larger frame.
        framed = memoryview(b"\xff" + bytes.fromhex(GOLDEN[name]) + b"\xff")[1:-1]
        assert _same(CODEC.decode(schema, framed), value)

    def test_every_kind_has_a_vector(self):
        kinds = set()

        def walk(schema):
            kinds.add(schema.kind)
            for child in schema.args + tuple(f.schema for f in schema.fields):
                walk(child)

        for _, tp, _ in GOLDEN_CASES:
            walk(schema_of(tp))
        assert kinds == set(Kind)  # ANY only marks tuple[T, ...]

    def test_64_product_page(self):
        page, schema = _seeded_page(64), schema_of(HomePage)
        data = CODEC.encode(schema, page)
        assert (hashlib.sha256(data).hexdigest(), len(data)) == GOLDEN_PAGE_64
        assert CODEC.decode(schema, data) == page

    def test_encode_into_appends(self):
        out = bytearray(b"prefix")
        CODEC.encode_into(schema_of(Card), Card(Suit.SPADES, 13), out)
        assert out == b"prefix" + bytes.fromhex(GOLDEN["dataclass"])


# -- malformed input, nested ---------------------------------------------------
#
# Every TestErrors case again, but with the bad bytes (or the bad value) two
# structs and a list down, where the generated code is straight-line reads
# inside another function's loop.


@dataclass
class Leaf:
    flag: bool
    count: int
    label: str
    blob: bytes
    suit: Suit
    maybe: Optional[int]
    tags: list[str]
    pair: tuple[int, int]
    ratio: float


@dataclass
class Branch:
    name: str
    leaves: list[Leaf]


@dataclass
class Tree:
    branches: list[Branch]
    after: int


def _leaf(**changes) -> Leaf:
    fields = dict(
        flag=True,
        count=-300,
        label="léaf",
        blob=b"\x00\x01",
        suit=Suit.CLUBS,
        maybe=7,
        tags=["a", "bc"],
        pair=(1, -1),
        ratio=0.5,
    )
    return Leaf(**{**fields, **changes})


def _tree(leaf: Leaf) -> Tree:
    return Tree([Branch("b0", [_leaf()]), Branch("b1", [_leaf(), leaf])], after=9)


TREE = schema_of(Tree)
#: Bytes of the second leaf of the second branch, the one the cases damage.
_PREFIX = len(CODEC.encode(TREE, _tree(_leaf()))) - len(CODEC.encode(schema_of(Leaf), _leaf())) - 1


def _damaged(offset: int, replacement: bytes, width: int = 1) -> bytes:
    data = CODEC.encode(TREE, _tree(_leaf()))
    at = _PREFIX + offset
    return data[:at] + replacement + data[at + width :]


class TestNestedErrors:
    def test_layout_the_offsets_below_assume(self):
        assert CODEC.encode(schema_of(Leaf), _leaf()).hex() == (
            "01"  # 0: flag
            "d704"  # 1: count
            "056cc3a96166"  # 3: label
            "020001"  # 9: blob
            "02"  # 12: suit
            "010e"  # 13: maybe
            "020161026263"  # 15: tags
            "0201"  # 21: pair
            "000000000000e03f"  # 23: ratio
        )
        assert CODEC.decode(TREE, _damaged(0, b"\x01")) == _tree(_leaf())

    @pytest.mark.parametrize("cut", range(32))
    def test_truncated_anywhere_in_the_leaf(self, cut):
        whole = CODEC.encode(TREE, _tree(_leaf()))
        with pytest.raises(DecodeError):
            CODEC.decode(TREE, whole[: _PREFIX + cut])

    def test_truncated_inside_a_string_says_so(self):
        whole = CODEC.encode(TREE, _tree(_leaf()))
        with pytest.raises(DecodeError, match="truncated"):
            CODEC.decode(TREE, whole[: _PREFIX + 6])

    def test_trailing_bytes(self):
        with pytest.raises(DecodeError, match="trailing"):
            CODEC.decode(TREE, CODEC.encode(TREE, _tree(_leaf())) + b"\x00")

    def test_bad_bool_byte(self):
        with pytest.raises(DecodeError, match="bool"):
            CODEC.decode(TREE, _damaged(0, b"\x02"))

    def test_bad_presence_byte(self):
        with pytest.raises(DecodeError, match="presence"):
            CODEC.decode(TREE, _damaged(13, b"\x02"))

    def test_enum_index_out_of_range(self):
        with pytest.raises(DecodeError, match="out of range for Suit"):
            CODEC.decode(TREE, _damaged(12, b"\x04"))

    def test_count_bomb(self):
        with pytest.raises(DecodeError, match="count"):
            CODEC.decode(TREE, _damaged(15, b"\xff\xff\xff\xff\x7f"))

    def test_string_length_past_the_end_is_not_silently_shortened(self):
        with pytest.raises(DecodeError, match="truncated"):
            CODEC.decode(TREE, _damaged(3, b"\x7f"))

    def test_bytes_length_past_the_end_is_not_silently_shortened(self):
        with pytest.raises(DecodeError, match="truncated"):
            CODEC.decode(TREE, _damaged(9, b"\x7f"))

    def test_invalid_utf8(self):
        with pytest.raises(DecodeError, match="utf-8"):
            CODEC.decode(TREE, _damaged(5, b"\xff\xfe", width=2))

    def test_overlong_uvarint(self):
        with pytest.raises(DecodeError, match="uvarint too long"):
            CODEC.decode(TREE, _damaged(1, b"\xff" * 1400, width=2))

    def test_float_cut_short(self):
        whole = CODEC.encode(TREE, _tree(_leaf()))
        with pytest.raises(DecodeError, match="truncated"):
            CODEC.decode(TREE, whole[:-5])  # 'after' and half the last leaf's ratio

    @pytest.mark.parametrize(
        "changes",
        [
            {"count": True},
            {"count": "7"},
            {"count": 7.0},
            {"label": b"bytes"},
            {"label": None},
            {"blob": "text"},
            {"suit": "c"},
            {"maybe": "x"},
            {"tags": 5},
            {"tags": [1]},
            {"pair": (1, 2, 3)},
            {"pair": (1,)},
            {"pair": (1, False)},
            {"ratio": "half"},
            {"ratio": None},
        ],
        ids=str,
    )
    def test_wrong_value_raises_encode_error(self, changes):
        with pytest.raises(EncodeError):
            CODEC.encode(TREE, _tree(_leaf(**changes)))

    def test_wrong_struct_raises_encode_error(self):
        with pytest.raises(EncodeError):
            CODEC.encode(TREE, Tree([Branch("b", [Card(Suit.CLUBS, 1)])], 0))

    def test_post_init_still_runs(self):
        @dataclass
        class Even:
            n: int

            def __post_init__(self):
                if self.n % 2:
                    raise ValueError("odd")
                self.half = self.n // 2

        schema = schema_of(list[Even])
        assert CODEC.decode(schema, CODEC.encode(schema, [Even(4)]))[0].half == 2
        with pytest.raises(ValueError, match="odd"):
            CODEC.decode(schema, bytes.fromhex("0106"))  # [Even(3)]


# -- the generated code ----------------------------------------------------------


def _arg_schema(*types) -> Schema:
    """What codegen.compiler builds per method: equal, never identical."""
    return Schema(Kind.TUPLE, args=tuple(schema_of(t) for t in types))


class TestGeneratedCode:
    def test_equal_schemas_share_one_compiled_codec(self):
        codec = CompactCodec()
        a, b = _arg_schema(Hand, int), _arg_schema(Hand, int)
        assert a is not b and a == b and hash(a) == hash(b)
        assert codec.encoder(a) is codec.encoder(b)
        assert codec.decoder(a) is codec.decoder(b)

    def test_nested_struct_is_compiled_once_and_shared(self):
        codec = CompactCodec()
        codec.encoder(schema_of(Hand))
        assert codec.compiled_schemas() == 2  # Hand, Card
        codec.encoder(_arg_schema(Hand, Card))
        assert codec.compiled_schemas() == 3

    def test_compilation_is_lazy(self):
        codec = CompactCodec()
        assert codec.compiled_schemas() == 0
        codec.encode(schema_of(int), 1)
        assert codec.compiled_schemas() == 1

    def test_second_deployment_compiles_nothing(self):
        from repro.core.component import Component
        from repro.core.config import AppConfig
        from repro.core.registry import Registry
        from repro.runtime.deployers.multi import deploy_multiprocess

        class Dealer(Component):
            async def deal(self, hand: Hand, n: int) -> list[Card]: ...

        class DealerImpl:
            async def deal(self, hand: Hand, n: int) -> list[Card]:
                return hand.cards[:n]

        async def deploy_and_call():
            registry = Registry()  # fresh specs: equal schemas, new objects
            registry.register(Dealer, DealerImpl)
            app = await deploy_multiprocess(
                AppConfig(name="twice", telemetry="off"), registry=registry, mode="inproc"
            )
            try:
                hand = Hand("a", [Card(Suit.HEARTS, 1), Card(Suit.CLUBS, 2)], 1.0, None)
                assert await app.get(Dealer).deal(hand, 1) == [Card(Suit.HEARTS, 1)]
            finally:
                await app.shutdown()
            return CODEC.compiled_schemas()

        first = asyncio.run(deploy_and_call())
        assert asyncio.run(deploy_and_call()) == first

    def test_source_is_python_one_function_pair_per_struct(self):
        source = CODEC.source(schema_of(Hand))
        assert "def encode(out, v):" in source and "def decode(buf, pos, end):" in source
        assert "enc_Card(out, " in source and "dec_Card(buf, pos, end)" in source
        compile(source, "<test>", "exec")

    def test_traceback_through_generated_code_shows_its_lines(self):
        bad = _tree(_leaf(pair=(1, "x")))  # Tree -> Branch -> Leaf -> pair[1]
        with pytest.raises(EncodeError) as info:
            CODEC.encode(TREE, bad)
        frames = traceback.extract_tb(info.value.__traceback__)
        generated = [f for f in frames if f.filename.startswith("<repro.serde.compact ")]
        assert [f.filename for f in generated] == [
            "<repro.serde.compact Tree>",
            "<repro.serde.compact Branch>",
            "<repro.serde.compact Leaf>",
        ]
        assert "enc_Branch(out, " in generated[0].line
        assert generated[2].line.startswith("raise EncodeError(f'expected int, got ")
        assert generated[2].line in CODEC.source(schema_of(Leaf))

    def test_same_named_classes_do_not_collide(self):
        one, other = make_dataclass("Twin", [("n", int)]), make_dataclass("Twin", [("n", str)])
        schema = _arg_schema(one, other)
        codec = CompactCodec()
        value = (one(5), other("five"))
        assert codec.decode(schema, codec.encode(schema, value)) == value
        assert "enc_Twin(" in codec.source(schema) and "enc_Twin_2(" in codec.source(schema)
        with pytest.raises(EncodeError) as info:
            codec.encode(schema, (one(5), other(5)))
        assert "n.encode()" in traceback.extract_tb(info.value.__cause__.__traceback__)[-1].line
