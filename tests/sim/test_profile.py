"""Recording real call trees for simulation input."""

from __future__ import annotations

import time

import pytest

from repro.boutique import ALL_COMPONENTS, Frontend
from repro.sim.profile import CODEC_NAMES, CallNode, recording_app
from repro.serde import codec_by_name


async def record_view_cart():
    app = await recording_app(ALL_COMPONENTS)
    fe = app.get(Frontend)
    await fe.add_to_cart("u1", "OLJCESPC7Z", 1)

    async def request(a):
        await fe.view_cart("u1", "USD")

    tree = await app.record(request, name="view_cart")
    await app.shutdown()
    return tree


class TestRecording:
    async def test_tree_structure_matches_code(self):
        tree = await record_view_cart()
        # view_cart: root -> Frontend.view_cart -> Cart.get_cart -> CartStore.get
        assert len(tree.children) == 1
        fe = tree.children[0]
        assert fe.component.endswith("Frontend") and fe.method == "view_cart"
        (cart,) = fe.children
        assert cart.component.endswith(".Cart") and cart.method == "get_cart"
        (store,) = cart.children
        assert store.component.endswith("CartStore")

    async def test_total_calls(self):
        tree = await record_view_cart()
        assert tree.total_calls() - 1 == 3  # minus the synthetic root

    async def test_self_cpu_nonnegative_and_total_positive(self):
        tree = await record_view_cart()
        def walk(n):
            assert n.self_cpu_s >= 0
            for c in n.children:
                walk(c)
        walk(tree)
        assert tree.total_self_cpu_s() > 0

    async def test_recorded_bytes_match_codecs(self):
        tree = await record_view_cart()
        fe = tree.children[0]
        # view_cart(user_id, currency) args: ("u1", "USD")

        assert fe.request_bytes["compact"] < fe.request_bytes["tagged"]
        assert fe.request_bytes["tagged"] <= fe.request_bytes["json"]
        assert fe.response_bytes["compact"] > 0

    async def test_total_bytes_sums_subtree(self):
        tree = await record_view_cart()
        manual = 0

        def walk(n):
            nonlocal manual
            manual += n.request_bytes.get("compact", 0) + n.response_bytes.get("compact", 0)
            for c in n.children:
                walk(c)

        walk(tree)
        assert tree.total_bytes("compact") == manual

    async def test_components_set(self):
        tree = await record_view_cart()
        names = {c.rsplit(".", 1)[-1] for c in tree.components()}
        assert {"Frontend", "Cart", "CartStore"} <= names

    def test_scale_cpu(self):
        node = CallNode("c", "m", self_cpu_s=1.0, children=[CallNode("d", "n", self_cpu_s=0.5)])
        scaled = node.scale_cpu(0.1)
        assert scaled.self_cpu_s == pytest.approx(0.1)
        assert scaled.children[0].self_cpu_s == pytest.approx(0.05)
        assert node.self_cpu_s == 1.0  # original untouched

    async def test_multiple_recordings_independent(self):
        app = await recording_app(ALL_COMPONENTS)
        fe = app.get(Frontend)

        async def home(a):
            await fe.home("u1", "USD")

        t1 = await app.record(home, name="home")
        t2 = await app.record(home, name="home")
        assert t1.total_calls() == t2.total_calls()
        await app.shutdown()


async def test_payload_encoding_is_not_charged_as_self_cpu(monkeypatch):
    """Sizing payloads costs the recorder, not the recorded calls: with
    every codec's encode slowed by a fixed sleep, no node's self CPU
    grows by it."""
    delay_s = 0.05
    for name in CODEC_NAMES:
        cls = type(codec_by_name(name))
        original = cls.encode

        def slow_encode(self, schema, value, _original=original):
            time.sleep(delay_s)
            return _original(self, schema, value)

        monkeypatch.setattr(cls, "encode", slow_encode)

    tree = await record_view_cart()
    fe = tree.children[0]
    assert fe.request_bytes["compact"] > 0  # payloads were still sized
    assert tree.total_self_cpu_s() < delay_s
