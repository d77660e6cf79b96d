"""Call trees for simulation input, read from the runtime's traces."""

from __future__ import annotations

import time

import pytest

from repro.boutique import ALL_COMPONENTS, Frontend
from repro.core.component import Component
from repro.core.registry import Registry
from repro.sim.profile import CODEC_NAMES, CallNode, profile_requests


async def add_item(app):
    await app.get(Frontend).add_to_cart("u1", "OLJCESPC7Z", 1)


async def view_cart(app):
    await app.get(Frontend).view_cart("u1", "USD")


async def profile_view_cart(request=view_cart):
    trees = await profile_requests(
        {"view_cart": request},
        components=ALL_COMPONENTS,
        repeats=1,
        prepare={"view_cart": add_item},
    )
    return trees["view_cart"]


def spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class B(Component):
    async def n(self, x: int) -> int: ...


class BImpl:
    async def n(self, x: int) -> int:
        spin(0.005)
        return x + 1


class A(Component):
    async def m(self, x: int) -> int: ...


class AImpl:
    async def init(self, ctx) -> None:
        self.b = ctx.get(B)

    async def m(self, x: int) -> int:
        spin(0.001)
        return await self.b.n(x)


def zoo() -> Registry:
    reg = Registry()
    reg.register(A, AImpl)
    reg.register(B, BImpl)
    return reg


class TestRecording:
    async def test_tree_structure_matches_code(self):
        tree = await profile_view_cart()
        # view_cart: root -> Frontend.view_cart -> Cart.get_cart -> CartStore.get
        assert len(tree.children) == 1
        fe = tree.children[0]
        assert fe.component.endswith("Frontend") and fe.method == "view_cart"
        (cart,) = fe.children
        assert cart.component.endswith(".Cart") and cart.method == "get_cart"
        (store,) = cart.children
        assert store.component.endswith("CartStore") and store.method == "get"

    async def test_total_calls(self):
        tree = await profile_view_cart()
        assert tree.total_calls() - 1 == 3  # minus the synthetic root

    async def test_self_cpu_nonnegative_and_total_positive(self):
        tree = await profile_view_cart()

        def walk(n):
            assert n.self_cpu_s >= 0
            for c in n.children:
                walk(c)

        walk(tree)
        assert tree.total_self_cpu_s() > 0

    async def test_recorded_bytes_match_codecs(self):
        tree = await profile_view_cart()
        fe = tree.children[0]
        # view_cart(user_id, currency) args: ("u1", "USD")
        assert fe.request_bytes["compact"] < fe.request_bytes["tagged"]
        assert fe.request_bytes["tagged"] <= fe.request_bytes["json"]
        assert fe.response_bytes["compact"] > 0

    async def test_total_bytes_sums_subtree(self):
        tree = await profile_view_cart()
        manual = 0

        def walk(n):
            nonlocal manual
            manual += n.request_bytes.get("compact", 0) + n.response_bytes.get("compact", 0)
            for c in n.children:
                walk(c)

        walk(tree)
        assert tree.total_bytes("compact") == manual

    async def test_components_set(self):
        tree = await profile_view_cart()
        names = {c.rsplit(".", 1)[-1] for c in tree.components()}
        assert {"Frontend", "Cart", "CartStore"} <= names

    def test_scale_cpu(self):
        node = CallNode("c", "m", self_cpu_s=1.0, children=[CallNode("d", "n", self_cpu_s=0.5)])
        scaled = node.scale_cpu(0.1)
        assert scaled.self_cpu_s == pytest.approx(0.1)
        assert scaled.children[0].self_cpu_s == pytest.approx(0.05)
        assert node.self_cpu_s == 1.0  # original untouched

    async def test_multiple_recordings_independent(self):
        """Profiles are independent, and so are the samples within one:
        profiling again, or keeping one sample of three, changes neither the
        tree nor its bytes."""

        async def call(app):
            await app.get(A).m(7)

        once = (await profile_requests({"m": call}, registry=zoo(), repeats=1))["m"]
        again = (await profile_requests({"m": call}, registry=zoo(), repeats=3))["m"]
        assert once is not again
        assert once.total_calls() == again.total_calls() == 3
        for codec in CODEC_NAMES:
            assert once.total_bytes(codec) == again.total_bytes(codec) > 0

    async def test_self_cpu_excludes_nested_calls(self):
        """A spins ~1 ms and calls B, which spins ~5 ms: A's self time is
        its own, and the two fit in A's server span."""
        server_span_s = {}

        async def call(app):
            await app.get(A).m(1)
            (span,) = [s for s in app.tracer.spans() if s.name == "A.m"]
            server_span_s[app.codec_name] = span.duration_s

        tree = (await profile_requests({"m": call}, registry=zoo(), repeats=1))["m"]
        (a,) = tree.children
        (b,) = a.children
        assert a.component.endswith(".A") and b.component.endswith(".B")
        assert 0.001 <= a.self_cpu_s < b.self_cpu_s
        assert b.self_cpu_s >= 0.005
        assert a.self_cpu_s + b.self_cpu_s <= server_span_s[CODEC_NAMES[0]]

    async def test_node_bytes_sum_to_the_call_graph_deltas(self):
        """A node's bytes are its request's, not its edge's lifetime
        average: each run of a codec sends a longer argument."""
        runs, moved = [], {}

        def graph_bytes(app):
            return sum(e.bytes_sent + e.bytes_received for e in app.call_graph.edges())

        async def call(app):
            runs.append(app.codec_name)
            before = graph_bytes(app)
            await app.get(A).m(10 ** (6 * runs.count(app.codec_name)))
            moved[app.codec_name] = graph_bytes(app) - before

        # repeats=1: a warm-up run, then the one kept sample, per codec.
        tree = (await profile_requests({"m": call}, registry=zoo(), repeats=1))["m"]
        for codec in CODEC_NAMES:
            assert tree.total_bytes(codec) == moved[codec] > 0

    async def test_a_codec_run_with_another_tree_raises(self):
        async def call(app):
            for _ in range(1 if app.codec_name == CODEC_NAMES[0] else 2):
                await app.get(A).m(1)

        with pytest.raises(ValueError, match=CODEC_NAMES[1]):
            await profile_requests({"m": call}, registry=zoo(), repeats=1)

    async def test_a_short_name_two_components_share_raises(self):
        class One:
            class B(Component):
                async def n(self, x: int) -> int: ...

        class Two:
            class B(Component):
                async def n(self, x: int) -> int: ...

        class Impl:
            async def n(self, x: int) -> int:
                return x

        reg = Registry()
        reg.register(One.B, Impl)
        reg.register(Two.B, Impl)

        async def call(app):
            await app.get(One.B).n(1)

        with pytest.raises(ValueError, match="B.n"):
            await profile_requests({"n": call}, registry=reg, repeats=1)

    async def test_repeats_run_round_robin_across_request_types(self):
        """After the warm pass, every round runs each type once, so one
        burst of interference cannot inflate all samples of one type."""
        order = []

        def request(name):
            async def call(app):
                if app.codec_name == CODEC_NAMES[0]:
                    order.append(name)
                await app.get(A).m(1)

            return call

        names = ["x", "y", "z"]
        await profile_requests({n: request(n) for n in names}, registry=zoo(), repeats=3)
        assert order == names + names * 3
