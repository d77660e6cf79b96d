"""The routing advisor: learning affinity keys from traffic (§5.2)."""

from __future__ import annotations

import pytest

from repro.runtime.advisor import SKETCH_K, ParamStats, RoutingAdvisor


def feed(advisor, component, method, names, rows):
    for row in rows:
        advisor.observe(component, method, names, row)


class TestParamStats:
    def test_repeat_rate(self):
        s = ParamStats()
        for v in ["a", "b", "a", "a", "b"]:
            s.observe(v)
        assert s.distinct == 2
        assert s.repeat_rate == pytest.approx(1 - 2 / 5)

    def test_all_unique_is_zero_repeat(self):
        s = ParamStats()
        for i in range(10):
            s.observe(i)
        assert s.repeat_rate == 0.0

    def test_unhashable_disables(self):
        s = ParamStats()
        s.observe(["list", "is", "unhashable"])
        s.observe("fine")
        assert s.unhashable
        assert s.repeat_rate == 0.0

    def test_overflow_means_no_affinity(self):
        """Past the sketch's K, unique values still read as unique: no
        affinity, and a distinct count near the truth."""
        advisor = RoutingAdvisor()
        n = 4106
        feed(advisor, "app.Svc", "m", ("request_id",), [(i,) for i in range(n)])
        assert advisor.suggestions() == []
        (s,) = advisor.bind("app.Svc", "m", ("request_id",))
        assert s.repeat_rate <= 0.1
        assert abs(s.distinct - n) <= 0.15 * n

    def test_memory_is_bounded_by_the_sketch(self):
        s = ParamStats()
        for i in range(100_000):
            s.observe(f"v{i}")
        assert len(s.hashes) <= SKETCH_K == 256
        assert s.calls == 100_000

    def test_type_distinguishes_values(self):
        s = ParamStats()
        s.observe(1)
        s.observe("1")  # different type: different key
        assert s.distinct == 2


class TestAdvisor:
    def test_suggests_the_repeating_param(self):
        advisor = RoutingAdvisor()
        rows = [(f"user-{i % 5}", f"req-{i}") for i in range(100)]
        feed(advisor, "app.Cache", "get", ("user_id", "request_id"), rows)
        (s,) = advisor.suggestions()
        assert s.param == "user_id"
        assert s.distinct_values == 5
        assert s.repeat_rate > 0.9
        assert "@routed(by='user_id')" in str(s)

    def test_unique_params_not_suggested(self):
        advisor = RoutingAdvisor()
        feed(
            advisor,
            "app.Svc",
            "m",
            ("request_id",),
            [(f"r{i}",) for i in range(100)],
        )
        assert advisor.suggestions() == []

    def test_constant_param_not_suggested(self):
        advisor = RoutingAdvisor()
        feed(advisor, "app.Svc", "m", ("region",), [("us-east",)] * 100)
        assert advisor.suggestions() == []  # distinct=1 < min_distinct

    def test_min_calls_threshold(self):
        advisor = RoutingAdvisor()
        feed(advisor, "app.Svc", "m", ("k",), [("a",), ("a",), ("b",), ("c",)])
        assert advisor.suggestions(min_calls=20) == []
        assert (
            advisor.suggestions(min_calls=2, min_distinct=3, min_repeat_rate=0.2) != []
        )

    def test_already_routed_methods_excluded(self):
        advisor = RoutingAdvisor()
        advisor.observe("app.Store", "get", ("key",), ("k1",), already_routed=True)
        feed(advisor, "app.Store", "get", ("key",), [("a",)] * 50)
        assert advisor.suggestions() == []

    def test_many_repeating_keys_are_suggested(self):
        """5,000 users making 20 calls each is a perfect routing key, even
        though far more users exist than the sketch keeps."""
        advisor = RoutingAdvisor()
        rows = [(f"user-{i % 5000}",) for i in range(100_000)]
        feed(advisor, "app.Cart", "get", ("user_id",), rows)
        (s,) = advisor.suggestions()
        assert s.param == "user_id"
        assert s.repeat_rate >= 0.9

    def test_best_param_per_method(self):
        advisor = RoutingAdvisor()
        rows = [(f"u{i % 4}", f"s{i % 40}") for i in range(200)]
        feed(advisor, "app.Svc", "m", ("user", "session"), rows)
        (s,) = advisor.suggestions()
        assert s.param == "user"  # higher repeat rate than session

    def test_reset(self):
        advisor = RoutingAdvisor()
        feed(advisor, "a.B", "m", ("k",), [("x",)] * 50)
        advisor.reset()
        assert advisor.suggestions(min_calls=1, min_distinct=1) == []


class TestAdvisorInRuntime:
    async def test_advisor_rediscovers_cartstore_affinity(self):
        """Drive the boutique through a proclet-per-component deployment
        and check the advisor proposes user_id keys for cart methods that
        we deliberately leave unannotated (Cart itself; CartStore is
        @routed already and therefore excluded)."""
        from repro.boutique import ALL_COMPONENTS, Frontend
        from repro.core.config import AppConfig
        from repro.runtime.deployers.multi import deploy_multiprocess

        app = await deploy_multiprocess(
            AppConfig(name="advise"), components=ALL_COMPONENTS, mode="inproc"
        )
        fe = app.get(Frontend)
        for i in range(60):
            await fe.add_to_cart(f"user-{i % 6}", "OLJCESPC7Z", 1)

        suggestions = []
        for envelope in app.envelopes.values():
            suggestions += envelope.proclet.advisor.suggestions(
                min_calls=30, min_distinct=3
            )
        await app.shutdown()

        by_method = {(s.component.rsplit(".", 1)[-1], s.method): s for s in suggestions}
        cart_add = by_method.get(("Cart", "add_item"))
        assert cart_add is not None, suggestions
        assert cart_add.param == "user_id"
        # CartStore is already @routed: no advice for it.
        assert not any(s.component.endswith("CartStore") for s in suggestions)
