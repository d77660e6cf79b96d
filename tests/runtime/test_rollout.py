"""Atomic blue/green rollouts vs rolling updates (§4.4)."""

from __future__ import annotations

import pytest

from repro.core.config import RolloutConfig
from repro.core.errors import CrossVersionViolation, RolloutError
from repro.runtime.rollout import (
    BlueGreenRollout,
    PinnedRequest,
    RollingUpdateModel,
    run_rollout,
)


class FakeApp:
    def __init__(self, version):
        self.version = version
        self.shut_down = False

    async def shutdown(self):
        self.shut_down = True


class TestBlueGreen:
    def test_same_version_rejected(self):
        with pytest.raises(RolloutError, match="different deployment versions"):
            BlueGreenRollout(FakeApp("v1"), FakeApp("v1"))

    def test_starts_all_blue(self):
        r = BlueGreenRollout(FakeApp("v1"), FakeApp("v2"), seed=1)
        assert all(r.pin().version == "v1" for _ in range(50))

    def test_advance_shifts_weight(self):
        r = BlueGreenRollout(
            FakeApp("v1"), FakeApp("v2"), config=RolloutConfig(steps=4), seed=1
        )
        assert r.advance() == 0.25
        assert r.advance() == 0.5
        assert r.advance() == 0.75
        assert r.advance() == 1.0
        assert r.done

    def test_full_green_routes_everything_green(self):
        r = BlueGreenRollout(
            FakeApp("v1"), FakeApp("v2"), config=RolloutConfig(steps=1), seed=1
        )
        r.advance()
        assert all(r.pin().version == "v2" for _ in range(50))

    def test_intermediate_split_roughly_matches_weight(self):
        r = BlueGreenRollout(
            FakeApp("v1"), FakeApp("v2"), config=RolloutConfig(steps=2), seed=42
        )
        r.advance()  # 50/50
        greens = sum(r.pin().version == "v2" for _ in range(1000))
        assert 380 < greens < 620

    def test_abort_returns_to_blue(self):
        r = BlueGreenRollout(FakeApp("v1"), FakeApp("v2"), seed=1)
        r.advance()
        r.abort()
        assert r.green_weight == 0.0
        assert all(r.pin().version == "v1" for _ in range(20))

    async def test_finalize_requires_done(self):
        r = BlueGreenRollout(FakeApp("v1"), FakeApp("v2"))
        with pytest.raises(RolloutError, match="advance"):
            await r.finalize()

    async def test_finalize_shuts_down_blue(self):
        blue = FakeApp("v1")
        r = BlueGreenRollout(blue, FakeApp("v2"), config=RolloutConfig(steps=1))
        r.advance()
        await r.finalize()
        assert blue.shut_down
        with pytest.raises(RolloutError, match="finalized"):
            r.advance()

    def test_pin_check_enforces_version(self):
        pinned = PinnedRequest("v1", FakeApp("v1"))
        pinned.check("v1")
        with pytest.raises(CrossVersionViolation):
            pinned.check("v2")


class TestRunRollout:
    async def test_successful_rollout_completes(self):
        blue, green = FakeApp("v1"), FakeApp("v2")

        async def probe(pinned):
            pinned.check(pinned.app.version)  # always consistent

        report = await run_rollout(
            blue, green, config=RolloutConfig(steps=5), probe=probe, seed=3
        )
        assert report.completed and not report.aborted
        assert blue.shut_down
        assert set(report.requests_by_version) <= {"v1", "v2"}
        assert report.total_requests == 50

    async def test_probe_failure_aborts(self):
        blue, green = FakeApp("v1"), FakeApp("v2")

        async def probe(pinned):
            if pinned.version == "v2":
                raise RuntimeError("green is broken")

        report = await run_rollout(
            blue, green, config=RolloutConfig(steps=5), probe=probe, seed=3
        )
        assert report.aborted and not report.completed
        assert "green is broken" in report.abort_reason
        assert not blue.shut_down  # blue still serving


class TestRollingUpdateModel:
    def test_closed_form_endpoints(self):
        m = RollingUpdateModel(num_services=5, replicas_per_service=4)
        assert m.cross_version_fraction(0.0) == 0.0
        assert m.cross_version_fraction(1.0) == 0.0

    def test_closed_form_peak_at_half(self):
        m = RollingUpdateModel(num_services=5, replicas_per_service=4)
        peak = m.cross_version_fraction(0.5)
        assert peak > m.cross_version_fraction(0.1)
        assert peak > m.cross_version_fraction(0.9)
        assert peak == pytest.approx(1 - 2 * 0.5**5)

    def test_more_services_more_crossings(self):
        small = RollingUpdateModel(num_services=2, replicas_per_service=4)
        large = RollingUpdateModel(num_services=11, replicas_per_service=4)
        assert large.cross_version_fraction(0.5) > small.cross_version_fraction(0.5)

    def test_monte_carlo_matches_closed_form(self):
        m = RollingUpdateModel(num_services=4, replicas_per_service=10, seed=7)
        simulated = m.simulate(0.5, requests=5000)
        assert abs(simulated - m.cross_version_fraction(0.5)) < 0.05

    def test_total_exposure_positive_for_any_real_update(self):
        m = RollingUpdateModel(num_services=11, replicas_per_service=3, seed=1)
        assert m.total_exposure(steps=10, requests_per_step=300) > 0.5

    def test_blue_green_has_zero_crossings_by_construction(self):
        """The paper's contrast: with per-request pinning there is no mixed
        path, ever — every request either checks v1 or v2 throughout."""
        r = BlueGreenRollout(
            FakeApp("v1"), FakeApp("v2"), config=RolloutConfig(steps=10), seed=5
        )
        crossings = 0
        while not r.done:
            r.advance()
            for _ in range(100):
                pinned = r.pin()
                try:
                    # Every component the request touches is the pinned app.
                    pinned.check(pinned.app.version)
                except CrossVersionViolation:
                    crossings += 1
        assert crossings == 0
