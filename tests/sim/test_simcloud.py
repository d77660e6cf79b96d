"""The simulated-cloud deployer (config-driven veneer over the sim)."""

from __future__ import annotations

from repro.boutique import ALL_COMPONENTS
from repro.core.config import AppConfig
from repro.runtime.deployers.simcloud import BASELINE_STACK, WEAVER_STACK, deploy_simcloud
from repro.sim.experiment import record_boutique_mix


async def small_mix():
    return await record_boutique_mix(repeats=1)


class TestSimcloudDeployer:
    async def test_default_deploys_singletons(self):
        mix = await small_mix()
        report = await deploy_simcloud(
            mix, components=ALL_COMPONENTS, qps=150, duration_s=4, warmup_s=1
        )
        assert report.completed > 0
        assert len(report.replica_counts) == 11
        assert report.median_latency_ms > 0

    async def test_colocate_config_respected(self):
        from repro.core.component import component_name

        mix = await small_mix()
        names = [component_name(c) for c in ALL_COMPONENTS]
        config = AppConfig(name="sim").colocate_all(names)
        report = await deploy_simcloud(
            mix,
            config,
            components=ALL_COMPONENTS,
            qps=150,
            duration_s=4,
            warmup_s=1,
        )
        assert len(report.replica_counts) == 1

    async def test_stack_choice_changes_outcome(self):
        mix = await small_mix()
        weaver = await deploy_simcloud(
            mix, components=ALL_COMPONENTS, stack=WEAVER_STACK, qps=300, duration_s=5, warmup_s=1
        )
        baseline = await deploy_simcloud(
            mix, components=ALL_COMPONENTS, stack=BASELINE_STACK, qps=300, duration_s=5, warmup_s=1
        )
        assert baseline.busy_cores > weaver.busy_cores
        assert baseline.median_latency_ms > weaver.median_latency_ms
