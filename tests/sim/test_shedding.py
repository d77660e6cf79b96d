"""Load shedding in the simulated cluster: overload behavior with and
without admission control.

The claim (mirroring the real runtime's ``max_inflight``): under sustained
overload, a deployment that sheds excess requests at the pod door serves
strictly more successful requests within their deadline than one that
queues everything — unbounded queues convert overload into universal
deadline misses.
"""

from __future__ import annotations

from repro.sim.cluster import build_deployment
from repro.sim.costmodel import StackCosts
from repro.sim.engine import Simulator
from repro.sim.profile import CallNode
from repro.sim.workload import RequestType, WorkloadMix, run_load

FAST_NET = StackCosts(
    name="test",
    codec="compact",
    rpc_fixed_cpu_s=0.0,
    ser_cpu_s_per_byte=0.0,
    protocol_overhead_bytes=0,
    network_latency_s=0.0001,
    bandwidth_bytes_per_s=1e12,
)


def service_tree(cpu_s: float = 0.01) -> CallNode:
    svc = CallNode("Svc", "handle", self_cpu_s=cpu_s)
    return CallNode("<root>", "req", children=[svc])


def drive(qps: float, *, shed_queue_limit: int = 0, deadline_s=None, duration_s=2.0):
    sim = Simulator()
    deployment = build_deployment(sim, [("Svc",)], FAST_NET)
    deployment.shed_queue_limit = shed_queue_limit
    deployment.deadline_s = deadline_s
    mix = WorkloadMix([RequestType("req", 1.0, service_tree())])
    return run_load(
        deployment, mix, qps=qps, duration_s=duration_s, arrivals="uniform", seed=1
    )


class TestSheddingMechanics:
    def test_no_shed_under_light_load(self):
        report = drive(qps=50, shed_queue_limit=4, deadline_s=0.5)
        assert report.shed == 0
        assert report.deadline_misses == 0
        assert report.success_rate == 1.0

    def test_overload_sheds_instead_of_queueing(self):
        # 10ms of work per request at 200 qps on one core: 2x overload.
        report = drive(qps=200, shed_queue_limit=4)
        assert report.shed > 0
        assert report.completed > 0
        assert report.issued == report.completed + report.shed

    def test_unbounded_queue_blows_deadlines(self):
        report = drive(qps=200, deadline_s=0.1)
        assert report.deadline_misses > 0

    def test_shed_accounting_in_report(self):
        report = drive(qps=200, shed_queue_limit=4, deadline_s=0.1)
        assert report.failed == report.shed + report.deadline_misses
        assert 0.0 < report.success_rate < 1.0


class TestOverloadAvailability:
    def test_shedding_beats_queueing_at_2x_overload(self):
        """The acceptance bar: at 2x overload, the shedding deployment
        completes strictly more requests within the deadline."""
        shedding = drive(qps=200, shed_queue_limit=4, deadline_s=0.1)
        queueing = drive(qps=200, shed_queue_limit=0, deadline_s=0.1)
        assert shedding.issued == queueing.issued
        ok_shedding = shedding.completed
        ok_queueing = queueing.completed
        assert ok_shedding > ok_queueing
        # And not marginally: bounded queues keep waiting time bounded, so
        # nearly every *admitted* request meets its deadline.
        assert shedding.deadline_misses <= shedding.issued * 0.05

    def test_shedding_preserves_availability_floor(self):
        shedding = drive(qps=200, shed_queue_limit=4, deadline_s=0.1)
        # One core can do ~100 qps of 10ms work: roughly half the offered
        # load should complete, not collapse to zero.
        assert shedding.success_rate > 0.35
