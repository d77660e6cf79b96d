"""Self time from nested and overlapping spans, on a clock the test owns."""

import asyncio

import pytest

from benchmarks.perf import trace
from benchmarks.perf.trace import InstanceLog, Recorder, Tracing


class FakeClock:
    """Time moves only when the code under test says so."""

    def __init__(self):
        self.now = 1_000

    def __call__(self):
        return self.now

    def tick(self, ns):
        self.now += ns


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(trace, "perf_counter_ns", fake)
    return fake


def _by_name(rec):
    return {s["name"]: s for s in rec.spans()}


def test_nested_sync_spans_subtract_children(clock):
    rec = Recorder()

    def leaf():
        clock.tick(5)

    leaf = rec.wrap_sync("leaf", leaf)

    def middle():
        clock.tick(2)
        leaf()
        clock.tick(3)
        leaf()

    middle = rec.wrap_sync("middle", middle)

    def outer():
        clock.tick(10)
        middle()
        clock.tick(1)

    rec.wrap_sync("outer", outer)()

    totals = rec.totals()
    assert totals["leaf"].count == 2 and totals["leaf"].self_ns == 10
    assert totals["middle"].self_ns == 5 and totals["middle"].busy_ns == 15
    assert totals["outer"].self_ns == 11 and totals["outer"].busy_ns == 26
    assert sum(t.self_ns for t in totals.values()) == 26  # nothing counted twice
    spans = _by_name(rec)
    assert spans["middle"]["parent"] == spans["outer"]["id"]
    assert spans["leaf"]["parent"] == spans["middle"]["id"]


def test_overlapping_tasks_are_not_charged_for_each_other(clock):
    """Two coroutines interleave on one loop: wall durations overlap, self
    times add up to exactly the time that passed."""
    rec = Recorder()

    async def worker(first, second):
        clock.tick(first)
        await asyncio.sleep(0)  # the other task runs here
        clock.tick(second)

    traced = rec.wrap_async("worker", worker)

    async def main():
        await asyncio.gather(traced(2, 3), traced(7, 1))

    asyncio.run(main())
    spans = sorted(rec.spans(), key=lambda s: s["id"])
    assert [s["self_ns"] for s in spans] == [5, 8]
    assert [s["busy_ns"] for s in spans] == [5, 8]
    # First span: started at t, suspended while the other ran 7 ns.
    assert spans[0]["end_ns"] - spans[0]["start_ns"] == 2 + 7 + 3
    assert sum(s["self_ns"] for s in spans) == clock.now - 1_000


def test_async_parent_subtracts_nested_steps_across_suspensions(clock):
    rec = Recorder()

    async def inner():
        clock.tick(4)
        await asyncio.sleep(0)
        clock.tick(6)
        return "reply"

    inner = rec.wrap_async("inner", inner)

    async def outer():
        clock.tick(1)
        reply = await inner()
        clock.tick(2)
        return reply

    assert asyncio.run(rec.wrap_async("outer", outer)()) == "reply"
    totals = rec.totals()
    assert totals["inner"].self_ns == 10
    assert totals["outer"].self_ns == 3 and totals["outer"].busy_ns == 13


def test_exceptions_pass_through_and_the_span_still_ends(clock):
    rec = Recorder()

    async def boom():
        clock.tick(3)
        await asyncio.sleep(0)
        raise KeyError("x")

    def sync_boom():
        clock.tick(2)
        raise ValueError("y")

    with pytest.raises(KeyError):
        asyncio.run(rec.wrap_async("boom", boom)())
    with pytest.raises(ValueError):
        rec.wrap_sync("sync_boom", sync_boom)()
    totals = rec.totals()
    assert totals["boom"].self_ns == 3 and totals["sync_boom"].self_ns == 2
    assert rec._stack == []


def test_ops_give_their_id_to_the_seams_they_enter(clock):
    rec = Recorder()
    seam = rec.wrap_sync("seam", lambda: clock.tick(1))

    async def op(op_id):
        span = rec.begin_op(op_id)
        await asyncio.sleep(0)
        seam()
        rec.end_op(*span)

    async def main():
        await asyncio.gather(op(41), op(42))

    asyncio.run(main())
    seams = [s for s in rec.spans() if s["name"] == "seam"]
    assert sorted(s["op"] for s in seams) == [41, 42]
    ops = {s["op"]: s["id"] for s in rec.spans() if s["name"] == "op"}
    assert all(s["parent"] == ops[s["op"]] for s in seams)


def test_tracing_joins_server_spans_to_client_calls_and_restores_everything():
    """The real seam table on a real (tiny) deployment."""
    from repro.transport.connection import Connection
    from benchmarks.perf.measure import closed_loop
    from benchmarks.perf.workloads import WORKLOADS

    workload = WORKLOADS["echo_d32"]
    original_call = Connection.call
    rec = Recorder()

    async def run():
        app = await workload.deploy()
        try:
            return await closed_loop(workload, workload.client(app), 1, 0.2, recorder=rec)
        finally:
            await app.shutdown()

    with Tracing(rec), InstanceLog(Connection) as seen:
        interval = asyncio.run(run())
    assert Connection.call is original_call
    assert interval.failed == 0 and interval.attempted > 32
    assert len(seen.of(Connection)) == 2  # client end and server end

    spans = list(rec.spans())
    by_id = {s["id"]: s for s in spans}
    handles = [s for s in spans if s["name"] == "runtime.proclet.handle"]
    assert len(handles) == interval.attempted
    for handle in handles:
        client = by_id[handle["parent"]]
        assert client["name"] == "transport.connection.call"
        assert client["op"] == handle["op"] != 0
    totals = rec.totals()
    assert totals["serde.encode"].count == 2 * interval.attempted
    assert totals["core.stub.call"].count == interval.attempted
    assert totals["transport.framing.feed"].n == 2 * interval.attempted
    covered = sum(t.self_ns for name, t in totals.items() if name != "op")
    assert 0 < covered < interval.wall_s * 1e9


def test_instance_log_restores_init():
    class Thing:
        def __init__(self, x):
            self.x = x

    original = Thing.__init__
    with InstanceLog(Thing) as log:
        a, b = Thing(1), Thing(2)
        assert log.of(Thing) == [a, b]
    assert Thing.__init__ is original
    Thing(3)
    assert len(log.of(Thing)) == 2
