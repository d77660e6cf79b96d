"""A guided tour of the deployer architecture (Figure 3).

Run:  python examples/deployer_tour.py

Walks through everything the figure shows, live:

* the global manager launching envelopes and (through them) proclets;
* the Table-1 control API (RegisterReplica / ComponentsToHost /
  StartComponent) in action;
* telemetry flowing up: health, load, metrics, logs, the merged call
  graph, and cross-proclet distributed traces;
* the status report (the "Web UI / Debugging Tools" box, rendered to
  your terminal);
* a replica failure and the manager's repair;
* the routing advisor's suggestions learned from the traffic.
"""

import asyncio

from repro.boutique import ALL_COMPONENTS, Address, CreditCard, Frontend
from repro.core.config import AppConfig
from repro.runtime.deployers.multi import deploy_multiprocess
from repro.runtime.status import render_status
from repro.sim.realtime import drive_boutique

ADDRESS = Address("1600 Amphitheatre Pkwy", "Mountain View", "CA", "US", 94043)
CARD = CreditCard("4432-8015-6152-0454", 672, 2030, 1)


async def main() -> None:
    # The config could equally come from a TOML file (AppConfig.load).
    config = AppConfig.from_toml(
        """
        name = "tour"
        codec = "compact"
        compress_wire = true
        colocate = [["repro.boutique.cart.Cart", "repro.boutique.cartstore.CartStore"]]

        [replicas]
        "repro.boutique.frontend.Frontend" = 2
        """
    )

    print("1) manager launches envelopes; proclets register (Table 1) ...")
    app = await deploy_multiprocess(config, components=ALL_COMPONENTS, mode="inproc")
    some_proclet = app.manager.proclets()[0].proclet_id
    hosted = await app.manager.components_to_host(some_proclet)
    print(f"   ComponentsToHost({some_proclet}) -> {[h.rsplit('.', 1)[-1] for h in hosted]}")

    print("\n2) serving the Locust mix for 2.5s ...")
    result = await drive_boutique(app, qps=70, duration_s=2.5, users=8)
    print(
        f"   {result.requests} requests, median {result.median_latency_ms:.2f}ms, "
        f"errors {result.errors}"
    )
    fe = app.get(Frontend)
    await fe.add_to_cart("tour-user", "OLJCESPC7Z", 1)
    await fe.checkout("tour-user", "USD", ADDRESS, "tour@x.com", CARD)
    await asyncio.sleep(1.2)  # heartbeats ship metrics/logs/traces/graph

    print("\n3) a replica dies; the manager notices and repairs ...")
    victim = next(iter(app.envelopes))
    app.kill_replica(victim)
    await app.manager.reconcile()
    await asyncio.sleep(0.2)
    home = await fe.home("tour-user", "USD")
    print(f"   killed {victim}; app still serves ({len(home.products)} products)")

    print("\n4) what the runtime learned from the traffic:")
    for envelope in app.envelopes.values():
        for s in envelope.proclet.advisor.suggestions(min_calls=30):
            print(f"   {s}")

    print("\n5) the aggregated status report (Figure 3's dashboard):\n")
    print(render_status(app.manager, max_traces=1))

    await app.shutdown()
    print("\n6) shut down: envelopes stopped, proclets reaped.")


if __name__ == "__main__":
    asyncio.run(main())
