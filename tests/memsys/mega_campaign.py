"""Certified mega-campaign: the ground-truth contract, cold then warm.

A seeded campaign of at least 500 executions (every supported fault
site on both substrates, two delay models on the directory) is run
with certification on a 4-way pool against a persistent result store,
first cold and then warm from the same store.  It fails on any engine
error, any false alarm, any missed visible fault, any coverage gap, or
a warm pass that re-solves what the cold pass solved (every instance
the cold pass solved must come back as a store hit).

Run it from the root of a checkout::

    PYTHONPATH=src PYTHONHASHSEED=0 python tests/memsys/mega_campaign.py

The store lives in a fresh temporary directory, so every run starts
cold.  Pytest does not collect this file; CI's campaign job runs it.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import time

from repro.engine import ResiliencePolicy, ResultCache, ResultStore
from repro.memsys import campaign_table, run_campaign

CAMPAIGN = dict(
    # sites=None: every supported site on each substrate.
    substrates=["bus", "directory"],
    delay_models=["fixed:1", "uniform:1:4"],
    runs_per_cell=18,
    num_processors=4,
    ops_per_processor=40,
    values="small",
    fault_rate=0.15,
    certify="on",
    jobs=4,
    resilience=ResiliencePolicy(retries=2),
)


def sweep(tag: str, store: ResultStore):
    cache = ResultCache(store=store)
    t0 = time.perf_counter()
    rep = run_campaign(cache=cache, store=store, **CAMPAIGN)
    dt = time.perf_counter() - t0
    print(f"{tag}: {rep.total_runs} runs, "
          f"{rep.total_injections} injections, "
          f"{rep.certified} certified, {dt:.1f}s")
    return rep


def check(store_dir: str) -> None:
    store = ResultStore(store_dir)
    cold = sweep("cold", store)
    warm = sweep("warm", store)
    for tag, rep in (("cold", cold), ("warm", warm)):
        if not rep.contract_ok:
            print(f"{tag} contract breached:", file=sys.stderr)
            for f in rep.contract_failures[:20]:
                print(f"  {f}", file=sys.stderr)
            print(campaign_table(rep), file=sys.stderr)
            sys.exit(1)
        assert rep.total_runs >= 500, rep.total_runs
        assert rep.errors == 0, f"{tag}: {rep.errors} errors"
        assert all(c.false_alarms == 0 for c in rep.cells)
        assert all(c.missed_visible == 0 for c in rep.cells)
        assert all(c.coverage == 1.0 for c in rep.cells), (
            f"{tag}: silent cells"
        )
    assert cold.certified > 0, "certification never ran"
    assert sum(c.detected_visible for c in cold.cells) > 0
    assert sum(c.latent for c in cold.cells) > 0
    # Warm store-hit rate vs the cold run's dedup prediction: every
    # unique instance the cold pass solved must come back as a store
    # hit on the warm pass.
    solved_cold = cold.provenance.get("solved", 0)
    store_warm = warm.provenance.get("store", 0)
    print(f"cold solved {solved_cold}, warm store hits {store_warm}")
    assert solved_cold > 0, "cold pass never solved anything"
    assert store_warm >= solved_cold, (
        f"warm store-hit rate below the cold dedup prediction: "
        f"{store_warm} < {solved_cold}"
    )
    assert warm.provenance.get("solved", 0) == 0, (
        "warm pass re-solved instances"
    )
    print(campaign_table(cold))
    print("campaign job ok")


def main() -> None:
    store_dir = tempfile.mkdtemp(prefix="campaign-store-")
    try:
        check(store_dir)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
