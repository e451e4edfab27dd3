"""Ground-truth campaigns: the visible ⇒ VIOLATED / latent ⇒ HOLDS
contract, per-cell aggregation, control runs, and determinism."""

import dataclasses

import pytest

from repro.core.types import Execution, ProcessHistory
from repro.engine import ResultCache, ResultStore
from repro.memsys import campaign as campaign_mod
from repro.memsys.campaign import (
    SUBSTRATES,
    CampaignReport,
    CellResult,
    campaign_table,
    run_campaign,
)
from repro.memsys.faults import FaultKind, supported_faults

# Small-but-real campaign shape shared by most tests here.
SMALL = dict(
    runs_per_cell=5,
    num_processors=3,
    ops_per_processor=24,
    num_addresses=2,
    write_fraction=0.4,
    fault_rate=0.2,
)


class TestCampaignShape:
    def test_bus_cells_and_control_runs(self):
        report = run_campaign(
            sites=[FaultKind.DROPPED_WRITE, FaultKind.CORRUPTED_VALUE],
            substrates=["bus"],
            **SMALL,
        )
        assert isinstance(report, CampaignReport)
        assert len(report.cells) == 2
        for cell in report.cells:
            assert isinstance(cell, CellResult)
            assert cell.substrate == "bus"
            assert cell.delay_model == "atomic"  # the bus has no fabric
            assert cell.runs == SMALL["runs_per_cell"] + 1
            assert cell.control_runs == 1
        assert report.total_runs == 2 * (SMALL["runs_per_cell"] + 1)

    def test_directory_cells_sweep_delay_models(self):
        report = run_campaign(
            sites=[FaultKind.WB_RACE_CORRUPT],
            substrates=["directory"],
            delay_models=["fixed:1", "uniform:1:4"],
            **SMALL,
        )
        assert [c.delay_model for c in report.cells] == [
            "fixed:1",
            "uniform:1:4",
        ]
        assert all(c.substrate == "directory" for c in report.cells)

    def test_unknown_substrate_rejected(self):
        with pytest.raises(ValueError, match="unknown substrate"):
            run_campaign(substrates=["token-ring"], runs_per_cell=1)

    def test_sites_filtered_per_substrate(self):
        """A bus-only site contributes no directory cells (and vice
        versa) rather than crashing or injecting nothing silently."""
        report = run_campaign(
            sites=[FaultKind.LOST_INVALIDATION],
            substrates=["directory"],
            runs_per_cell=1,
            num_processors=2,
            ops_per_processor=8,
        )
        assert report.cells == []
        assert report.total_runs == 0
        assert report.contract_ok

    def test_substrate_registry_matches_supported_faults(self):
        for name in SUBSTRATES:
            assert supported_faults(name)  # raises on unknown names


class TestGroundTruthContract:
    def test_value_faults_bus_contract_holds(self):
        report = run_campaign(
            sites=[FaultKind.DROPPED_WRITE, FaultKind.CORRUPTED_VALUE],
            substrates=["bus"],
            **SMALL,
        )
        assert report.contract_ok, report.contract_failures
        assert report.total_injections > 0
        assert all(c.false_alarms == 0 for c in report.cells)
        assert all(c.missed_visible == 0 for c in report.cells)
        # Dropped writes with unique values are reliably visible.
        assert any(c.detected_visible > 0 for c in report.cells)

    def test_directory_message_faults_contract_holds(self):
        report = run_campaign(
            sites=[
                FaultKind.WB_RACE_CORRUPT,
                FaultKind.DIR_STATE_CORRUPT,
                FaultKind.STALE_SHARER,
            ],
            substrates=["directory"],
            delay_models=["uniform:1:3"],
            **SMALL,
        )
        assert report.contract_ok, report.contract_failures
        assert report.total_injections > 0
        # The oracle classifies every single injection, one way or the
        # other — the dichotomy is total.
        for cell in report.cells:
            assert cell.visible + cell.latent == cell.injections

    def test_coverage_accounts_for_every_run(self):
        report = run_campaign(
            sites=[FaultKind.CORRUPTED_VALUE], substrates=["bus"], **SMALL
        )
        for cell in report.cells:
            decided = cell.runs - cell.unknown - cell.errors
            assert cell.coverage == decided / cell.runs
            assert cell.coverage == 1.0  # nothing abandoned in-process

    def test_certified_campaign(self):
        """certify="on" threads proof-carrying verdicts through the
        whole sweep without breaching the contract."""
        report = run_campaign(
            sites=[FaultKind.DROPPED_WRITE, FaultKind.REORDERED_SERIALIZATION],
            substrates=["bus"],
            certify="on",
            **SMALL,
        )
        assert report.contract_ok, report.contract_failures
        assert report.errors == 0
        assert report.certified > 0


class TestDeterminismAndDedup:
    def test_serial_process_pool_agreement(self):
        """The same campaign decided serially and over a process pool
        produces identical per-cell ground truth and verdicts."""
        kw = dict(
            sites=[FaultKind.DROPPED_WRITE, FaultKind.WB_RACE_CORRUPT],
            runs_per_cell=4,
            num_processors=3,
            ops_per_processor=20,
            num_addresses=2,
            fault_rate=0.2,
        )
        serial = run_campaign(jobs=1, **kw)
        pooled = run_campaign(jobs=2, **kw)
        assert serial.to_json()["cells"] == pooled.to_json()["cells"]
        assert serial.contract_ok == pooled.contract_ok

    def test_campaign_is_reproducible(self):
        kw = dict(
            sites=[FaultKind.CORRUPTED_VALUE], substrates=["bus"], **SMALL
        )
        a = run_campaign(**kw)
        b = run_campaign(**kw)

        def stable(report):
            # Everything but the wall-clock phase timings.
            blob = report.to_json()
            blob.pop("simulate_s"), blob.pop("verify_s")
            return blob

        assert stable(a) == stable(b)

    def test_repeated_campaign_served_from_shared_cache(self):
        """A shared ResultCache carries verdicts across sweeps: the
        second identical campaign solves nothing."""
        cache = ResultCache()
        kw = dict(
            sites=[FaultKind.DROPPED_WRITE], substrates=["bus"],
            cache=cache, **SMALL,
        )
        cold = run_campaign(**kw)
        assert cold.provenance.get("solved", 0) > 0
        warm = run_campaign(**kw)
        assert warm.provenance.get("solved", 0) == 0
        assert (
            warm.provenance.get("memory", 0)
            + warm.provenance.get("dedup", 0)
            == sum(cold.provenance.values())
        )
        assert warm.to_json()["cells"] == cold.to_json()["cells"]


class TestReportRendering:
    def test_table_lists_every_cell_and_contract_line(self):
        report = run_campaign(
            sites=[FaultKind.DROPPED_WRITE], substrates=["bus"], **SMALL
        )
        cache = ResultCache()
        table = campaign_table(report, cache=cache)
        assert "fault site" in table
        assert "dropped-write" in table
        assert "contract: OK" in table
        assert "cache:" in table

    def test_breaches_are_rendered(self):
        report = CampaignReport()
        report._fail("cellX: missed visible fault")
        table = campaign_table(report)
        assert "contract: BREACHED" in table
        assert "breach: cellX" in table

    def test_json_round_trip_fields(self):
        report = run_campaign(
            sites=[FaultKind.DROPPED_WRITE], substrates=["bus"], **SMALL
        )
        blob = report.to_json()
        assert blob["contract_ok"] is True
        assert blob["total_runs"] == report.total_runs
        assert len(blob["cells"]) == len(report.cells)
        cell = blob["cells"][0]
        for key in (
            "site", "substrate", "delay_model", "detection_rate",
            "coverage", "false_alarms", "missed_visible", "certified",
        ):
            assert key in cell

    def test_failure_list_is_capped(self):
        report = CampaignReport()
        for i in range(report.MAX_FAILURES + 10):
            report._fail(f"breach {i}")
        assert len(report.contract_failures) == report.MAX_FAILURES + 1
        assert report.contract_failures[-1].startswith("...")


class TestRunCache:
    """Runs recorded in the result store: a repeated sweep replays them
    instead of simulating, and still verifies every one of them."""

    SITES = [FaultKind.DROPPED_WRITE, FaultKind.STALE_SHARER]

    def _sweep(self, store, **overrides):
        kwargs = dict(
            sites=self.SITES,
            substrates=["directory"],
            store=store,
            certify="on",
            **SMALL,
        )
        kwargs.update(overrides)
        return run_campaign(**kwargs)

    @staticmethod
    def _forbid_simulation(monkeypatch):
        def refuse(self):
            raise AssertionError("simulated a run the store holds")

        for system_cls in SUBSTRATES.values():
            monkeypatch.setattr(system_cls, "run", refuse)

    def test_warm_sweep_replays_identically(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        cold = self._sweep(store)
        assert cold.provenance.get("replayed", 0) == 0
        self._forbid_simulation(monkeypatch)
        # A fresh handle: the warm sweep reads only what was flushed.
        warm = self._sweep(ResultStore(tmp_path / "store"))
        assert cold.contract_ok and warm.contract_ok
        assert warm.provenance["replayed"] == warm.total_runs
        assert warm.provenance.get("solved", 0) == 0
        # Replayed runs are verified: their verdicts are store hits.
        assert warm.provenance.get("store", 0) > 0
        assert cold.to_json()["cells"] == warm.to_json()["cells"]
        assert warm.total_injections == cold.total_injections
        assert warm.certified == cold.certified > 0
        assert warm.contract_failures == cold.contract_failures

    def test_parameter_change_misses(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        self._sweep(store)
        # Different fault rate → different keys → everything re-runs.
        bumped = self._sweep(store, fault_rate=0.3)
        assert bumped.provenance.get("replayed", 0) == 0
        assert bumped.contract_ok

    def test_source_change_misses(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        cold = self._sweep(store)
        monkeypatch.setattr(campaign_mod, "_source_digest", lambda: "edited")
        warm = self._sweep(store)
        assert warm.provenance.get("replayed", 0) == 0
        assert cold.to_json()["cells"] == warm.to_json()["cells"]

    def test_no_replay_without_sources(self, tmp_path, monkeypatch):
        monkeypatch.setattr(campaign_mod, "_source_digest", lambda: None)
        store = ResultStore(tmp_path / "store")
        self._sweep(store)
        assert self._sweep(store).provenance.get("replayed", 0) == 0
        assert not any(
            e["key"][0] == "campaign-run" for e in store.entries()
        )

    def test_tampered_replay_is_a_contract_breach(self, tmp_path):
        """A stored control run whose execution no longer matches its
        recorded oracle (HOLDS) is verified on replay, so the warm
        sweep reports the false alarm instead of a recorded pass."""
        store = ResultStore(tmp_path / "store")
        cold = self._sweep(store)
        assert cold.contract_ok
        entry = next(
            e for e in store.entries()
            if e["key"][0] == "campaign-run" and e["key"][6]  # control
        )
        execution = entry["execution"]
        read = next(
            op for op in execution.all_ops() if op.kind.reads
            and not op.kind.writes
        )
        histories = [
            ProcessHistory(h.proc, tuple(
                dataclasses.replace(op, value_read=10**6)
                if op is read else op
                for op in h.operations
            ))
            for h in execution.histories
        ]
        tampered = Execution(
            histories, initial=execution.initial, final=execution.final
        )
        store.put(
            entry["key"],
            **{f: entry[f] for f in ("write_orders", "fault_events", "oracle")},
            execution=tampered,
        )
        store.flush()
        warm = self._sweep(ResultStore(tmp_path / "store"))
        assert warm.provenance["replayed"] == warm.total_runs
        assert not warm.contract_ok
        assert any(
            "false alarm — control run" in f for f in warm.contract_failures
        )

    def test_evicted_runs_simulate_again(self, tmp_path):
        # A one-shard store far smaller than one sweep's records:
        # compaction on flush evicts most of them.
        store = ResultStore(tmp_path / "store", max_mb=0.05, n_shards=1)
        cold = self._sweep(store)
        assert store.stats.evictions > 0
        warm = self._sweep(store)
        assert warm.provenance.get("replayed", 0) < warm.total_runs
        assert warm.contract_ok
        assert cold.to_json()["cells"] == warm.to_json()["cells"]
