"""The executor: serial/parallel equivalence, early exit, reporting."""

import os
import time

import pytest

from tests.conftest import make_coherent_execution
from repro.core.builder import ExecutionBuilder
from repro.core.types import Execution, OpKind, Operation
from repro.engine import (
    ResiliencePolicy,
    execute_plan,
    executor,
    plan_vmc,
    verify_vmc,
)

#: The real decide step, saved so the stand-ins below can delegate to
#: it inside pool workers too.
_DECIDE = executor._decide_task


def _raising_decide(task, *args, **kwargs):
    if task.address == "b":
        raise RuntimeError("engine bug")
    return _DECIDE(task, *args, **kwargs)


def _killing_decide(task, timeout=None, chaos=None, attempt=0, *args,
                    **kwargs):
    """Kill the worker process on task ``x``'s first attempt while the
    other tasks are still running on their workers."""
    if task.address == "x" and attempt == 0:
        time.sleep(0.1)
        os._exit(1)
    time.sleep(0.2)
    return _DECIDE(task, timeout, chaos, attempt, *args, **kwargs)


def _multi_address_corpus():
    """Coherent and incoherent multi-address executions."""
    corpus = []
    for seed in range(8):
        ex, _ = make_coherent_execution(
            18, 3, seed, addresses=("x", "y", "z"), num_values=3
        )
        corpus.append(ex)
        corpus.append(_corrupt_one_read(ex))
    return corpus


def _corrupt_one_read(ex: Execution) -> Execution:
    """Point the last read at a never-written value => incoherent."""
    histories = [list(h.operations) for h in ex.histories]
    for ops in reversed(histories):
        for i in reversed(range(len(ops))):
            if ops[i].kind is OpKind.READ:
                op = ops[i]
                ops[i] = Operation(
                    OpKind.READ, op.addr, op.proc, op.index, value_read=99
                )
                return Execution.from_ops(
                    histories, initial=ex.initial, final=ex.final
                )
    return ex


class TestParallelEquivalence:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_verdicts_match_serial(self, jobs):
        for ex in _multi_address_corpus():
            serial = verify_vmc(ex, jobs=1, cache=False)
            parallel = verify_vmc(ex, jobs=jobs, cache=False)
            assert serial.holds == parallel.holds

    def test_parallel_per_address_verdicts(self):
        for ex in _multi_address_corpus():
            serial = verify_vmc(ex, jobs=1, cache=False, early_exit=False)
            parallel = verify_vmc(ex, jobs=4, cache=False, early_exit=False)
            assert serial.holds == parallel.holds
            assert set(serial.per_address) == set(parallel.per_address)
            for addr, res in serial.per_address.items():
                assert res.holds == parallel.per_address[addr].holds

    def test_parallel_report(self):
        ex, _ = make_coherent_execution(
            18, 3, 7, addresses=("x", "y", "z"), num_values=3
        )
        result = verify_vmc(ex, jobs=4, cache=False)
        assert result.report.jobs == 4
        assert result.report.planned == len(ex.constrained_addresses())
        assert result.report.executed == result.report.planned


def _bad_cheap_plus_expensive_good():
    """addr a: incoherent, cheapest task; b and c: fine, pricier."""
    b = ExecutionBuilder(initial={"a": 0, "b": 0, "c": 0})
    b.process().write("a", 1).write("b", 1).write("b", 2).write(
        "c", 1
    ).write("c", 2)
    b.process().read("a", 99).read("b", 2).read("c", 2)
    return b.build()


class TestEarlyExit:
    def test_serial_early_exit_skips_tail(self):
        ex = _bad_cheap_plus_expensive_good()
        result = verify_vmc(ex, jobs=1, cache=False)
        assert not result.holds
        report = result.report
        assert report.early_exit
        assert report.executed == 1
        skipped = [t for t in report.tasks if t.skipped]
        assert len(skipped) == report.planned - 1
        assert all(t.holds is None for t in skipped)

    def test_early_exit_disabled_runs_everything(self):
        ex = _bad_cheap_plus_expensive_good()
        result = verify_vmc(ex, jobs=1, cache=False, early_exit=False)
        assert not result.holds
        assert result.report.executed == result.report.planned
        assert not result.report.early_exit

    def test_violation_reason_names_the_address(self):
        result = verify_vmc(_bad_cheap_plus_expensive_good(), cache=False)
        assert "'a'" in result.reason
        assert "no coherent schedule" in result.reason

    def test_parallel_early_exit_still_violates(self):
        ex = _bad_cheap_plus_expensive_good()
        result = verify_vmc(ex, jobs=4, cache=False)
        assert not result.holds


class TestExecutePlan:
    def test_results_keyed_by_address(self):
        ex = _bad_cheap_plus_expensive_good()
        tasks = plan_vmc(ex)
        results, report = execute_plan(tasks, jobs=1, early_exit=False)
        assert set(results) == {"a", "b", "c"}
        assert not results["a"].holds
        assert results["b"].holds and results["c"].holds
        assert report.planned == 3 and report.executed == 3

    def test_task_stats_rows_render(self):
        ex = _bad_cheap_plus_expensive_good()
        result = verify_vmc(ex, cache=False)
        text = result.report.format()
        assert "engine:" in text and "VIOLATED" in text

    def test_backends_used(self):
        ex = _bad_cheap_plus_expensive_good()
        result = verify_vmc(ex, cache=False, early_exit=False)
        used = result.report.backends_used
        assert used.get("single-op") == 1
        assert used.get("readmap") == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_engine_error_raises(self, monkeypatch, jobs):
        """A task's engine exception is kept per task inside the runner
        but still raised to ``execute_plan``'s caller."""
        monkeypatch.setattr(executor, "_decide_task", _raising_decide)
        tasks = plan_vmc(_bad_cheap_plus_expensive_good())
        with pytest.raises(RuntimeError, match="engine bug"):
            execute_plan(tasks, jobs=jobs, early_exit=False, pool="thread")

    def test_worker_death_breaks_every_future_in_flight(self, monkeypatch):
        """A dead worker breaks all in-flight futures at once: each is
        requeued exactly once and every task is still decided."""
        monkeypatch.setattr(executor, "_decide_task", _killing_decide)
        ex, _ = make_coherent_execution(
            12, 3, 17, addresses=("x", "y", "z", "w"), num_values=3
        )
        tasks = plan_vmc(ex, prepass=False, portfolio=False)
        results, report = execute_plan(
            tasks, jobs=3, pool="process", early_exit=False,
            resilience=ResiliencePolicy(backoff_s=0.0),
        )
        assert set(results) == {"x", "y", "z", "w"}
        assert all(r.holds and not r.unknown for r in results.values())
        assert report.crashes >= 2
