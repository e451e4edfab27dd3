"""The public VMC verifier: a thin shim over the unified engine.

``verify_coherence`` implements the paper's Definition 4.1 decision
problem for one address, and the Section 3 notion of a *coherent
execution* (every address has a coherent schedule) when given a
multi-address execution.

Routing mirrors Figure 5.3 top to bottom, but lives in
:mod:`repro.engine.registry` as a data-driven backend registry rather
than an if-chain:

1. a supplied write-order → :mod:`repro.core.writeorder` (polynomial);
2. at most one operation per process → :mod:`repro.core.single_op`;
3. every value written at most once → :mod:`repro.core.readmap`;
4. few processes or a small state space → :mod:`repro.core.exact`
   (polynomial for constant process count);
5. otherwise → CNF + CDCL (:mod:`repro.core.encode`), the practical
   choice for the NP-complete general case.

The returned :class:`~repro.core.result.VerificationResult` records
which algorithm decided the instance in ``method`` and carries the
engine's :class:`~repro.engine.report.EngineReport` in ``report``.
Multi-address executions decompose into independent per-address tasks;
pass ``jobs=N`` to decide them on a thread pool, or a shared
:class:`~repro.engine.cache.ResultCache` to dedupe isomorphic
sub-executions across calls.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.result import VerificationResult
from repro.core.types import Address, Execution, Operation
from repro.engine import verify_vmc, verify_vmc_at


def verify_coherence_at(
    execution: Execution,
    addr: Address,
    method: str = "auto",
    write_order: Sequence[Operation] | None = None,
    prepass: bool = True,
    portfolio=True,
    certify: str = "off",
) -> VerificationResult:
    """Decide VMC at one address of a (possibly multi-address) execution."""
    return verify_vmc_at(
        execution,
        addr,
        method=method,
        write_order=write_order,
        prepass=prepass,
        portfolio=portfolio,
        certify=certify,
    )


def verify_coherence(
    execution: Execution,
    method: str = "auto",
    write_orders: Mapping[Address, Sequence[Operation]] | None = None,
    *,
    jobs: int = 1,
    cache=None,
    pool: str = "auto",
    prepass: bool = True,
    portfolio=True,
    resilience=None,
    certify: str = "off",
) -> VerificationResult:
    """Decide whether the execution is coherent (per Section 3): a
    coherent schedule exists for *every* address.

    Returns an aggregate result; per-address results (with witnesses)
    are in ``result.per_address``.  For a single-address execution this
    is exactly the VMC decision problem.

    ``jobs``, ``pool``, ``cache``, ``prepass`` and ``portfolio`` are
    forwarded to the engine: ``jobs=N`` verifies addresses on a pool
    (``pool="thread" | "process" | "auto"`` — auto picks processes
    exactly when heavy exponential-tier tasks survive the pre-pass),
    ``cache`` may be a shared :class:`repro.engine.ResultCache`
    (``None`` uses a fresh per-call cache, ``False`` disables caching),
    ``prepass=False`` skips the polynomial pre-pass, and
    ``portfolio=False`` disables exact-vs-SAT racing on the
    exponential tier.  ``resilience`` (a
    :class:`repro.engine.ResiliencePolicy`) adds deadlines, crash
    retries and fault injection; undecided addresses yield a sound
    UNKNOWN aggregate instead of a hang or a guessed verdict.
    ``certify`` (``"off"``/``"on"``/``"strict"``) attaches checkable
    certificates validated by :mod:`repro.engine.certify`.
    """
    return verify_vmc(
        execution, method=method, write_orders=write_orders, jobs=jobs,
        cache=cache, pool=pool, prepass=prepass, portfolio=portfolio,
        resilience=resilience, certify=certify,
    )
