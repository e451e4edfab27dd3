"""Daemon soak via the CLI: a real ``repro serve`` cold and warm, then
under crash chaos with SIGTERM fired mid-campaign.

Phase 1 boots the daemon with a persistent store and sends 100
executions twice (cold pass, warm re-run).  Every response must be the
offline verdict (and certificate digest) of a per-request
``verify_many`` baseline, the warm pass must be served off the tenant
tier without re-solving, and the SIGTERM drain must be clean (exit 0,
socket unlinked).

Phase 2 boots it with crash chaos and ``--retries 0`` and fires
SIGTERM at request 70.  Every answer must be the offline verdict or a
machine-readable refusal — never a flipped verdict — the drain must be
clean, and no daemon may be left running.

Run it from the root of a checkout::

    PYTHONPATH=src PYTHONHASHSEED=0 python tests/service/daemon_soak.py

The store and socket live in a fresh temporary directory, so every run
starts cold.  Pytest does not collect this file; CI's service job runs
it.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from repro.core.serialize_bin import dumps_bin, loads_bin  # noqa: E402
from repro.engine import ResultCache, verify_many  # noqa: E402
from repro.service import ServiceClient  # noqa: E402
from repro.service.protocol import certificate_digest  # noqa: E402
from tests.conftest import (  # noqa: E402
    make_arbitrary_execution,
    make_coherent_execution,
)


def corpus():
    executions = []
    for i in range(40):
        ex, _ = make_coherent_execution(
            10 + (i % 17), 1 + (i % 4), seed=i,
            addresses=("x", "y")[: 1 + (i % 2)],
        )
        executions.append(ex)
    for i in range(60):
        executions.append(make_arbitrary_execution(seed=500 + i))
    return [loads_bin(dumps_bin(ex)) for ex in executions]


def offline_baseline(executions):
    """Per-request verify_many sharing one cache — the exact shape of a
    daemon campaign.  (A whole-corpus batch is the wrong baseline:
    dedup serves duplicates their representative's certificate.)"""
    cache = ResultCache()
    baseline = []
    for ex in executions:
        o = verify_many([ex], jobs=1, cache=cache, certify="strict")[0]
        digest = (certificate_digest(o.result)
                  if o.result is not None else None)
        baseline.append((o.verdict, digest["sha256"] if digest else None))
    return baseline


def boot(sock, extra, env=None):
    if os.path.exists(sock):
        os.unlink(sock)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--socket", sock, "--workers", "2",
         "--certify", "strict"] + extra,
        env={**os.environ, **(env or {})},
    )
    deadline = time.time() + 15
    while not os.path.exists(sock):
        assert time.time() < deadline, "socket never appeared"
        assert proc.poll() is None, "daemon died on boot"
        time.sleep(0.05)
    return proc


def soak(sock, store_dir, executions, baseline):
    """Phase 1: 200-request soak (cold pass + warm re-run), then a
    SIGTERM drain that must be clean."""
    proc = boot(sock, ["--store", store_dir])
    with ServiceClient(sock, timeout=120) as c:
        cold = [c.verify(ex, certify="strict", req_id=f"c{i}",
                         retries=100, retry_wait_s=0.02)
                for i, ex in enumerate(executions)]
        warm = [c.verify(ex, certify="strict", req_id=f"w{i}",
                         retries=100, retry_wait_s=0.02)
                for i, ex in enumerate(executions)]
    assert len(cold) + len(warm) >= 200
    for tag, resps in (("cold", cold), ("warm", warm)):
        for i, (resp, (verdict, sha)) in enumerate(zip(resps, baseline)):
            if verdict == "error":
                assert resp["status"] == "error", (tag, i, resp)
                continue
            assert resp["status"] == "ok", (tag, i, resp)
            assert resp["verdict"] == verdict, (tag, i, resp)
            if sha is not None:
                assert resp["certificate"]["sha256"] == sha, (tag, i)
    served = sum(r["provenance"].get("memory", 0)
                 + r["provenance"].get("store", 0) for r in warm)
    assert served >= len(warm), "warm pass was re-solved"
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=60) == 0, "drain was not clean"
    assert not os.path.exists(sock), "socket left behind"
    print(f"phase 1 ok: {len(cold) + len(warm)} requests, "
          f"warm tier-served {served}")


def chaos_drain(sock, executions, baseline):
    """Phase 2: crash chaos, retries=0, SIGTERM mid-campaign.  Every
    answer is the offline verdict or a machine-readable refusal —
    never a flipped verdict."""
    proc = boot(
        sock,
        ["--chaos", "crash=0.35,seed=7", "--retries", "0",
         "--queue-depth", "8", "--drain-grace", "2"],
        env={"REPRO_CHAOS": "1"},
    )
    matched = unknown = refused = dropped = 0
    for i, ex in enumerate(executions):
        if i == 70:
            proc.send_signal(signal.SIGTERM)
        try:
            with ServiceClient(sock, timeout=60) as c:
                resp = c.verify(ex, certify="strict", req_id=f"x{i}",
                                retries=30, retry_wait_s=0.02)
        except (ConnectionError, OSError):
            dropped += 1
            continue
        if resp["status"] == "shutdown":
            refused += 1
            assert resp["verdict"] == "UNKNOWN", resp
            assert resp["unknown_reason"] == "shutdown", resp
            assert resp["code"] == 3, resp
            continue
        if resp["status"] == "retry_after":
            refused += 1
            continue
        if resp["status"] == "error":
            assert baseline[i][0] == "error", (i, resp)
            continue
        assert resp["status"] == "ok", (i, resp)
        if resp["verdict"] == "UNKNOWN":
            unknown += 1
            assert resp["unknown_reason"], resp
            continue
        assert resp["verdict"] == baseline[i][0], (i, resp)
        matched += 1
    assert proc.wait(timeout=60) == 0, "chaos drain not clean"
    assert not os.path.exists(sock), "socket left after chaos"
    assert unknown > 0, "crash chaos never fired"
    assert refused + dropped > 0, "SIGTERM never bit"
    orphans = subprocess.run(
        ["pgrep", "-f", "repro.cli serve"],
        capture_output=True, text=True,
    )
    assert orphans.returncode != 0, f"orphans: {orphans.stdout}"
    print(f"phase 2 ok: matched={matched} unknown={unknown} "
          f"refused={refused} dropped={dropped}")


def main() -> None:
    executions = corpus()
    baseline = offline_baseline(executions)
    tmp = tempfile.mkdtemp(prefix="serve-soak-")
    try:
        sock = os.path.join(tmp, "repro-serve.sock")
        soak(sock, os.path.join(tmp, "store"), executions, baseline)
        chaos_drain(sock, executions, baseline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
