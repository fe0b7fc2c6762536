"""Serve under faults: a killed tenant finishes, co-tenants stay whole.

The manager owns one shared process engine; the server-side chaos plan
(``base_context.chaos``) genuinely kills a pool worker (``os._exit``)
mid-search.  Crash recovery must finish the killed tenant's session
with results identical to a clean run, serve a co-tenant untouched
while the server reports ``degraded``, and record the crash details in
``/healthz`` (see ``test_manager.py`` for the clean-path suite).
"""

import time

import pytest

from repro.core.context import ExecutionContext
from repro.serve import SessionManager
from repro.telemetry.metrics import get_registry

#: the killed tenant searches with pbt: its population dispatches a whole
#: batch to the shared process pool, so chaos index 2 is always evaluated
#: by a real worker process (single-task rs batches run inline instead)
KILLED_SPEC = {"dataset": "blood", "algorithm": "pbt", "max_trials": 8,
               "seed": 3, "scale": 0.5, "tenant": "alpha"}
COTENANT_SPEC = {"dataset": "blood", "max_trials": 4, "seed": 4,
                 "scale": 0.5, "tenant": "beta"}


def _wait_for(condition, *, timeout=120.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {message}")


def _wait_settled(manager, session_id, *, timeout=120.0):
    _wait_for(
        lambda: manager.status(session_id)["status"]
        not in ("queued", "running"),
        timeout=timeout, message=f"{session_id} to settle",
    )
    return manager.status(session_id)


@pytest.fixture(autouse=True)
def _reset_registry():
    get_registry().reset()
    yield
    get_registry().reset()


def _make_manager(tmp_path, *, chaos=None):
    return SessionManager(
        state_dir=tmp_path / "state",
        max_sessions=2,
        base_context=ExecutionContext(backend="process", n_jobs=2,
                                      chaos=chaos),
    )


def _run_clean_reference(tmp_path):
    manager = _make_manager(tmp_path)
    try:
        status = _wait_settled(manager, manager.submit(dict(KILLED_SPEC)))
        assert status["status"] == "done"
        health = manager.healthz()
        assert health["status"] == "ok"
        assert "last_crash" not in health
        return status["best_accuracy"]
    finally:
        manager.shutdown()


@pytest.mark.slow
class TestCrashedTenantIsolation:
    def test_killed_tenant_finishes_and_cotenant_is_untouched(self, tmp_path):
        reference_best = _run_clean_reference(tmp_path / "clean")

        manager = _make_manager(tmp_path / "chaos", chaos="crash@2")
        try:
            # Dispatch index 2 lands in alpha's first pbt batch: its pool
            # worker is genuinely killed (os._exit) mid-evaluation.
            killed = _wait_settled(manager,
                                   manager.submit(dict(KILLED_SPEC)))
            assert killed["status"] == "done", killed
            assert killed["trials"] == KILLED_SPEC["max_trials"]
            # Non-sticky faults fire once: the recovered run converges to
            # the clean run's results bit-for-bit.
            assert killed["best_accuracy"] == reference_best

            health = manager.healthz()
            assert health["status"] == "degraded"
            assert health["last_crash"]["kind"] == "worker_crash"
            assert health["last_crash"]["time"] > 0
            assert get_registry().counter("engine.worker_crashes").value == 1

            # Degraded means "a crash was recovered", not "stop serving":
            # a co-tenant submitted afterwards runs to completion on the
            # same rebuilt shared engine, untouched by the spent plan.
            cotenant = _wait_settled(manager,
                                     manager.submit(dict(COTENANT_SPEC)))
            assert cotenant["status"] == "done", cotenant
            assert cotenant["trials"] == COTENANT_SPEC["max_trials"]
            assert all(trial.failure_kind is None for trial in
                       manager._sessions[cotenant["session_id"]]
                       .session.result.trials)

            health = manager.healthz()
            assert health["status"] == "degraded"  # sticky by design
            assert health["sessions"].get("done") == 2
        finally:
            manager.shutdown()

    def test_inline_crashes_degrade_health_too(self, tmp_path):
        # rs dispatches single-task batches: the lone task still goes to
        # the shared pool, its worker really dies, and the crash is
        # recovered and still surfaces in /healthz.
        manager = _make_manager(tmp_path, chaos="crash@0")
        try:
            status = _wait_settled(manager,
                                   manager.submit(dict(COTENANT_SPEC)))
            assert status["status"] == "done"
            health = manager.healthz()
            assert health["status"] == "degraded"
            assert health["last_crash"]["kind"] == "worker_crash"
        finally:
            manager.shutdown()
        assert manager.healthz()["status"] == "shutdown"
