"""Program defects the benchmark's checks can hit, reproduced directly.

Each test is an expected failure until the program is fixed; ``strict``
turns the fix into a failing test here, so the marker is removed with it.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.semantic import UNDEFINED_TYPE
from repro.experiments.common import GridScale, build_grid


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ExecutionService caches a getPRAgg answer computed before a concurrent "
    "data_updated() after that update cleared the cache, so the stale answer "
    "is served until the next update; fed-dashboard-ingest's oracle check "
    "fails when a member recompute overlaps a write to the same execution"
))
def test_pr_cache_never_keeps_an_answer_older_than_an_update():
    grid = build_grid(GridScale.tiny())
    try:
        execution = next(e for e in grid.bind("SMG98").all_executions()
                         if e.info()["execid"] == "1")
        service = grid.execution_service("SMG98", "1")
        wrapper = service.wrapper
        original = wrapper.get_pr_aggregate
        computed, release = threading.Event(), threading.Event()
        before = []

        def slow(*args, **kwargs):
            answer = original(*args, **kwargs)  # read before the write lands
            before.extend(record.pack() for record in answer)
            computed.set()
            release.wait(5)
            return answer

        t0, t1 = execution.time_range()
        args = ("time_spent", ["/Code/MPI/MPI_Allreduce"], repr(t0), repr(t1),
                UNDEFINED_TYPE, "", "", "")
        wrapper.get_pr_aggregate = slow
        reader = threading.Thread(target=service.getPRAgg, args=args)
        reader.start()
        # the repro's own steps raise RuntimeError, so only the stale
        # answer below counts as the expected failure
        if not computed.wait(5):
            raise RuntimeError("the member computation never ran")
        conn = grid.sites["SMG98"].wrapper.conn
        funcid = conn.execute(
            "SELECT funcid FROM functions WHERE name = 'MPI_Allreduce'").scalar()
        procid = conn.execute("SELECT procid FROM processes WHERE execid = 1").fetchall()[0][0]
        conn.execute(
            "INSERT INTO intervals (intervalid, execid, procid, funcid, start_ts, end_ts) "
            "VALUES (?, ?, ?, ?, ?, ?)", [10**6, 1, procid, funcid, 1.0, 1.5])
        service.data_updated("concurrent write")
        release.set()
        reader.join(5)
        if reader.is_alive():
            raise RuntimeError("the concurrent getPRAgg never returned")
        wrapper.get_pr_aggregate = original
        fresh = original("time_spent", ["/Code/MPI/MPI_Allreduce"], t0, t1,
                         UNDEFINED_TYPE, None, None, "")
        expected = [record.pack() for record in fresh]
        if expected == before:
            raise RuntimeError("the write did not change the answer")
        served = service.getPRAgg(*args)
        assert served == expected, (
            "getPRAgg served the answer computed before data_updated()")
    finally:
        grid.environment.close()
        grid.cleanup()
