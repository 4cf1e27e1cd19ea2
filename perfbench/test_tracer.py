"""Self-tests of the benchmark's tracer.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

from run import ROOT, TRACE_SLICES
from tracer import Target, Tracer
from workloads import WORKLOADS, WRITE_CYCLE, digest, rows_match

#: binding sites each workload must enter at least once
EXPECTED_SITES = {
    "table4-getpr": (
        "repro.core.client.ExecutionBinding.get_pr",
        "repro.wsdl.stubgen.ClientStub.invoke",
        "repro.wsdl.stubgen.encode_request",
        "repro.wsdl.stubgen.decode_response",
        "repro.soap.envelope.parse",
        "repro.soap.envelope.serialize",
        "repro.simnet.transport.LoopbackTransport.send",
        "repro.ogsi.container.ServiceContainer.handle_request",
        "repro.ogsi.container.decode_request",
        "repro.ogsi.container.encode_response",
        "repro.ogsi.dispatch.AdmissionController.acquire",
        "repro.ogsi.dispatch.ServiceGate.acquire",
        "repro.core.execution.ExecutionService.getPR",
        "repro.core.execution.ExecutionService.getTimeStartEnd",
        "repro.core.prcache.PrCache.get",
        "repro.mapping.rdbms.HplRdbmsExecutionWrapper.get_pr",
        "repro.mapping.rdbms.Smg98ExecutionWrapper.get_pr",
        "repro.mapping.textfile.PrestaTextExecutionWrapper.get_pr",
        "repro.minidb.dbapi.Cursor.execute",
    ),
    "fed-adhoc": (
        "repro.core.client.PPerfGridClient.query",
        "repro.core.client.PPerfGridClient.query_stream",
        "repro.core.client.decode_chunk",
        "repro.ogsi.cursor.encode_chunk",
        "repro.ogsi.cursor.ResultCursorService.next",
        "repro.soap.colbatch.encode_batch",
        "repro.soap.colbatch.decode_batch",
        "repro.fedquery.executor.parse_query",
        "repro.fedquery.executor.plan_query",
        "repro.fedquery.executor.FederationEngine.execute",
        "repro.fedquery.executor.merge_streams",
        "repro.fedquery.scheduler.FanoutScheduler.submit",
        "repro.fedquery.merge.StreamingMerger.absorb_aggregates",
        "repro.core.execution.ExecutionService.getPRAgg",
        "repro.mapping.rdbms.HplRdbmsExecutionWrapper.get_pr_aggregate",
        "repro.mapping.rdbms.Smg98ExecutionWrapper.get_pr_aggregate",
    ),
    "fed-dashboard-ingest": (
        "repro.core.execution.ExecutionService.data_updated",
        "repro.core.execution.ExecutionService.getStats",
        "repro.fedquery.views.ViewMaintainer.on_update",
        "repro.fedquery.merge.StreamingMerger.absorb_groups",
        "repro.mapping.rdbms.Smg98ExecutionWrapper.get_stats",
    ),
}

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    RUN_SECONDS = json.load(_fh)["run_seconds"]

#: seconds per run: one table4 cycle, one query block per analyst, and
#: for the dashboard one slice of a traced run of the benchmark's length
SECONDS = {
    "table4-getpr": 1.0,
    "fed-adhoc": 1.0,
    "fed-dashboard-ingest": RUN_SECONDS / TRACE_SLICES,
}


def _run(name: str, tracer: Tracer | None):
    workload = WORKLOADS[name]()
    workload.setup()
    try:
        if tracer is not None:
            workload.tracer = tracer
            tracer.clear()
            tracer.active = True
        try:
            result = workload.run(SECONDS[name], random.Random(3))
        finally:
            if tracer is not None:
                tracer.active = False
        failures = workload.check(result)
    finally:
        workload.teardown()
    spans = None if tracer is None else (tracer.site_counts(), tracer.totals())
    return result, failures, spans


@pytest.fixture(scope="module")
def runs():
    """Each workload run untraced, then on a fresh grid traced."""
    out = {name: {"plain": _run(name, None)} for name in WORKLOADS}
    tracer = Tracer().install()
    try:
        for name in WORKLOADS:
            out[name]["traced"] = _run(name, tracer)
    finally:
        tracer.uninstall()
    return out


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_expected_site_records_spans(runs, name):
    counts, _totals = runs[name]["traced"][2]
    missed = [site for site in EXPECTED_SITES[name] if counts.get(site, 0) == 0]
    assert not missed, f"{name}: no spans at {missed}"


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_runs_pass_their_checks(runs, name):
    for kind in ("plain", "traced"):
        result, failures, _spans = runs[name][kind]
        assert not failures
        assert all(op.error is None for op in result.ops)


def test_fedquery_does_no_work_on_table4(runs):
    _counts, totals = runs["table4-getpr"]["traced"][2]
    assert not [name for name, entry in totals.items()
                if name.startswith("fedquery") and entry["calls"]]


def test_layers_used_are_nonzero(runs):
    adhoc = runs["fed-adhoc"]["traced"][2][1]
    assert adhoc["soap.colbatch"]["calls"] > 0
    assert adhoc["ogsi.cursor.next"]["calls"] > 0
    ingest = runs["fed-dashboard-ingest"]["traced"][2][1]
    assert ingest["core.data_updated"]["calls"] > 0
    assert ingest["fedquery.views"]["calls"] > 0


def test_traced_dashboard_slice_writes_both_stores(runs):
    """A slice of a traced run makes one whole write cycle, so its
    SMG98 insert and delete refresh that store's stats (full scans) and
    maintain the SMG98 view, as in an untraced run."""
    result, _failures, (counts, _totals) = runs["fed-dashboard-ingest"]["traced"]
    writes = [op for op in result.ops if op.kind == "write"]
    assert [op.key.split("|")[0] for op in writes] == list(WRITE_CYCLE)
    assert counts.get("repro.mapping.rdbms.Smg98ExecutionWrapper.get_stats", 0) > 0
    assert counts.get("repro.fedquery.views.ViewMaintainer.on_update", 0) >= len(writes)
    smg = [op for op in writes if op.key.startswith("smg-")]
    assert all("smg-by-procs" in op.lags for op in smg)


def test_answers_identical_traced_and_untraced(runs):
    """Table 4 answers and streamed rows are byte-identical; aggregates
    agree within float slack (fan-out order changes summation order)."""
    for name in ("table4-getpr", "fed-adhoc"):
        # both runs follow the same seeded plan; compare the ops both made
        plain = {op.key: op.answer for op in runs[name]["plain"][0].ops}
        traced = {op.key: op.answer for op in runs[name]["traced"][0].ops}
        shared = sorted(plain.keys() & traced.keys())
        assert shared
        exact = [k for k in shared if isinstance(plain[k], str)]
        assert digest([plain[k] for k in exact]) == digest([traced[k] for k in exact])
        for key in shared:
            if not isinstance(plain[key], str):
                assert rows_match(plain[key], traced[key]), key


def test_no_alias_escapes_wrapping():
    tracer = Tracer().install()
    try:
        originals = [orig for owner, _attr, orig in tracer._patches
                     if type(owner).__name__ == "module"]
        assert originals
        leftovers = [
            f"{mod_name}.{attr}"
            for mod_name, mod in list(sys.modules.items())
            if mod_name == "repro" or mod_name.startswith("repro.")
            for attr, value in vars(mod).items()
            if any(value is orig for orig in originals)
        ]
        assert not leftovers
    finally:
        tracer.uninstall()
    import repro.xmlkit
    import repro.xmlkit.parser

    assert repro.xmlkit.parse is repro.xmlkit.parser.parse
    assert not hasattr(repro.xmlkit.parse, "__wrapped__")


def test_wrappers_pass_values_and_exceptions_through():
    tracer = Tracer()
    sentinel = object()
    error = ValueError("boom")

    def outer(flag):
        return inner(flag)

    def raw_inner(flag):
        if flag:
            return sentinel
        raise error

    inner = tracer._wrap(Target("t.inner", "m", "inner"), "m.inner", raw_inner)
    wrapped = tracer._wrap(Target("t.outer", "m", "outer"), "m.outer", outer)
    tracer.active = True
    assert wrapped(True) is sentinel
    with pytest.raises(ValueError) as raised:
        wrapped(False)
    assert raised.value is error
    names = [(span[0], span[4], span[8]) for span in tracer.spans]
    assert names == [("t.inner", "t.outer", None), ("t.outer", None, None),
                     ("t.inner", "t.outer", "ValueError"), ("t.outer", None, "ValueError")]
    inner_span, outer_span = tracer.spans[0], tracer.spans[1]
    # self time of the parent excludes the child's whole duration
    assert outer_span[7] == pytest.approx(outer_span[6] - inner_span[6])


def test_iterator_spans_pass_items_and_close_through():
    tracer = Tracer()
    closed = []

    def produce():
        try:
            yield from (1, 2, 3)
        finally:
            closed.append(True)

    wrapped = tracer._wrap(Target("t.iter", "m", "produce", kind="iter"), "m.produce", produce)
    tracer.active = True
    iterator = wrapped()
    assert next(iterator) == 1
    iterator.close()
    assert closed == [True]
    assert list(wrapped()) == [1, 2, 3]
    # a span per call, per item and for the final, exhausted next
    assert sum(1 for span in tracer.spans if span[0] == "t.iter") == (1 + 1) + (1 + 4)
