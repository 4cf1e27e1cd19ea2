"""Outside-in layer tracer: spans around each layer's public entry points.

The program itself carries no spans yet, so the benchmark wraps the
public functions and methods of every layer from here, records one span
per call, and restores the originals afterwards.  A span holds its name
(``<layer>.<entry>``), the binding site it was entered through, the op
tag of the calling thread, its parent's name, start, duration, self time
and the exception type it raised, if any.

Self time is a span's duration minus the time its child spans on the
same thread cover.  Work handed to another thread (the federation's
fan-out pool) is not a child: the waiting parent keeps that wait in its
own self time, and the pool thread's spans are roots of their own.

Module-level functions are patched at every module that binds the same
object (``from repro.xmlkit import parse`` in ``soap.envelope`` as well
as the defining module), found by identity after importing every
``repro`` module, so a name imported by value cannot be missed.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One public entry point to wrap."""

    #: span name: ``<layer>.<entry>``; the layer is the first component
    name: str
    module: str
    #: ``function`` or ``Class.method``
    attr: str
    #: ``span`` times the call; ``iter`` also times every ``next`` of the
    #: iterator it returns; ``submit`` times a scheduler task's queue wait
    kind: str = "span"
    #: optional ``(args, result) -> float`` summed into the span's amount
    measure: Callable | None = None
    #: optional ``(args) -> str`` span detail (the WSDL operation name)
    detail: Callable | None = None


def _parsed_bytes(args, result) -> float:
    return float(len(args[0]))


def _rows_returned(args, result) -> float:
    return float(result.rowcount) if result.description is not None else 0.0


def _cache_hit(args, result) -> float:
    return 0.0 if result is None else 1.0


def _answered_from_cache(args, result) -> float:
    return 1.0 if getattr(result, "cached", False) else 0.0


def _operation(args) -> str:
    return str(args[1])


_FIXED_TARGETS = (
    Target("xmlkit.parse", "repro.xmlkit.parser", "parse", measure=_parsed_bytes),
    Target("xmlkit.serialize", "repro.xmlkit.writer", "serialize"),
    *(
        Target("soap.rpc", "repro.soap.rpc", name)
        for name in ("encode_request", "decode_request", "encode_response", "decode_response")
    ),
    Target("soap.colbatch", "repro.soap.colbatch", "encode_batch"),
    Target("soap.colbatch", "repro.soap.colbatch", "decode_batch"),
    Target("soap.chunks", "repro.soap.chunks", "encode_chunk"),
    Target("soap.chunks", "repro.soap.chunks", "decode_chunk"),
    Target("wsdl.invoke", "repro.wsdl.stubgen", "ClientStub.invoke", detail=_operation),
    Target("simnet.send", "repro.simnet.transport", "LoopbackTransport.send"),
    Target("ogsi.dispatch", "repro.ogsi.container", "ServiceContainer.handle_request"),
    Target("ogsi.admission", "repro.ogsi.dispatch", "AdmissionController.acquire"),
    Target("ogsi.gate", "repro.ogsi.dispatch", "ServiceGate.acquire"),
    Target("ogsi.cursor.next", "repro.ogsi.cursor", "ResultCursorService.next"),
    Target("core.client", "repro.core.client", "ExecutionBinding.get_pr"),
    Target("core.client", "repro.core.client", "PPerfGridClient.query"),
    Target("core.client", "repro.core.client", "PPerfGridClient.query_stream"),
    *(
        Target("core.service", "repro.core.execution", f"ExecutionService.{name}")
        for name in ("getPR", "getPRAgg", "getPRChunked", "getStats", "getTimeStartEnd")
    ),
    Target("core.data_updated", "repro.core.execution", "ExecutionService.data_updated"),
    Target("core.prcache", "repro.core.prcache", "PrCache.get", measure=_cache_hit),
    Target("minidb.execute", "repro.minidb.dbapi", "Cursor.execute", measure=_rows_returned),
    Target("fedquery.parse", "repro.fedquery.parser", "parse_query"),
    Target("fedquery.plan", "repro.fedquery.planner", "plan_query"),
    Target(
        "fedquery.execute", "repro.fedquery.executor", "FederationEngine.execute",
        measure=_answered_from_cache,
    ),
    Target("fedquery.sched", "repro.fedquery.scheduler", "FanoutScheduler.submit", kind="submit"),
    *(
        Target("fedquery.merge", "repro.fedquery.merge", f"StreamingMerger.{name}")
        for name in ("absorb_aggregates", "absorb_results", "absorb_groups")
    ),
    Target("fedquery.merge", "repro.fedquery.stream", "merge_streams", kind="iter"),
    *(
        Target("fedquery.views", "repro.fedquery.views", f"ViewMaintainer.{name}")
        for name in ("on_update", "on_member_update", "on_full_refresh")
    ),
)

#: mapping-layer entry points, wrapped on every wrapper class defining them
_MAPPING_METHODS = {
    "get_pr": "span",
    "get_pr_aggregate": "span",
    "iter_pr": "iter",
    "get_stats": "span",
}


def _import_all_repro_modules() -> None:
    """Import every ``repro`` module so identity scans see every alias."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        importlib.import_module(info.name)


def _subclasses(cls) -> list[type]:
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        out.append(current)
        todo.extend(current.__subclasses__())
    return out


def mapping_targets() -> list[Target]:
    """One target per mapping method a wrapper class defines itself.

    ``TimedExecutionWrapper`` only forwards to the store wrapper it
    decorates, so it is left to its caller's span; wrapping it too would
    count every mapping call twice.
    """
    from repro.mapping.base import ApplicationWrapper, ExecutionWrapper, TimedExecutionWrapper

    targets = []
    for base in (ApplicationWrapper, ExecutionWrapper):
        for cls in _subclasses(base):
            if cls is TimedExecutionWrapper:
                continue
            for method, kind in _MAPPING_METHODS.items():
                fn = cls.__dict__.get(method)
                if fn is None or getattr(fn, "__isabstractmethod__", False):
                    continue
                targets.append(
                    Target(f"mapping.{method}", cls.__module__, f"{cls.__name__}.{method}", kind)
                )
    return targets


_END = object()


class Tracer:
    """Records spans while installed and active; see the module docstring."""

    def __init__(self) -> None:
        #: (name, detail, site, tag, parent, start, duration, self, error, amount)
        self.spans: list[tuple] = []
        #: (name, tag, seconds) for time spent queued before a task started
        self.waits: list[tuple] = []
        self.active = False
        #: ids of federation plan caches: their ``PrCache.get`` spans are
        #: named ``fedquery.plan_cache`` instead of ``core.prcache``
        self.plan_caches: set[int] = set()
        #: every binding site patched, by site name -> span name
        self.sites: dict[str, str] = {}
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # --------------------------------------------------------------- control
    def install(self) -> "Tracer":
        _import_all_repro_modules()
        for target in [*_FIXED_TARGETS, *mapping_targets()]:
            self._install_target(target)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.active = False

    @contextmanager
    def paused(self):
        """Run a block (the correctness checks) with recording off."""
        previous, self.active = self.active, False
        try:
            yield
        finally:
            self.active = previous

    def set_tag(self, tag: str | None) -> None:
        """Tag the spans the calling thread records from now on."""
        self._local.tag = tag

    def clear(self) -> None:
        self.spans = []
        self.waits = []

    # ------------------------------------------------------------- patching
    def _install_target(self, target: Target) -> None:
        module = sys.modules[target.module]
        if "." in target.attr:
            cls_name, method = target.attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            site = f"{target.module}.{target.attr}"
            self._patch(cls, method, original, self._wrap(target, site, original))
            return
        original = getattr(module, target.attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    site = f"{mod_name}.{attr}"
                    self._patch(mod, attr, original, self._wrap(target, site, original))

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, target: Target, site: str, fn):
        self.sites[site] = target.name
        tracer = self
        name = target.name
        if target.kind == "submit":
            def traced_submit(scheduler, task, *args, **kwargs):
                if not tracer.active:
                    return fn(scheduler, task, *args, **kwargs)
                return tracer.call(
                    name, None, site, fn, (scheduler, tracer._queued(task)) + args, kwargs, None
                )
            return traced_submit

        measure, detail, iterates = target.measure, target.detail, target.kind == "iter"
        is_prcache = name == "core.prcache"

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_name = name
            if is_prcache and id(args[0]) in tracer.plan_caches:
                span_name = "fedquery.plan_cache"
            result = tracer.call(
                span_name, detail(args) if detail else None, site, fn, args, kwargs, measure
            )
            if iterates:
                return tracer._traced_iter(span_name, site, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------- recording
    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def call(self, name, detail, site, fn, args, kwargs, measure):
        """Run ``fn(*args, **kwargs)`` inside one span; returns its result
        and re-raises its exception unchanged."""
        stack = self._stack()
        frame = [0.0, name]
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._close(stack, frame, name, detail, site, start, perf_counter(),
                        type(exc).__name__, 0.0)
            raise
        end = perf_counter()
        amount = measure(args, result) if measure is not None else 0.0
        self._close(stack, frame, name, detail, site, start, end, None, amount)
        return result

    def _close(self, stack, frame, name, detail, site, start, end, error, amount) -> None:
        duration = end - start
        stack.pop()
        parent = None
        if stack:
            stack[-1][0] += duration
            parent = stack[-1][1]
        self.spans.append((
            name, detail, site, getattr(self._local, "tag", None), parent,
            start, duration, duration - frame[0], error, amount,
        ))

    def _traced_iter(self, name: str, site: str, iterator):
        """Time every ``next`` of *iterator* as its own span."""
        inner = iter(iterator)
        try:
            while True:
                if not self.active:
                    yield from inner
                    return
                item = self.call(name, None, site, next, (inner, _END), {}, None)
                if item is _END:
                    return
                yield item
        finally:
            close = getattr(inner, "close", None)
            if close is not None:
                close()

    def _queued(self, task):
        """Wrap a scheduler task to record its submit-to-start wait."""
        submitted = perf_counter()
        tag = getattr(self._local, "tag", None)

        def run_task():
            if self.active:
                self.waits.append(("fedquery.sched.queue_wait", tag, perf_counter() - submitted))
            previous = getattr(self._local, "tag", None)
            self._local.tag = tag
            try:
                return task()
            finally:
                self._local.tag = previous

        return run_task

    # ------------------------------------------------------------ reporting
    def site_counts(self) -> dict[str, int]:
        counts = dict.fromkeys(self.sites, 0)
        for span in self.spans:
            counts[span[2]] = counts.get(span[2], 0) + 1
        return counts

    def totals(self, tag: str | None = None) -> dict[str, dict[str, float]]:
        """Per span name (and ``wsdl.invoke.<op>`` detail): calls, self
        seconds, duration seconds, errors, amount; only *tag*'s spans if
        given."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "dur_s": 0.0, "errors": 0, "amount": 0.0}
        )
        for name, detail, _site, span_tag, _parent, _start, dur, self_s, error, amount in self.spans:
            if tag is not None and span_tag != tag:
                continue
            keys = (name,) if detail is None else (name, f"{name}.{detail}")
            for key in keys:
                entry = out[key]
                entry["calls"] += 1
                entry["self_s"] += self_s
                entry["dur_s"] += dur
                entry["amount"] += amount
                if error is not None:
                    entry["errors"] += 1
        return dict(out)

    def wait_totals(self) -> dict[str, tuple[int, float]]:
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for name, _tag, seconds in self.waits:
            out[name][0] += 1
            out[name][1] += seconds
        return {name: (count, total) for name, (count, total) in out.items()}

    def layer_self(self, tag: str | None = None) -> dict[str, float]:
        """Self seconds summed per layer (first component of the name)."""
        out: dict[str, float] = defaultdict(float)
        for name, _detail, _site, span_tag, _p, _st, _d, self_s, _e, _a in self.spans:
            if tag is None or span_tag == tag:
                out[name.split(".", 1)[0]] += self_s
        return dict(out)

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line (after the run)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tdetail\tsite\ttag\tparent\tstart\tduration\tself\terror\tamount\n")
            for span in self.spans:
                fh.write("\t".join("" if v is None else str(v) for v in span) + "\n")
