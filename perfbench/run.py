"""The repository benchmark: one workload per run, or all of them.

Single-workload form (one process; the last stdout line is the
result JSON)::

    python3 perfbench/run.py --workload table4-getpr --seed 1 --seconds 35 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run;
``--trace 1`` runs the workload in eight alternating untraced and traced
slices and reports per-layer metrics from the traced slices, plus
``trace.overhead_frac`` from the two kinds.

One-command form (every workload, untraced then traced, each in its own
process so ``peak_rss_mb`` is per workload)::

    python3 perfbench/run.py --all --seed 1 --seconds 35 [--out perfbench/results/all.json]

Run it from the repository root; it imports the program from ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: independent set-ups per run; ``setup_s`` is their median
SETUPS = 3

#: alternating untraced/traced slices of a ``--trace 1`` run
TRACE_SLICES = 8

#: the thesis's Table 4 (ms): total at the Virtualization layer, Mapping layer
THESIS_TABLE4 = {
    "HPL": (112.85, 81.8),
    "PRESTA-RMA": (358.49, 97.65),
    "SMG98": (74306.9, 66037.2),
}

LEDGER_LAYERS = ("client", "core", "wsdl", "soap", "xmlkit", "simnet", "ogsi", "mapping", "minidb")

#: per-layer metrics every workload reports (BENCHMARK.json ``per_layer``)
COMMON_LAYER_METRICS = (
    "xmlkit.parse.self_ms", "xmlkit.parse.bytes", "xmlkit.serialize.self_ms",
    "soap.rpc.self_ms", "wsdl.invoke.calls", "wsdl.invoke.self_ms", "simnet.send.calls",
    "ogsi.dispatch.self_ms", "ogsi.admission.wait_ms", "ogsi.gate.wait_ms",
    "core.service.self_ms", "mapping.self_ms", "minidb.execute.calls",
    "minidb.execute.self_ms", "minidb.rows_per_call", "client.self_ms",
    "trace.overhead_frac",
)

END_TO_END = ("setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms",
              "wire_bytes_per_op", "peak_rss_mb")


# ---------------------------------------------------------------- run record
def _git_sha() -> str:
    """HEAD's commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import SCALE

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
        "grid_scale": asdict(SCALE),
        "setups": SETUPS,
    }


# ------------------------------------------------------------------- metrics
def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(workload, result, setup_s: float, rss_mb: float) -> tuple[dict, dict]:
    """(gated metrics, extra metrics with their sample counts)."""
    done = [op for op in result.ops if op.error is None]
    latencies = [op.latency for op in done if op.kind in workload.latency_kinds]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(done) / result.busy_s, "1/s"),
        "latency_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "latency_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "wire_bytes_per_op": (result.wire_bytes / max(1, len(done)), "B"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    extra = {
        "failed_frac": (1 - len(done) / len(result.ops), "frac", len(result.ops)),
        "latency_samples": (len(latencies), "count", len(latencies)),
    }
    if len(latencies) >= 1000:
        extra["latency_p99_ms"] = (percentile(latencies, 99) * 1e3, "ms", len(latencies))
    streams = [op for op in done if op.kind == "stream"]
    if streams:
        extra["first_row_p50_ms"] = (
            percentile([op.first_row for op in streams], 50) * 1e3, "ms", len(streams))
        extra["stream_rows_per_s"] = (
            sum(op.rows for op in streams) / sum(op.latency for op in streams), "1/s",
            len(streams))
    writes = [op for op in done if op.kind == "write"]
    if writes:
        write_lat = [op.latency for op in writes]
        extra["write_p50_ms"] = (percentile(write_lat, 50) * 1e3, "ms", len(writes))
        extra["write_p90_ms"] = (percentile(write_lat, 90) * 1e3, "ms", len(writes))
        lags = [lag for op in writes for lag in op.lags.values()]
        if lags:
            extra["view_lag_p50_ms"] = (percentile(lags, 50) * 1e3, "ms", len(lags))
        extra["ingest_late_max_ms"] = (result.extra["late_s"] * 1e3, "ms", len(writes))
    return metrics, extra


def per_layer(tracer, ops: int, untraced_rate: float, traced_rate: float) -> dict:
    """Every per-layer metric, normalised per completed op."""
    totals = tracer.totals()
    zero = {"calls": 0, "self_s": 0.0, "dur_s": 0.0, "errors": 0, "amount": 0.0}

    def t(name):
        return totals.get(name, zero)

    def per_op(value):
        return value / max(1, ops)

    def self_ms(*names):
        return per_op(sum(t(n)["self_s"] for n in names) * 1e3)

    def ratio(name):
        entry = t(name)
        return entry["amount"] / entry["calls"] if entry["calls"] else 0.0

    mapping = [n for n in totals if n.startswith("mapping.")]
    waits = tracer.wait_totals()
    queue_count, queue_s = waits.get("fedquery.sched.queue_wait", (0, 0.0))
    out = {
        "xmlkit.parse.self_ms": (self_ms("xmlkit.parse"), "ms"),
        "xmlkit.parse.bytes": (per_op(t("xmlkit.parse")["amount"]), "B"),
        "xmlkit.serialize.self_ms": (self_ms("xmlkit.serialize"), "ms"),
        "soap.rpc.self_ms": (self_ms("soap.rpc"), "ms"),
        "soap.colbatch.self_ms": (self_ms("soap.colbatch"), "ms"),
        "soap.chunks.self_ms": (self_ms("soap.chunks"), "ms"),
        "wsdl.invoke.calls": (per_op(t("wsdl.invoke")["calls"]), "count"),
        "wsdl.invoke.self_ms": (self_ms("wsdl.invoke"), "ms"),
        "simnet.send.calls": (per_op(t("simnet.send")["calls"]), "count"),
        "ogsi.dispatch.self_ms": (self_ms("ogsi.dispatch"), "ms"),
        "ogsi.admission.wait_ms": (per_op(t("ogsi.admission")["dur_s"] * 1e3), "ms"),
        "ogsi.admission.shed": (per_op(t("ogsi.admission")["errors"]), "count"),
        "ogsi.gate.wait_ms": (per_op(t("ogsi.gate")["dur_s"] * 1e3), "ms"),
        "ogsi.cursor.next.calls": (per_op(t("ogsi.cursor.next")["calls"]), "count"),
        "core.service.self_ms": (self_ms("core.service"), "ms"),
        "core.prcache.hit_ratio": (ratio("core.prcache"), "ratio"),
        "core.data_updated.self_ms": (self_ms("core.data_updated"), "ms"),
        "mapping.self_ms": (self_ms(*mapping), "ms"),
        "mapping.get_pr.self_ms": (self_ms("mapping.get_pr"), "ms"),
        "mapping.get_pr_aggregate.self_ms": (self_ms("mapping.get_pr_aggregate"), "ms"),
        "mapping.iter_pr.self_ms": (self_ms("mapping.iter_pr"), "ms"),
        "mapping.get_stats.calls": (per_op(t("mapping.get_stats")["calls"]), "count"),
        "mapping.get_stats.self_ms": (self_ms("mapping.get_stats"), "ms"),
        "minidb.execute.calls": (per_op(t("minidb.execute")["calls"]), "count"),
        "minidb.execute.self_ms": (self_ms("minidb.execute"), "ms"),
        "minidb.rows_per_call": (ratio("minidb.execute"), "count"),
        "fedquery.parse.self_ms": (self_ms("fedquery.parse"), "ms"),
        "fedquery.plan.self_ms": (self_ms("fedquery.plan"), "ms"),
        "fedquery.execute.self_ms": (self_ms("fedquery.execute"), "ms"),
        "fedquery.plan_cache.hit_ratio": (ratio("fedquery.plan_cache"), "ratio"),
        "fedquery.sched.queue_wait_ms": (per_op(queue_s * 1e3), "ms"),
        "fedquery.sched.tasks": (per_op(queue_count), "count"),
        "fedquery.merge.self_ms": (self_ms("fedquery.merge"), "ms"),
        "fedquery.views.maintain_ms": (per_op(t("fedquery.views")["dur_s"] * 1e3), "ms"),
        "client.self_ms": (self_ms("client.op"), "ms"),
        "trace.overhead_frac": (1 - traced_rate / untraced_rate, "frac"),
    }
    for name, entry in sorted(totals.items()):
        if name.startswith("wsdl.invoke."):
            out[f"{name}.calls"] = (per_op(entry["calls"]), "count")
            out[f"{name}.self_ms"] = (per_op(entry["self_s"] * 1e3), "ms")
    return out


def table4_ledger(tracer, ops) -> tuple[dict, list[str]]:
    """Per-source self time per layer, and the thesis's two-column roll-up."""
    metrics: dict = {}
    lines = [
        "Table 4 ledger (traced run, ms per getPR; thesis values beside)",
        f"{'source':<11}" + "".join(f"{layer:>9}" for layer in LEDGER_LAYERS)
        + f"{'total':>9}{'virt.':>9}{'mapping':>9}{'ovh%':>6}"
        + f"{'thesis total':>14}{'mapping':>10}{'ovh%':>6}",
    ]
    for source, (paper_total, paper_mapping) in THESIS_TABLE4.items():
        count = sum(1 for op in ops if op.key.startswith(source + "|"))
        if not count:
            continue
        layers = tracer.layer_self(tag=source)
        per = {layer: layers.get(layer, 0.0) * 1e3 / count for layer in LEDGER_LAYERS}
        total = sum(layers.values()) * 1e3 / count
        mapping = per["mapping"] + per["minidb"]
        virtualization = total - mapping
        for layer, value in per.items():
            metrics[f"table4.{source}.{layer}.self_ms"] = (value, "ms")
        metrics[f"table4.{source}.total_ms"] = (total, "ms")
        metrics[f"table4.{source}.virtualization_ms"] = (virtualization, "ms")
        metrics[f"table4.{source}.mapping_ms"] = (mapping, "ms")
        lines.append(
            f"{source:<11}" + "".join(f"{per[layer]:>9.3f}" for layer in LEDGER_LAYERS)
            + f"{total:>9.3f}{virtualization:>9.3f}{mapping:>9.3f}"
            + f"{100 * virtualization / total:>5.0f}%"
            + f"{paper_total:>14.2f}{paper_mapping:>10.2f}"
            + f"{100 * (paper_total - paper_mapping) / paper_total:>5.0f}%"
        )
    return metrics, lines


# ------------------------------------------------------------------- one run
def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, spans_out: str | None) -> int:
    from tracer import Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    record = run_record(name, seed, seconds, trace)
    # installed before set-up, recording off: handlers bound while the
    # grid is built (the transport keeps bound methods) are wrapped too
    tracer = Tracer().install() if trace else None
    setup_times = []
    workload = None
    for _ in range(SETUPS):
        if workload is not None:
            workload.teardown()
            gc.collect()
        workload = cls()
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
    setup_s = statistics.median(setup_times)
    record["setup_samples_s"] = setup_times
    rng = random.Random(seed)
    failures: list[str] = []
    try:
        if not trace:
            result = workload.run(seconds, rng)
            rss = _peak_rss_mb()
            failures = workload.check(result)
            metrics, extra = end_to_end(workload, result, setup_s, rss)
            results = [result]
        else:
            # short untraced and traced slices alternate, so drift during
            # the run does not pass for tracing overhead
            workload.tracer = tracer
            engine = getattr(workload, "engine", None)
            if engine is not None:
                tracer.plan_caches.add(id(engine.plan_cache))
            plain, traced, invalidations = [], [], 0
            for phase in range(TRACE_SLICES):
                tracer.active = phase % 2 == 1
                before = engine.coherence_stats()["invalidations"] if engine else 0
                try:
                    result = workload.run(seconds / TRACE_SLICES, rng)
                finally:
                    tracer.active = False
                if phase % 2:
                    traced.append(result)
                    if engine is not None:
                        invalidations += engine.coherence_stats()["invalidations"] - before
                else:
                    plain.append(result)
                failures += workload.check(result)

            def done(runs):
                return [op for r in runs for op in r.ops if op.error is None]

            def rate(runs):
                return len(done(runs)) / sum(r.busy_s for r in runs)

            ops = done(traced)
            metrics = per_layer(tracer, len(ops), rate(plain), rate(traced))
            extra = {}
            if engine is not None:
                metrics["fedquery.coherence.invalidations"] = (
                    invalidations / max(1, len(ops)), "count")
            if name == "table4-getpr":
                ledger, lines = table4_ledger(tracer, ops)
                metrics.update(ledger)
                print("\n".join(lines))
            record["site_counts"] = tracer.site_counts()
            if spans_out:
                tracer.write(spans_out)
            results = plain + traced
    finally:
        workload.teardown()
        if tracer is not None:
            tracer.uninstall()
    attempted = sum(len(r.ops) for r in results)
    failed = sum(1 for r in results for op in r.ops if op.error is not None)
    record["samples"] = {
        kind: sum(1 for r in results for op in r.ops if op.kind == kind and op.error is None)
        for kind in sorted({op.kind for r in results for op in r.ops})
    }
    for name_, value in sorted({**metrics, **extra}.items()):
        count = f"  (n={value[2]})" if len(value) > 2 else ""
        print(f"{name_:<40} {value[0]:>14.4f} {value[1]}{count}")
    for failure in failures[:20]:
        print(f"CHECK FAILED: {failure}")
    errors = [op.error for r in results for op in r.ops if op.error is not None]
    for error in errors[:5]:
        print(f"OP FAILED: {error}")
    record["extra"] = {k: {"value": v[0], "unit": v[1], "samples": v[2]} for k, v in extra.items()}
    if trace:
        record["layers"] = {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()}
    print("record " + json.dumps(record, sort_keys=True))
    wanted = END_TO_END if not trace else COMMON_LAYER_METRICS
    correct = not failures and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in wanted},
    }))
    return 0 if correct else 1


# ------------------------------------------------------------- all workloads
def run_all(seed: int, seconds: float, out: str | None) -> int:
    from workloads import WORKLOADS

    combined = {}
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            print(f"== {name} trace={trace}", flush=True)
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                status = 1
            if not lines:
                continue
            record = next((json.loads(line[7:]) for line in lines if line.startswith("record ")), {})
            combined[f"{name}/trace={trace}"] = {"result": json.loads(lines[-1]), "record": record}
    if out:
        os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(combined, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print("ALL CHECKS PASSED" if status == 0 else "SOME RUN FAILED A CHECK")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload to run")
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --all: write every result and record here")
    parser.add_argument("--spans-out", help="with --trace 1: write every span here (TSV)")
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program sources at {src}/repro", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    if args.all:
        return run_all(args.seed, args.seconds, args.out)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} (or use --all)")
    # the grid's PRESTA text files go under the checkout, not the system temp
    tempfile.tempdir = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        return run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.spans_out
        )
    finally:
        shutil.rmtree(tempfile.tempdir, ignore_errors=True)
        tempfile.tempdir = None


if __name__ == "__main__":
    sys.exit(main())
