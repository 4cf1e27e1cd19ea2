"""The benchmark's three workloads over one reduced-scale grid.

Each workload builds its own grid (``setup``), drives it for a number of
seconds (``run``) and then checks every answer it collected (``check``),
outside the timed region.  Inputs come only from the seed; the program
under test receives only the generated calls and query texts.

* ``table4-getpr`` — the thesis's Table 4 arm: direct
  ``ExecutionBinding.get_pr`` calls, PR caching off, no federation.
* ``fed-adhoc`` — two closed-loop analysts sending unique federated
  queries (aggregates pushed down as getPRAgg, raw selects streamed).
* ``fed-dashboard-ingest`` — a closed-loop dashboard reader over a fixed
  query set with two subscribed views, against an open-loop ingest feed.
"""

from __future__ import annotations

import hashlib
import math
import random
import threading
import time
from dataclasses import dataclass, field

from repro.core.client import LocalApplicationBinding, PPerfGridClient
from repro.core.semantic import UNDEFINED_TYPE, PerformanceResult
from repro.experiments.common import GridScale, build_grid
from repro.fedquery import naive_query
from repro.fedquery.merge import ResultRow
from repro.fedquery.parser import parse_query
from repro.fedquery.service import FEDERATED_QUERY_PORTTYPE
from repro.ogsi.dispatch import client_id_headers
from repro.simnet.transport import Endpoint

#: all 124 HPL runs and 32 PRESTA-RMA runs; SMG98 shrunk from 30 x
#: 12,000 intervals so a grid builds in about a second while SMG98 stays
#: the slow, large store (getPR: SMG98 ~ 40 ms > RMA ~ 9 ms > HPL ~ 2 ms)
SCALE = GridScale(
    hpl_executions=124,
    smg98_executions=6,
    smg98_intervals=3000,
    smg98_messages=500,
    presta_executions=32,
)

#: per-source getPR arguments of the thesis's Table 4 measurement
TABLE4_PLANS = {
    "HPL": ("gflops", ["/Run"]),
    "PRESTA-RMA": (
        "bandwidth_mbps",
        ["/Op/MPI_Put", "/Op/MPI_Get", "/Op/MPI_Accumulate", "/Op/MPI_Send", "/Op/MPI_Isend"],
    ),
    "SMG98": ("time_spent", ["/Code/MPI/MPI_Allgather"]),
}

#: calls per source in one cycle: the thesis's 100 HPL : 100 RMA : 30 SMG98
TABLE4_MIX = {"HPL": 100, "PRESTA-RMA": 100, "SMG98": 30}


def digest(packed: list[str]) -> str:
    return hashlib.blake2b("\x1f".join(packed).encode(), digest_size=16).hexdigest()


def rows_match(left: list[str], right: list[str]) -> bool:
    """Packed result rows equal, floats within 1e-9 relative (SQL sums
    and Python sums add in different orders)."""
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if a == b:
            continue
        ra, rb = ResultRow.unpack(a), ResultRow.unpack(b)
        if ra.columns != rb.columns:
            return False
        for va, vb in zip(ra.values, rb.values):
            if isinstance(va, float) or isinstance(vb, float):
                if not math.isclose(float(va), float(vb), rel_tol=1e-9, abs_tol=1e-12):
                    return False
            elif va != vb:
                return False
    return True


@dataclass
class Op:
    """One operation the load loop issued, with what its check needs."""

    kind: str
    #: perf_counter when the op was due (open loop) or issued (closed loop)
    due: float
    latency: float = 0.0
    key: str = ""
    #: digest or packed rows kept for the check
    answer: object = None
    first_row: float | None = None
    rows: int = 0
    #: end of the op (perf_counter)
    end: float = 0.0
    error: str | None = None
    #: view name -> lag seconds (ingest writes only)
    lags: dict = field(default_factory=dict)


@dataclass
class RunResult:
    ops: list[Op]
    #: wall seconds of the measured region, minus in-run check work
    busy_s: float
    wire_bytes: int
    extra: dict = field(default_factory=dict)


class _Memo:
    """Memoizing proxy over a local binding: the oracle's store reads.

    ``naive_query`` re-fetches every execution's results for every
    query; the stores do not change while the oracle runs, so repeating
    a read with the same arguments returns the first answer.  Results
    pass through their wire form (times travel with 9 decimals), so the
    oracle sees what any remote client of the store sees.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self._cache: dict = {}

    def __getattr__(self, name):
        value = getattr(self._inner, name)
        if not callable(value):
            return value

        def call(*args):
            key = (name, *(tuple(a) if isinstance(a, list) else a for a in args))
            if key not in self._cache:
                result = value(*args)
                if name == "all_executions":
                    result = [_Memo(execution) for execution in result]
                elif name == "get_pr":
                    result = [PerformanceResult.unpack(pr.pack()) for pr in result]
                self._cache[key] = result
            return self._cache[key]

        return call


def oracle_members(grid) -> dict[str, _Memo]:
    """Local, memoized bindings to every store, for ``naive_query``."""
    return {
        name: _Memo(LocalApplicationBinding(grid.environment, site.wrapper, name))
        for name, site in grid.sites.items()
    }


def _service_for(grid, binding):
    endpoint = Endpoint.parse(binding.gsh)
    return grid.environment.container_for(endpoint.authority).service_at(endpoint.path)


class Workload:
    name = ""
    #: end-to-end latency metrics are reported for ops of these kinds
    latency_kinds: tuple[str, ...] = ()

    def __init__(self) -> None:
        self.grid = None
        #: set by the runner when the run is traced
        self.tracer = None

    def teardown(self) -> None:
        if self.grid is not None:
            self.grid.environment.close()
            self.grid.cleanup()
            self.grid = None

    def _paused(self):
        if self.tracer is None:
            from contextlib import nullcontext

            return nullcontext()
        return self.tracer.paused()

    def _root(self, fn, *args):
        """Run one op under a ``client.op`` root span when traced, so the
        load loop's own share of the time shows in the layer ledger."""
        if self.tracer is None or not self.tracer.active:
            return fn(*args)
        return self.tracer.call("client.op", None, "perfbench", fn, args, {}, None)


# --------------------------------------------------------------- table4-getpr
class Table4GetPR(Workload):
    name = "table4-getpr"
    latency_kinds = ("getpr",)

    def setup(self) -> None:
        self.grid = build_grid(SCALE, caching=False)
        self.executions = {
            source: self.grid.bind(source).all_executions() for source in TABLE4_PLANS
        }
        # fill lazy stubs and service instances: one call per execution
        for source, executions in self.executions.items():
            metric, foci = TABLE4_PLANS[source]
            for execution in executions:
                execution.get_pr(metric, foci, result_type=UNDEFINED_TYPE)

    def cycle(self, rng: random.Random) -> list[tuple[str, int]]:
        """One seeded cycle: the thesis's mix, each source cycling over
        its executions in a seeded order, interleaved at random."""
        slots: list[tuple[str, int]] = []
        for source, count in TABLE4_MIX.items():
            n = len(self.executions[source])
            order = rng.sample(range(n), n)
            slots.extend((source, order[i % n]) for i in range(count))
        rng.shuffle(slots)
        return slots

    def run(self, seconds: float, rng: random.Random) -> RunResult:
        recorder = self.grid.environment.recorder
        bytes_before = recorder.bytes_total
        ops: list[Op] = []
        side = 0.0
        start = time.perf_counter()
        # whole cycles only, so every run keeps the exact mix
        while time.perf_counter() - start < seconds:
            for source, index in self.cycle(rng):
                metric, foci = TABLE4_PLANS[source]
                execution = self.executions[source][index]
                if self.tracer is not None:
                    self.tracer.set_tag(source)
                op = Op("getpr", time.perf_counter(), key=f"{source}|{index}")
                try:
                    results = self._root(
                        execution.get_pr, metric, foci, None, None, UNDEFINED_TYPE
                    )
                    op.end = time.perf_counter()
                    op.rows = len(results)
                    op.answer = digest([pr.pack() for pr in results])
                    side += time.perf_counter() - op.end
                except Exception as exc:  # the op failed: count it, keep driving
                    op.end = time.perf_counter()
                    op.error = f"{type(exc).__name__}: {exc}"
                op.latency = op.end - op.due
                ops.append(op)
        if self.tracer is not None:
            self.tracer.set_tag(None)
        elapsed = time.perf_counter() - start
        return RunResult(ops, elapsed - side, recorder.bytes_total - bytes_before)

    def check(self, result: RunResult) -> list[str]:
        """Every packed getPR answer equals the mapping layer's own."""
        expected: dict[str, str] = {}
        failures = []
        for op in result.ops:
            if op.error is not None:
                continue
            if op.key not in expected:
                source, index = op.key.split("|")
                metric, foci = TABLE4_PLANS[source]
                service = _service_for(self.grid, self.executions[source][int(index)])
                wrapper = self.grid.sites[source].wrapper.execution(service.exec_id)
                t0, t1 = wrapper.get_time_start_end()
                direct = wrapper.get_pr(metric, list(foci), t0, t1, UNDEFINED_TYPE)
                expected[op.key] = digest([pr.pack() for pr in direct])
            if op.answer != expected[op.key]:
                op.error = f"getPR answer for {op.key} differs from the mapping layer's"
                failures.append(op.error)
        return failures


# ------------------------------------------------------------------ fed-adhoc
#: one block of query shapes; every analyst runs whole shuffled blocks,
#: so each run keeps this exact mix (6 pushed-down aggregates : 3 streams).
#: Each shape fixes how many executions and foci it touches; the seed
#: picks which ones, the value bounds and the time window.  Every shape
#: costs 75-200 ms alone, so the median lands where latencies are dense.
ADHOC_SHAPES = ("agg-hpl", "agg-rma", "agg-smg", "all-hpl", "all-rma", "all-smg",
                "raw-hpl", "raw-rma", "raw-smg")

ANALYSTS = 2


class _Vocabulary:
    """What the generator draws from: per-member params, foci, values."""

    def __init__(self, grid) -> None:
        self.params: dict[str, dict[str, list[str]]] = {}
        self.foci: dict[str, list[str]] = {}
        self.exec_ids: dict[str, list[str]] = {}
        self.values: dict[str, list[float]] = {}
        #: latest end time of any execution, per member
        self.end_max: dict[str, float] = {}
        for app, site in grid.sites.items():
            wrapper = site.wrapper
            self.params[app] = wrapper.get_exec_query_params()
            self.exec_ids[app] = wrapper.get_all_exec_ids()
            first = wrapper.execution(self.exec_ids[app][0])
            self.foci[app] = first.get_foci()
            self.end_max[app] = max(
                wrapper.execution(exec_id).get_time_start_end()[1]
                for exec_id in self.exec_ids[app]
            )
        self.code_foci = [f for f in self.foci["SMG98"] if f.startswith("/Code/")]
        samples = {
            "HPL": ("gflops", self.exec_ids["HPL"], ["/Run"]),
            "PRESTA-RMA": ("bandwidth_mbps", self.exec_ids["PRESTA-RMA"][:8], None),
            "SMG98": ("time_spent", self.exec_ids["SMG98"][:1], self.foci["SMG98"][:4]),
        }
        for app, (metric, ids, foci) in samples.items():
            values: list[float] = []
            for exec_id in ids:
                execution = grid.sites[app].wrapper.execution(exec_id)
                t0, t1 = execution.get_time_start_end()
                results = execution.get_pr(
                    metric, foci or execution.get_foci(), t0, t1, UNDEFINED_TYPE
                )
                values.extend(pr.value for pr in results)
            self.values[metric] = sorted(values)

    def quantile(self, metric: str, q: float) -> float:
        values = self.values[metric]
        return values[min(len(values) - 1, int(q * len(values)))]


def _quote(text: str) -> str:
    return f"'{text}'"


class AdhocGenerator:
    """Seeded query texts, one shape at a time; every text is unique."""

    METRIC = {"hpl": ("HPL", "gflops"), "rma": ("PRESTA-RMA", "bandwidth_mbps"),
              "smg": ("SMG98", "time_spent")}
    GROUP_KEYS = {"HPL": ("numprocs", "nb"), "PRESTA-RMA": ("focus", "numprocs"),
                  "SMG98": ("numprocs", "focus", "exec")}

    def __init__(self, vocab: _Vocabulary, rng: random.Random, seen: set[str]) -> None:
        self.vocab = vocab
        self.rng = rng
        self.seen = seen

    def blocks(self):
        while True:
            block = list(ADHOC_SHAPES)
            self.rng.shuffle(block)
            yield block

    def make(self, shape: str) -> str:
        while True:
            text = self._make(shape)
            if text not in self.seen:
                self.seen.add(text)
                return text

    def _bounds(self, metric: str) -> list[str]:
        """Inclusive value bounds keeping roughly the middle of the data;
        the jitter inside the gap to the next sample keeps texts unique."""
        lo = self.vocab.quantile(metric, self.rng.uniform(0.05, 0.2))
        hi = self.vocab.quantile(metric, self.rng.uniform(0.8, 0.95))
        lo *= 1 - self.rng.uniform(0, 1e-6)
        hi *= 1 + self.rng.uniform(0, 1e-6)
        return [f"value >= {lo!r}", f"value <= {hi!r}"]

    def _pick(self, attr: str, values: list[str]) -> str:
        return f"{attr} = {_quote(self.rng.choice(values))}"

    def _code_focus(self) -> str:
        """One ``/Code`` focus.  SMG98 answers each focus with one SQL
        aggregate that scans every interval (no index on the execution),
        so an aggregate over all 30 foci costs seconds at this scale."""
        return self._pick("focus", self.vocab.code_foci)

    def _items(self, metric: str) -> str:
        funcs = self.rng.sample(("count", "sum", "mean", "min", "max"), 2)
        return ", ".join(f"{f}({metric})" for f in funcs)

    def _make(self, shape: str) -> str:
        rng, vocab = self.rng, self.vocab
        kind, member = shape.split("-")
        app, metric = self.METRIC[member]
        if kind == "all":
            # no FROM: all three members are planned; the two without the
            # metric drop out (from their stats, or from their catalog for
            # the HPL-only machine attribute)
            where = self._bounds(metric)
            if app == "HPL":  # about a third of the 124 runs
                where.append(self._pick("machine", vocab.params[app]["machine"]))
            elif app == "SMG98":  # one focus of each of the 6 runs
                where.append(self._code_focus())
            return f"SELECT {self._items(metric)} WHERE {' AND '.join(where)} GROUP BY app"
        if kind == "agg":
            where = self._bounds(metric)
            if app == "HPL":
                where.append(self._pick("machine", vocab.params[app]["machine"]))
            elif app == "PRESTA-RMA":  # all 32 runs, one operation
                where.append(self._pick("focus", vocab.foci[app]))
            else:
                where.append(self._code_focus())
            return (f"SELECT {self._items(metric)} FROM {app} WHERE {' AND '.join(where)} "
                    f"GROUP BY {rng.choice(self.GROUP_KEYS[app])}")
        # raw selects: a value floor keeping about the top 30% of the
        # data, and a time window ending near the data's end, so the
        # members' getPR cache keys never repeat either
        floor = vocab.quantile(metric, rng.uniform(0.65, 0.75)) * (1 - rng.uniform(0, 1e-6))
        end = vocab.end_max[app] * rng.uniform(0.9, 1.1)
        where = [f"value > {floor!r}", f"end <= {end!r}"]
        if app == "HPL":
            where.append(self._pick("machine", vocab.params[app]["machine"]))
        elif app == "PRESTA-RMA":
            where.append(self._pick("focus", vocab.foci[app]))
        else:
            mpi = [f for f in vocab.foci[app] if f.startswith("/Code/MPI/")]
            where.append(self._pick("focus", mpi))
            where.append(self._pick("exec", vocab.exec_ids[app]))
        return f"SELECT {metric} FROM {app} WHERE {' AND '.join(where)}"


class FedAdhoc(Workload):
    name = "fed-adhoc"
    latency_kinds = ("agg", "stream")

    def setup(self) -> None:
        grid = self.grid = build_grid(SCALE)
        self.engine = grid.deploy_federation()
        self.clients = []
        for analyst in range(ANALYSTS):
            client = PPerfGridClient(grid.environment, grid.uddi_gsh)
            # each analyst stamps its own clientId, so admission control
            # and the fan-out scheduler see two tenants
            client._fed_stub = grid.environment.stub_for_handle(
                grid.fed_gsh, FEDERATED_QUERY_PORTTYPE,
                headers_provider=client_id_headers(f"analyst-{analyst}"),
            )
            self.clients.append(client)
        # warm-up: member stats for planning, bindings, the cursor path
        warm = self.clients[0]
        for text in ("SELECT count(gflops) GROUP BY app",
                     "SELECT count(bandwidth_mbps) GROUP BY app",
                     "SELECT count(time_spent) WHERE focus = '/Code/MPI/MPI_Allreduce' GROUP BY app"):
            warm.query(text)
        for text in ("SELECT gflops FROM HPL WHERE value > 1.0",
                     "SELECT bandwidth_mbps FROM PRESTA-RMA WHERE focus = '/Op/MPI_Put'",
                     "SELECT time_spent FROM SMG98 WHERE focus = '/Code/MPI/MPI_Allreduce'"):
            for _ in warm.query_stream(text):
                pass

    def run(self, seconds: float, rng: random.Random) -> RunResult:
        with self._paused():
            vocab = _Vocabulary(self.grid)
        seen: set[str] = set()
        generators = [
            AdhocGenerator(vocab, random.Random(rng.getrandbits(64)), seen)
            for _ in range(ANALYSTS)
        ]
        # pre-generate enough texts so generation never runs in the timed loop
        plans = []
        for gen in generators:
            blocks = gen.blocks()
            plans.append([[(s, gen.make(s)) for s in next(blocks)] for _ in range(400)])
        recorder = self.grid.environment.recorder
        bytes_before = recorder.bytes_total
        results: list[list[Op]] = [[] for _ in range(ANALYSTS)]
        start = time.perf_counter()
        deadline = start + seconds

        def analyst(index: int) -> None:
            client = self.clients[index]
            for block in plans[index]:
                if time.perf_counter() >= deadline:
                    return
                for shape, text in block:
                    results[index].append(self._root(self._one, client, shape, text))

        threads = [threading.Thread(target=analyst, args=(i,), name=f"analyst-{i}")
                   for i in range(ANALYSTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        ops = [op for per in results for op in per]
        return RunResult(ops, elapsed, recorder.bytes_total - bytes_before)

    @staticmethod
    def _one(client, shape: str, text: str) -> Op:
        stream = shape.startswith("raw")
        op = Op("stream" if stream else "agg", time.perf_counter(), key=text)
        try:
            if stream:
                packed = []
                for row in client.query_stream(text):
                    if op.first_row is None:
                        op.first_row = time.perf_counter() - op.due
                    packed.append(row.pack())
            else:
                packed = [row.pack() for row in client.query(text)]
            op.end = time.perf_counter()
            op.rows = len(packed)
            # raw rows are compared exactly, aggregates within float slack
            op.answer = digest(packed) if stream else packed
        except Exception as exc:  # a failed op is counted, not retried
            op.end = time.perf_counter()
            op.error = f"{type(exc).__name__}: {exc}"
        op.latency = op.end - op.due
        if op.first_row is None:
            op.first_row = op.latency
        return op

    def check(self, result: RunResult) -> list[str]:
        """Rows equal the naive oracle's; streamed rows equal bulk rows."""
        members = oracle_members(self.grid)
        failures = []
        for op in result.ops:
            if op.error is not None:
                continue
            expected = [row.pack() for row in naive_query(op.key, members)]
            if op.kind == "stream":
                ok = op.answer == digest(expected)
                if ok:
                    # the stream memoized its rows: drop them so the bulk
                    # path computes the answer afresh
                    self.engine.plan_cache.remove(parse_query(op.key).fingerprint())
                    bulk = [row.pack() for row in self.clients[0].query(op.key)]
                    if digest(bulk) != op.answer:
                        op.error = f"streamed rows differ from bulk rows: {op.key}"
                else:
                    op.error = f"streamed rows differ from the oracle: {op.key}"
            elif not rows_match(op.answer, expected):
                op.error = f"rows differ from the oracle: {op.key}"
            if op.error is not None:
                failures.append(op.error)
        return failures


# ------------------------------------------------------- fed-dashboard-ingest
#: the SMG98 execution the ingest feed inserts into and deletes from
SMG98_WRITE_EXEC = 2

VIEWS = {
    "hpl-by-machine": (
        "SELECT count(gflops), sum(gflops), max(gflops) FROM HPL "
        "WHERE numprocs = '16' GROUP BY machine"
    ),
    "smg-by-procs": (
        "SELECT count(time_spent), sum(time_spent) FROM SMG98 "
        "WHERE focus IN ('/Code/MPI/MPI_Allreduce', '/Code/MPI/MPI_Waitall') GROUP BY numprocs"
    ),
}

#: the fixed dashboard; the first two read the views' own query texts
DASHBOARD = (
    VIEWS["hpl-by-machine"],
    VIEWS["smg-by-procs"],
    "SELECT mean(bandwidth_mbps), max(bandwidth_mbps) FROM PRESTA-RMA GROUP BY network",
    "SELECT count(time_spent), max(time_spent) WHERE focus = '/Code/MPI/MPI_Allreduce' GROUP BY app",
    "SELECT gflops FROM HPL WHERE numprocs = '16' ORDER BY value DESC LIMIT 10",
    f"SELECT sum(time_spent), count(time_spent) FROM SMG98 WHERE exec = '{SMG98_WRITE_EXEC}' "
    "AND focus IN "
    "('/Code/MPI/MPI_Allreduce', '/Code/MPI/MPI_Isend', '/Code/SMG/smg_relax') GROUP BY focus",
)

#: ingest feed rate (writes per second, open loop)
WRITE_RATE = 1.0

#: one write cycle; the store is back in its starting state after it.
#: A run makes whole cycles only, so no run ends between a change and
#: its undo, and every run (a traced slice too) writes both stores.
WRITE_CYCLE = ("hpl-set", "hpl-revert", "smg-insert", "smg-delete")

#: a write whose view never catches up within this is a failed write
VIEW_LAG_LIMIT_S = 10.0


class FedDashboardIngest(Workload):
    name = "fed-dashboard-ingest"
    latency_kinds = ("read",)

    def setup(self) -> None:
        grid = self.grid = build_grid(SCALE)
        self.engine = grid.deploy_federation()
        self.view_ids = {name: grid.client.create_view(text) for name, text in VIEWS.items()}
        self.replicas = {
            name: grid.client.subscribe_view(view_id) for name, view_id in self.view_ids.items()
        }
        for _ in range(2):
            for text in DASHBOARD:
                grid.client.query(text)
        hpl = grid.sites["HPL"].wrapper.conn
        smg = grid.sites["SMG98"].wrapper.conn
        # every write invalidates the same three dashboard queries: HPL
        # writes hit 16-process runs, SMG98 writes execution 2
        self.gflops = dict(
            hpl.execute("SELECT runid, gflops FROM hpl_runs WHERE numprocs = 16").fetchall()
        )
        self.first_proc = {}
        for procid, execid in smg.execute("SELECT procid, execid FROM processes").fetchall():
            self.first_proc.setdefault(execid, procid)
        self.allreduce = smg.execute(
            "SELECT funcid FROM functions WHERE name = 'MPI_Allreduce'"
        ).scalar()
        self.next_interval = 1 + smg.execute("SELECT MAX(intervalid) FROM intervals").scalar()
        # one write cycle warms the notification and maintenance paths
        warm = self.writes(random.Random(0), 1)
        for kind, target, value in warm:
            self._write(kind, target, value)

    def writes(self, rng: random.Random, cycles: int) -> list[tuple[str, int, float]]:
        """Seeded plan of whole write cycles: (kind, runid or intervalid, value)."""
        plan = []
        runids = sorted(self.gflops)
        runid = interval = 0
        for kind in WRITE_CYCLE * cycles:
            if kind == "hpl-set":
                runid = rng.choice(runids)
                plan.append((kind, runid, self.gflops[runid] * rng.uniform(1.5, 2.0)))
            elif kind == "hpl-revert":
                plan.append((kind, runid, self.gflops[runid]))
            elif kind == "smg-insert":
                interval, self.next_interval = self.next_interval, self.next_interval + 1
                plan.append((kind, interval, SMG98_WRITE_EXEC + rng.uniform(0.001, 0.002)))
            else:
                plan.append((kind, interval, 0.0))
        return plan

    def _write(self, kind: str, target: int, value: float) -> None:
        """Change one store through its minidb connection, then announce
        the change on the touched execution (``data_updated``)."""
        grid = self.grid
        if kind.startswith("hpl"):
            grid.sites["HPL"].wrapper.conn.execute(
                "UPDATE hpl_runs SET gflops = ? WHERE runid = ?", [value, target]
            )
            service = grid.execution_service("HPL", str(target))
        else:
            conn = grid.sites["SMG98"].wrapper.conn
            if kind == "smg-insert":
                execid = int(value)
                duration = value - execid
                conn.execute(
                    "INSERT INTO intervals (intervalid, execid, procid, funcid, start_ts, end_ts) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    [target, execid, self.first_proc[execid], self.allreduce, 1.0, 1.0 + duration],
                )
            else:
                execid = conn.execute(
                    "SELECT execid FROM intervals WHERE intervalid = ?", [target]
                ).scalar()
                conn.execute("DELETE FROM intervals WHERE intervalid = ?", [target])
            service = grid.execution_service("SMG98", str(execid))
        if service is None:
            raise RuntimeError(f"no live execution service for {kind} {target}")
        service.data_updated("perfbench ingest")

    def _view_state(self) -> dict[str, tuple[int, int, list[str]]]:
        views = self.engine.views()
        out = {}
        for name, view_id in self.view_ids.items():
            view = views.get_view(view_id)
            out[name] = (view.epoch, view.version, view.packed_rows())
        return out

    def run(self, seconds: float, rng: random.Random) -> RunResult:
        """Reads for ``seconds``, or until the last write of the whole
        cycles closest to ``seconds`` of writes has been acknowledged."""
        recorder = self.grid.environment.recorder
        plan = self.writes(rng, max(1, round(seconds * WRITE_RATE / len(WRITE_CYCLE))))
        reads: list[Op] = []
        writes: list[Op] = []
        #: (ack time, view states right after the write) per write, in order
        self.states = [(0.0, self._view_state())]
        failures: list[str] = []
        self.write_failures = failures
        stop = threading.Event()
        side = [0.0]

        def reader() -> None:
            client = self.grid.client
            index = 0
            while not stop.is_set():
                text = DASHBOARD[index % len(DASHBOARD)]
                index += 1
                op = Op("read", time.perf_counter(), key=text)
                try:
                    packed = [row.pack() for row in self._root(client.query, text)]
                    op.end = time.perf_counter()
                    op.rows = len(packed)
                    op.answer = packed if text in VIEWS.values() else None
                except Exception as exc:
                    op.end = time.perf_counter()
                    op.error = f"{type(exc).__name__}: {exc}"
                op.latency = op.end - op.due
                reads.append(op)

        bytes_before = recorder.bytes_total
        start = time.perf_counter()
        thread = threading.Thread(target=reader, name="dashboard-reader")
        thread.start()
        try:
            for k, (kind, target, value) in enumerate(plan):
                due = start + k / WRITE_RATE
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                op = Op("write", due, key=f"{kind}|{target}")
                op.answer = time.perf_counter()  # actual start, for read overlap
                try:
                    self._root(self._write, kind, target, value)
                    op.end = time.perf_counter()
                    op.latency = op.end - due
                    mark = time.perf_counter()
                    self._await_views(op, self.states[-1][1], failures)
                    self.states.append((op.end, self._view_state()))
                    side[0] += time.perf_counter() - mark
                except Exception as exc:
                    op.end = time.perf_counter()
                    op.latency = op.end - due
                    op.error = f"{type(exc).__name__}: {exc}"
                writes.append(op)
            remaining = start + seconds - time.perf_counter()
            if remaining > 0:
                time.sleep(remaining)
        finally:
            stop.set()
            thread.join()
        elapsed = time.perf_counter() - start
        return RunResult(
            reads + writes, elapsed - side[0], recorder.bytes_total - bytes_before,
            {"late_s": max((w.answer - w.due for w in writes), default=0.0)},
        )

    def _await_views(self, op: Op, before: dict, failures: list[str]) -> None:
        """Wait until every subscriber shows the server's view state,
        recording the lag from the write's due time for each view the
        write changed; then check the subscriber's rows."""
        servers = self._view_state()
        deadline = time.perf_counter() + VIEW_LAG_LIMIT_S
        for name, (epoch, version, packed) in servers.items():
            replica = self.replicas[name]
            while (replica.epoch, replica.version) != (epoch, version):
                if time.perf_counter() > deadline:
                    op.error = f"view {name} did not reach version {version}"
                    failures.append(op.error)
                    return
                time.sleep(0.0005)
            if (epoch, version) != before[name][:2]:
                op.lags[name] = time.perf_counter() - op.due
            if [row.pack() for row in replica.rows] != packed:
                op.error = f"subscriber rows of view {name} differ from getView"
                failures.append(op.error)

    def check(self, result: RunResult) -> list[str]:
        """Reads of the views' texts that overlap no write equal the view
        at that point; afterwards every query and view equals the oracle."""
        failures = list(self.write_failures)
        writes = sorted((w for w in result.ops if w.kind == "write"), key=lambda w: w.answer)
        windows = [(w.answer, w.end) for w in writes]
        names = {text: name for name, text in VIEWS.items()}
        for op in result.ops:
            if op.kind != "read" or op.error is not None or op.answer is None:
                continue
            if any(s < op.end and op.due < e for s, e in windows):
                continue  # overlaps a write: either state is allowed
            state = [st for ack, st in self.states if ack <= op.due][-1]
            if not rows_match(op.answer, state[names[op.key]][2]):
                op.error = f"read after a write does not reflect it: {op.key}"
                failures.append(op.error)
        members = oracle_members(self.grid)
        for text in DASHBOARD:
            expected = [row.pack() for row in naive_query(text, members)]
            got = [row.pack() for row in self.grid.client.query(text)]
            if not rows_match(got, expected):
                failures.append(f"final dashboard read differs from the oracle: {text}")
        for name, (_epoch, _version, packed) in self._view_state().items():
            expected = [row.pack() for row in naive_query(VIEWS[name], members)]
            if not rows_match(packed, expected):
                failures.append(f"final view {name} differs from the oracle")
        return failures


WORKLOADS = {cls.name: cls for cls in (Table4GetPR, FedAdhoc, FedDashboardIngest)}
