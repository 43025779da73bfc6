"""``serve-mixed``: a ``repro serve`` subprocess under mixed traffic.

Set-up checkpoints an employee session (two sources) and boots the
server on a fresh copy of the checkpoint.  One generator process sends,
over at most ``nproc`` (≤ 2) keep-alive connections, 90% ``GET
/resolve`` with Zipf-skewed keys over a keyspace several times the
server's 1024-entry cache, and 10% ``POST /ingest`` of rows unique
within the run: R rows of entities the checkpoint lacks, half of which
have an S partner already stored.

The run has four phases: a warm-up, the nominal rate (open loop: each
request is timed from its due time, so a stall also delays the requests
queued behind it, and the generator's own lateness is reported), a
closed-loop phase that measures the rate the server sustains, and a
ladder of open-loop rates at fixed fractions of that rate.

The generator and the server share one CPU (the benchmark pins itself
and the server inherits it).  On a 2-vCPU virtual host, requests that
hop between CPUs wait for the other CPU to wake up: with the server on
its own CPU the sustained rate of one-second chunks ranged from 725 to
1708 requests/s within a run; on one CPU the run-to-run spread fell to
a few percent.

This is the only workload that uses ``serving`` (HTTP, admission,
cache, replica reads, the writer).  Ingests sit beside reads: a resolve
sent after an ingest answered must see the new match, which checks
cache invalidation.
"""

from __future__ import annotations

import bisect
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPException
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import quote

from repro.federation import IncrementalIdentifier
from repro.serving import MatchLookupService
from repro.serving.errors import ServingError
from repro.store import StoreError
from repro.workloads import EmployeeWorkloadSpec, Workload, employee_workload

from perfbench.common import (
    ROOT,
    HostSpeed,
    Outcome,
    median,
    percentile,
    tail,
)

R_KEY = ("dept", "name")
S_KEY = ("division", "name")
ZIPF_EXPONENT = 0.9
INGEST_SHARE = 0.10
# The max_ok_rps limit: about twice the resolve p99 seen below the knee
# on a 2-CPU host (10-25 ms, while the p50 stays near 1 ms).
RESOLVE_P99_LIMIT_MS = 50.0
# The ladder, as fractions of the rate the closed-loop probe sustained:
# a fixed ladder of absolute rates would quantise max_ok_rps to its
# steps, while this one moves with the server's capacity.
LADDER = (0.5, 0.7, 0.85, 1.0, 1.15)
WARMUP_S = 1.5
NOMINAL_SHARE = 0.45
LADDER_SHARE = 0.1
CHUNK_S = 0.5  # the host-speed probe runs between chunks


@dataclass(frozen=True)
class Size:
    entities: int
    nominal_rps: float


SIZES = {"standard": Size(6000, 300.0), "smoke": Size(300, 100.0)}


@dataclass
class Request:
    due: float  # perf_counter() time the request is due
    phase: str  # "warmup", "nominal", "saturation" or "ladder-<fraction>"
    kind: str  # "resolve" or "ingest"
    side: str
    key: tuple  # KeyValues of the resolved or ingested row
    row: Optional[Dict[str, str]] = None  # ingest payload
    partner: Optional[tuple] = None  # S key an ingest must match, if any


@dataclass
class Sent:
    request: Request
    sent: float = 0.0  # perf_counter() times
    done: float = 0.0
    status: int = 0
    body: bytes = b""  # the HTTP response body
    answer: Optional[Dict[str, Any]] = None  # or the in-process answer
    slowdown: float = 1.0  # host slowdown around its chunk (see HostSpeed)


def _kv(row: Any, attrs: Tuple[str, ...]) -> tuple:
    return tuple((attr, row[attr]) for attr in attrs)


def generate(seed: int, size: Size) -> Workload:
    """The two sources and their truth; 10% of the universe is in
    neither source, 20% only in S (ingest material)."""
    return employee_workload(
        EmployeeWorkloadSpec(
            n_entities=size.entities,
            name_pool=max(size.entities // 2, 1),
            overlap=0.5,
            r_only=0.2,
            s_only=0.2,
            seed=random.Random(seed).randrange(2**31),
        )
    )


class Inputs:
    """The checkpoint of one run and the server over a copy of it."""

    def __init__(self, seed: int, size: Size, scratch: Any) -> None:
        self.seed = seed
        self.size = size
        self.scratch = scratch
        workload = generate(seed, size)
        self.workload = workload
        self.checkpoint = scratch.file(f"session-{time.perf_counter_ns()}.sqlite")
        session = IncrementalIdentifier(
            workload.r.schema,
            workload.s.schema,
            list(workload.extended_key),
            ilfds=list(workload.ilfds),
        )
        for row in workload.r:
            session.insert_r(dict(row))
        for row in workload.s:
            session.insert_s(dict(row))
        session.checkpoint(self.checkpoint)
        session.store.close()
        self.server: Optional[Server] = Server(
            self.fresh_copy(f"served-{time.perf_counter_ns()}.sqlite")
        )

    def fresh_copy(self, name: str) -> str:
        path = self.scratch.file(name)
        shutil.copyfile(self.checkpoint, path)
        return path


class Server:
    """``repro serve`` on a free port, stopped with SIGTERM."""

    def __init__(self, store: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--store", f"sqlite:{store}",
             "--host", "127.0.0.1", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            self.host, self.port = self._await_ready()
            self.get("/health")
        except BaseException:
            self.stop()
            raise

    def _await_ready(self) -> Tuple[str, int]:
        assert self.process.stdout is not None
        line = self.process.stdout.readline()
        if "listening on http://" not in line:
            raise RuntimeError(f"repro serve did not start: {line.strip()!r}")
        address = line.split("http://", 1)[1].split()[0]
        host, _, port = address.partition(":")
        return host, int(port)

    def get(self, path: str) -> Dict[str, Any]:
        connection = HTTPConnection(self.host, self.port, timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
            if response.status != 200:
                raise RuntimeError(f"GET {path}: HTTP {response.status}")
            return json.loads(body)
        finally:
            connection.close()

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        if self.process.stdout is not None:
            self.process.stdout.close()


def setup(seed: int, size: Size, scratch: Any) -> Inputs:
    return Inputs(seed, size, scratch)


def close(inputs: Inputs) -> None:
    if inputs.server is not None:
        inputs.server.stop()
        inputs.server = None


# ----------------------------------------------------------------------
# Traffic
# ----------------------------------------------------------------------
class Traffic:
    """The seeded request stream: what to send, not when.

    Resolves draw Zipf-ranked keys over every stored R and S key.  Ingests
    take entities without an R row, alternating between ones whose S row
    is stored (hottest S key first, so invalidation hits cached keys) and
    ones with no partner; after those, fresh people no source knows.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self._rng = random.Random(seed * 7919 + 1)
        # Zipf ranks go round-robin over four kinds of key (R or S, with
        # or without a stored match), each kind shuffled, so every stretch
        # of ranks mixes the kinds alike and the hot set costs the same
        # whatever the seed.
        matched_r = {r_key for r_key, _ in workload.truth}
        matched_s = {s_key for _, s_key in workload.truth}
        kinds: List[List[Tuple[str, tuple]]] = [[], [], [], []]
        for row in workload.r:
            key = _kv(row, R_KEY)
            kinds[0 if key in matched_r else 1].append(("r", key))
        for row in workload.s:
            key = _kv(row, S_KEY)
            kinds[2 if key in matched_s else 3].append(("s", key))
        for kind in kinds:
            self._rng.shuffle(kind)
        total_keys = sum(len(kind) for kind in kinds)
        keyspace: List[Tuple[str, tuple]] = []
        taken = [0, 0, 0, 0]
        while len(keyspace) < total_keys:
            # the kind furthest behind its share of the ranks so far
            index = min(
                (i for i in range(4) if taken[i] < len(kinds[i])),
                key=lambda i: (taken[i] + 1) / len(kinds[i]),
            )
            keyspace.append(kinds[index][taken[index]])
            taken[index] += 1
        self._keyspace = keyspace
        self._cumulative: List[float] = []
        total = 0.0
        for rank in range(len(keyspace)):
            total += 1.0 / (rank + 1) ** ZIPF_EXPONENT
            self._cumulative.append(total)
        rank_of = {entry: rank for rank, entry in enumerate(keyspace)}

        r_keys = {_kv(row, R_KEY) for row in workload.r}
        s_keys = {_kv(row, S_KEY) for row in workload.s}
        partnered, alone = [], []
        for entity in workload.universe:
            if _kv(entity, R_KEY) in r_keys:
                continue
            row = {attr: entity[attr] for attr in ("name", "dept", "title")}
            s_key = _kv(entity, S_KEY)
            if s_key in s_keys:
                partnered.append((rank_of[("s", s_key)], row, s_key))
            else:
                alone.append((row, None))
        partnered.sort(key=lambda item: item[0])
        self._pool: List[Tuple[Dict[str, str], Optional[tuple]]] = []
        for index in range(max(len(partnered), len(alone))):
            if index < len(partnered):
                self._pool.append(partnered[index][1:])
            if index < len(alone):
                self._pool.append(alone[index])
        self._pool.reverse()  # pop() from the end
        self._depts = sorted({entity["dept"] for entity in workload.universe})
        self._fresh = 0
        self._lock = threading.Lock()

    def next(self, phase: str, due: float) -> Request:
        with self._lock:
            if self._rng.random() < INGEST_SHARE:
                if self._pool:
                    row, partner = self._pool.pop()
                else:
                    self._fresh += 1
                    row = {"name": f"Fresh Hire {self._fresh}",
                           "dept": self._rng.choice(self._depts), "title": "Associate"}
                    partner = None
                return Request(due, phase, "ingest", "r", _kv(row, R_KEY), row, partner)
            point = self._rng.random() * self._cumulative[-1]
            side, key = self._keyspace[bisect.bisect_left(self._cumulative, point)]
            return Request(due, phase, "resolve", side, key)


def _path(request: Request) -> str:
    text = ",".join(f"{attr}={value}" for attr, value in request.key)
    return f"/resolve?source={request.side}&key={quote(text)}"


def _send(connection: HTTPConnection, record: Sent) -> None:
    request = record.request
    record.sent = time.perf_counter()
    if request.kind == "resolve":
        connection.request("GET", _path(request))
    else:
        body = json.dumps({"source": request.side, "row": request.row})
        connection.request("POST", "/ingest", body=body,
                           headers={"Content-Type": "application/json"})
    response = connection.getresponse()
    record.body = response.read()
    record.status = response.status
    record.done = time.perf_counter()


def _drive(server: Server, traffic: Traffic, phase: str, connections: int,
           duration: float, rate: Optional[float] = None) -> List[Sent]:
    """One phase over *connections* keep-alive connections.

    With a *rate*, open loop: requests are due at evenly spaced times and
    a request whose connection is busy goes out late.  Without one,
    closed loop: each connection sends its next request as soon as the
    last one is answered (the request is due when it is sent).
    """
    start = time.perf_counter() + 0.02
    if rate is not None:
        records = [Sent(traffic.next(phase, start + index / rate))
                   for index in range(int(rate * duration))]
    else:
        records = []
    lock = threading.Lock()
    cursor = [0]

    def claim() -> Optional[Sent]:
        with lock:
            if rate is not None:
                if cursor[0] >= len(records):
                    return None
                record = records[cursor[0]]
                cursor[0] += 1
                return record
            now = time.perf_counter()
            if now >= start + duration:
                return None
            record = Sent(traffic.next(phase, max(now, start)))
            records.append(record)
            return record

    def worker() -> None:
        connection = HTTPConnection(server.host, server.port, timeout=30)
        try:
            while True:
                record = claim()
                if record is None:
                    return
                delay = record.request.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                try:
                    _send(connection, record)
                except (OSError, HTTPException) as exc:
                    record.status = -1
                    record.body = repr(exc).encode()
                    record.done = time.perf_counter()
                    connection.close()
                    connection = HTTPConnection(server.host, server.port, timeout=30)
        finally:
            connection.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def _pairs(matches: List[Dict[str, Any]]) -> set:
    return {
        (tuple(tuple(item) for item in match["r_key"]),
         tuple(tuple(item) for item in match["s_key"]))
        for match in matches
    }


class Expectations:
    """What a correct server answers, given the ingests around a request."""

    def __init__(self, inputs: Inputs) -> None:
        self.by_key: Dict[Tuple[str, tuple], set] = {}
        for r_key, s_key in inputs.workload.truth:
            pair = (r_key, s_key)
            self.by_key.setdefault(("r", r_key), set()).add(pair)
            self.by_key.setdefault(("s", s_key), set()).add(pair)
        # (sent, done, pair) of every ingest that adds a match
        self.ingests: List[Tuple[float, float, tuple]] = []

    def record_ingest(self, record: Sent) -> None:
        request = record.request
        if request.partner is not None:
            self.ingests.append((record.sent, record.done, (request.key, request.partner)))

    def check(self, outcome: Outcome, record: Sent) -> bool:
        request = record.request
        if not outcome.check(record.status == 200,
                             f"{request.kind} {request.key!r}: HTTP {record.status}"):
            return False
        answer = record.answer
        if answer is None:
            try:
                answer = json.loads(record.body)
            except ValueError:
                return outcome.check(False, f"{request.kind}: body is not JSON")
        if request.kind == "ingest":
            expected = set() if request.partner is None else {(request.key, request.partner)}
            return outcome.check(
                answer.get("inserted") is True and _pairs(answer["matches_added"]) == expected,
                f"ingest {request.key!r}: matches_added {answer.get('matches_added')!r}",
            )
        base = self.by_key.get((request.side, request.key), set())
        must, may = set(base), set(base)
        for sent, done, pair in self.ingests:
            if request.key not in pair:
                continue
            if done < record.sent:
                must.add(pair)
            if sent <= record.done:
                may.add(pair)
        got = _pairs(answer.get("matches", [])) if answer.get("found") else None
        return outcome.check(
            got is not None and must <= got <= may,
            f"resolve {request.side}:{request.key!r}: matches {got!r}, expected {must!r}",
        )


def check_all(inputs: Inputs, outcome: Outcome, records: List[Sent]) -> None:
    expectations = Expectations(inputs)
    for record in records:
        if record.request.kind == "ingest" and record.status == 200:
            expectations.record_ingest(record)
    for record in records:
        outcome.operation(expectations.check(outcome, record))


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def _plan(seconds: float) -> List[Tuple[str, Optional[float], float, float]]:
    """(phase, ladder fraction or None, duration, chunk length) in order."""
    measured = max(seconds - WARMUP_S, 2.0)
    step = measured * LADDER_SHARE / len(LADDER)
    plan: List[Tuple[str, Optional[float], float, float]] = [
        ("warmup", None, WARMUP_S, WARMUP_S),
        ("nominal", None, measured * NOMINAL_SHARE, CHUNK_S),
        ("saturation", None, measured * (1.0 - NOMINAL_SHARE - LADDER_SHARE), CHUNK_S),
    ]
    plan += [(f"ladder-{fraction:g}", fraction, step, step) for fraction in LADDER]
    return plan


def run_http(inputs: Inputs, outcome: Outcome, seconds: float,
             normalize: bool = False) -> Dict[str, Any]:
    """Warm-up and the nominal rate (open loop), the closed-loop
    saturation phase, then the ladder (open loop) at fixed fractions of
    the saturation rate.

    Phases run in chunks; with *normalize* the CPU is probed between
    chunks, while no request is in flight.  Every response is checked
    once the server has answered everything.
    """
    assert inputs.server is not None
    server = inputs.server
    speed = HostSpeed() if normalize else None
    traffic = Traffic(inputs.workload, inputs.seed)
    connections = max(1, min(2, os.cpu_count() or 1))
    records: List[Sent] = []
    chunk_rates: List[Tuple[float, float]] = []  # (raw, at reference speed)
    raw_saturation = 0.0
    steps = []
    before = speed.probe() if speed is not None else 1.0
    for phase, fraction, duration, chunk_s in _plan(seconds):
        if phase == "saturation":
            rate: Optional[float] = None
        elif fraction is not None:
            rate = fraction * raw_saturation
        else:
            rate = inputs.size.nominal_rps
        chunks = max(1, round(duration / chunk_s))
        phase_records: List[Sent] = []
        for _ in range(chunks):
            chunk = _drive(server, traffic, phase, connections, duration / chunks, rate)
            slowdown = 1.0
            if speed is not None:
                slowdown, before = speed.around(before)
            for record in chunk:
                record.slowdown = slowdown
            if rate is None:
                span = max(r.done for r in chunk) - min(r.sent for r in chunk)
                chunk_rates.append((len(chunk) / span, len(chunk) / span * slowdown))
            phase_records += chunk
        records += phase_records
        if phase == "saturation":
            raw_saturation = median([raw for raw, _ in chunk_rates])
        elif fraction is not None:
            steps.append((rate, percentile(_latencies(phase_records, kind="resolve"), 99.0)))
    stats = server.get("/stats")
    check_all(inputs, outcome, records)
    return {"records": records, "stats": stats, "connections": connections,
            "chunk_rates": chunk_rates, "steps": steps}


def _latencies(records: List[Sent], phase: Optional[str] = None,
               kind: Optional[str] = None, normalized: bool = False) -> List[float]:
    """Milliseconds from due time to answer (scaled to the reference host
    speed when *normalized*)."""
    return [
        (record.done - record.request.due) * 1000.0
        / (record.slowdown if normalized else 1.0)
        for record in records
        if (phase is None or record.request.phase == phase)
        and (kind is None or record.request.kind == kind)
    ]


def max_ok_rps(steps: List[Tuple[float, float]]) -> float:
    """Highest ladder rate whose resolve p99 (from due time) meets the
    limit, interpolated linearly between the last step that meets it and
    the first that does not.  A growing backlog shows as a p99 far over
    the limit, because latency counts from the due time."""
    previous_rate, previous_p99 = 0.0, 0.0
    for rate, p99 in steps:
        if p99 > RESOLVE_P99_LIMIT_MS:
            share = (RESOLVE_P99_LIMIT_MS - previous_p99) / (p99 - previous_p99)
            return previous_rate + (rate - previous_rate) * share
        previous_rate, previous_p99 = rate, p99
    return previous_rate


def metrics(result: Dict[str, Any], inputs: Inputs) -> Dict[str, Any]:
    """Throughput is the rate the server sustains over the traffic mix in
    the closed-loop phase; latency is per request, from its due time, at
    the nominal rate.  Both at the reference host speed.

    The throughput is the upper quartile of the half-second chunks' rates:
    host contention only ever slows a chunk, and what the speed probe
    misses of it (it shows in I/O and thread hand-offs more than in the
    pure-Python probe) spread the median of the chunks by twice as much
    from run to run.
    """
    records = result["records"]
    nominal = _latencies(records, "nominal", normalized=True)
    q, value = tail(nominal)
    return {
        "throughput_per_s": percentile([scaled for _, scaled in result["chunk_rates"]], 75.0),
        "latency_p50_ms": median(nominal),
        "latency_tail": (q, value, len(nominal)),
        "raw_throughput_per_s": median([raw for raw, _ in result["chunk_rates"]]),
        "raw_latency_p50_ms": median(_latencies(records, "nominal")),
        "host_slowdown": median([r.slowdown for r in records if r.request.phase == "nominal"]),
        "max_ok_rps": max_ok_rps(result["steps"]),
        "ladder": [{"rps": rate, "resolve_p99_ms": p99} for rate, p99 in result["steps"]],
    }


def client_breakdown(result: Dict[str, Any]) -> Dict[str, Any]:
    """Per-endpoint latencies (from due time) at the nominal rate, with
    their sample counts, and the generator's lateness."""
    records = result["records"]
    nominal = [r for r in records if r.request.phase == "nominal"]
    resolve = _latencies(records, "nominal", "resolve")
    ingest = _latencies(records, "nominal", "ingest")
    lateness = [(r.sent - r.request.due) * 1000.0 for r in nominal]
    return {
        "resolve_samples": len(resolve),
        "resolve_p50_ms": median(resolve),
        "resolve_p99_ms": percentile(resolve, 99.0),
        "ingest_samples": len(ingest),
        "ingest_p50_ms": median(ingest),
        "ingest_p95_ms": percentile(ingest, 95.0),
        "lateness_tail": tail(lateness) + (len(lateness),),
        # client time from send to response, for the HTTP overhead
        "resolve_send_ms": median([
            (r.done - r.sent) * 1000.0 for r in nominal if r.request.kind == "resolve"
        ]),
    }


def replay(inputs: Inputs, outcome: Outcome, records: List[Sent]) -> Dict[str, Any]:
    """The warm-up and nominal request stream, sequentially, against an
    in-process ``MatchLookupService`` on a fresh copy of the checkpoint."""
    stream = [r.request for r in records if r.request.phase in ("warmup", "nominal")]
    path = inputs.fresh_copy(f"replay-{time.perf_counter_ns()}.sqlite")
    service_ms: Dict[str, List[float]] = {"resolve": [], "ingest": []}
    replayed: List[Sent] = []
    started = time.perf_counter()
    with MatchLookupService(path, workers=2, cache_size=1024) as service:
        for request in stream:
            record = Sent(request, sent=time.perf_counter())
            try:
                if request.kind == "resolve":
                    record.answer = service.resolve(request.side, request.key)
                else:
                    record.answer = service.ingest(request.side, request.row)
                record.status = 200
            except (ServingError, StoreError) as exc:
                record.answer = {"error": str(exc)}
                record.status = 500
            record.done = time.perf_counter()
            if request.phase == "nominal":
                service_ms[request.kind].append((record.done - record.sent) * 1000.0)
            replayed.append(record)
    wall = time.perf_counter() - started
    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)
    check_all(inputs, outcome, replayed)
    ingests = sum(1 for request in stream if request.kind == "ingest")
    return {"wall_s": wall, "service_ms": service_ms, "ingests": ingests,
            "durations": [record.done - record.sent for record in replayed]}
