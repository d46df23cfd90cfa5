"""Set-up, timed passes and correctness checks for each workload.

A workload object owns what its set-up built (the loaded primitive
library; for ``serve-mix`` the service, server thread and clients) and runs
timed passes over its seeded inputs through the public API.  ``measure``
makes the untraced passes of a run; ``replay`` makes one traced pass over
the items of the first of them.  A pass holds one
:class:`Outcome` per item, already checked: the check runs after the clock
stops.

Items are timed on the CPU clock of every process that works on them
(:func:`cpu_seconds`), with their wall time kept beside it.  On a shared
host, the wall time of one item varied up to threefold between runs as
other processes took the cores; the CPU clock leaves out the time a process
waits for a core, and the time the hypervisor takes the core away.  What
is left, a core that runs slower while its neighbours are busy, is taken
out by :func:`host_factor`: each item's CPU time is scaled by how fast a
fixed reference loop ran just before and just after it.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import random
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from repro.bv import bv, bvadd, bvand, bvmul, bvult, bvvar
from repro.bv.eval import evaluate
from repro.core.interp import interpret
from repro.engine.budget import Budget
from repro.engine.parallel import SessionSpec
from repro.engine.service import ServerThread, ServiceClient, SolverService
from repro.engine.session import MappingSession, synthesis_cache_key
from repro.harness.runner import record_from_result
from repro.hdl.behavioral import verilog_to_behavioral
from repro.hdl.simulator import simulate_verilog
from repro.smt.cegis import Obligation, synthesize
from repro.smt.solver import SmtSolver
from repro.vendor.library import KNOWN_PRIMITIVES, PrimitiveLibrary

import inputs

#: Every item gets this budget.  It is far above the slowest item (about
#: 7 s), so no verdict depends on timing: the default Xilinx budget (120 s)
#: and the portfolio's fallback stagger (members join at 60 s or at half the
#: remaining budget) both can.
BUDGET_SECONDS = 600.0
TEMPLATE = "dsp"
EXTRA_CYCLES = 1
#: One worker: on a 2-core machine two workers plus the front door
#: oversubscribe the cores, and same-seed runs then differed by 1.6x in
#: throughput (9% with one worker).
SERVE_WORKERS = 1
#: The client sends on one connection, and an echo on the second.
SERVE_CLIENTS = 2
#: ``serve-mix`` sends the first ``--seconds`` x this many requests of its
#: stream (at most the whole stream).
SERVE_REQUESTS_PER_SECOND = 40
#: ``map-sweep`` and ``solver-hard`` do fixed work, so that every run of
#: every seed and version maps the same items equally often; ``--seconds``
#: sets how much, at the rate of the 2-core machine the benchmark was built
#: on.  The sweep maps whole rounds (42 designs, 3-4 s there); a
#: ``solver-hard`` pass (22-30 s there) runs every item once.
SWEEP_ROUND_SECONDS = 4.0
HARD_PASS_SECONDS = 24.0
#: Definitive verdicts; anything else (timeout, error) is a failure that
#: says nothing about correctness.
VERDICTS = ("success", "unsat")
#: Working space inside the checkout (relative to its root), for the serve
#: socket and the determinism record.
STATE_DIR = Path("perfbench") / ".state"

#: Record fields that legitimately differ between a served and a serial
#: record of one design: wall-clock fields, the cache flag, and the labels
#: of the requester (sign twins share one result).  Every other field is
#: committed in ``expected.json`` and must match exactly.
_RECORD_NOISE = ("time_seconds", "solver_solve_seconds", "cache_hit",
                 "benchmark", "signed")


@dataclass
class Outcome:
    """One attempted item of a pass."""

    name: str
    status: str                      # success / unsat / timeout / error
    #: CPU seconds the item cost, at the nominal speed (see the module
    #: docstring).
    seconds: float
    counts: Dict[str, float] = field(default_factory=dict)
    #: Filled by the checks: the verdict contradicts the expected one, or a
    #: ``success`` failed its re-check.
    wrong: bool = False
    #: The item's CPU seconds as measured, and its wall seconds.
    cpu: float = 0.0
    wall: float = 0.0


@dataclass
class Pass:
    outcomes: List[Outcome]
    #: The sums of the items' ``seconds``, ``cpu`` and ``wall``.
    seconds: float
    cpu_seconds: float
    wall_seconds: float
    #: Workload-specific figures (service counters, RTT splits).
    extra: Dict[str, float] = field(default_factory=dict)


#: CPU seconds one :func:`_reference_chunk` takes at the nominal speed (the
#: machine the benchmark was built on, in a quiet period).  Scaled times
#: read as CPU seconds at that speed.
REFERENCE_SECONDS = 0.001


def _reference_step(value: int, index: int) -> int:
    return (value & index) | (value >> 2)


def _reference_chunk() -> int:
    """A fixed mix of the interpreter work the mapper does: calls, dict
    and list operations, integer bit operations."""
    table: Dict[int, int] = {}
    items: List[int] = []
    total = 0
    for index in range(3000):
        key = (index * 2654435761) & 1023
        table[key] = table.get(key, 0) ^ (total & 0xFFFF)
        items.append(key >> 3)
        total += _reference_step(key, index)
    return total + len(items)


def host_factor() -> float:
    """How much slower the core runs now than at the nominal speed: the
    median CPU time of three reference chunks (on the calling thread's own
    clock) over ``REFERENCE_SECONDS``.

    Dividing an item's CPU time by the mean factor around it gives its CPU
    time at the nominal speed.  On the machine the benchmark was built on,
    the CPU time of one cold sweep varied by 28% over eight repeats in one
    minute, and the scaled time by 10%.
    """
    samples = []
    for _ in range(3):
        begun = time.thread_time()
        _reference_chunk()
        samples.append(time.thread_time() - begun)
    samples.sort()
    return samples[1] / REFERENCE_SECONDS


def _cpu_clock(pid: int) -> int:
    """Linux's clock id for the CPU time of every thread of process
    ``pid`` (what ``clock_getcpuclockid`` returns)."""
    return (~pid << 3) | 2


def cpu_seconds(pids=()) -> float:
    """CPU time used so far by this process (every thread) and by the live
    processes ``pids``.

    The kernel counts only time a thread ran: not time it waited for a
    core, nor time the hypervisor stole (the kernel accounts steal time
    apart when, as on the host this was built on, it is paravirtualised).
    """
    return time.process_time() + sum(time.clock_gettime(_cpu_clock(pid))
                                     for pid in pids)


def load_library(architectures) -> PrimitiveLibrary:
    """A primitive library with every primitive of ``architectures``
    already extracted (part of set-up, not of the first mapping)."""
    library = PrimitiveLibrary()
    for name, spec in KNOWN_PRIMITIVES.items():
        if spec.architecture in architectures:
            library.load(name)
    return library


def _telemetry(synthesis) -> Dict[str, float]:
    """The program's own counters for one synthesis (or bare CEGIS) run."""
    if synthesis is None:
        return {}
    iterations = getattr(synthesis, "cegis_iterations", None)
    return {"cegis_iterations": getattr(synthesis, "iterations", iterations),
            "probe_lanes": synthesis.probe_lanes_evaluated,
            "propagations": synthesis.propagations,
            "solve_seconds": synthesis.solver_solve_seconds}


def _trace_counts(tracer) -> Dict[str, float]:
    return dict(tracer.counts) if tracer is not None else {}


def _count_delta(tracer, before: Dict[str, float]) -> Dict[str, int]:
    if tracer is None:
        return {}
    return {f"traced.{key}": int(tracer.counts[key] - before.get(key, 0))
            for key in ("sat.propagations", "sat.solve_calls",
                        "bv.probe_lanes")}


def _span(tracer, layer: str):
    return tracer.span(layer) if tracer is not None else nullcontext()


def mapping_matches_source(verilog: str, program, seed: int,
                           trials: int = 4) -> bool:
    """Re-check a mapped program against its source module.

    ``interpret`` of the returned structural program must equal
    ``simulate_verilog`` of the behavioral source, on seeded stimulus, at
    every cycle of the checked window.
    """
    design = verilog_to_behavioral(verilog)
    start = design.pipeline_depth
    horizon = start + EXTRA_CYCLES + 1
    rng = random.Random(seed)
    for _ in range(trials):
        streams = {name: [rng.getrandbits(width) for _ in range(horizon)]
                   for name, width in design.input_widths.items()}
        simulated = simulate_verilog(verilog, streams, horizon)
        for t in range(start, horizon):
            if interpret(program, streams, t) != simulated[t]:
                return False
    return True


def _interval_instance(width: int, lo: int, hi: int, polynomial: bool):
    """The multi-iteration CEGIS instances of
    ``benchmarks/bench_incremental_verify.py``."""
    x = bvvar("x", width)
    k, m = bvvar("k", width), bvvar("m", width)
    square = bvmul(x, x)
    f = bvadd(bvmul(square, x), square) if polynomial else square
    spec = bvand(bvult(f, bv(hi, width)), bvult(bv(lo, width), f))
    sketch = bvand(bvult(f, k), bvult(m, f))
    return [Obligation(spec, sketch)], {"k": width, "m": width}


def holes_match_spec(obligations, holes: Dict[str, int], width: int) -> bool:
    """Exhaustively re-check CEGIS hole values over every input ``x``."""
    for obligation in obligations:
        for x in range(1 << width):
            if evaluate(obligation.spec, {"x": x}) != \
                    evaluate(obligation.sketch, {"x": x, **holes}):
                return False
    return True


# --------------------------------------------------------------------------- #
# Forked items and repeats
# --------------------------------------------------------------------------- #
def in_child(tracer, function, *args):
    """``function(*args)`` in a forked copy of this process; its result.

    Every call starts from the set-up's heap, whatever ran before it, so an
    item's time and counts do not depend on the items before it.  (In one
    process, the ``solver-hard`` pass of one seeded order took 18.7-19.8 s
    and that of another 14.4-16.8 s; forked, both took 13.8-15.5 s.)  With
    a ``tracer`` installed, the child's spans are added to it.
    """
    # A fork copies only the calling thread: another thread's locks would
    # stay held in the child for good.
    if threading.active_count() != 1:
        raise RuntimeError("in_child forks single-threaded processes only")
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        # Whatever happens, the child ends here and never unwinds into the
        # caller's code; the parent re-raises its failure.
        try:
            if tracer is not None:
                tracer.clear()
            value = function(*args)
            payload = pickle.dumps(
                (True, value, tracer.export() if tracer else None))
        except BaseException as exc:  # noqa: BLE001 - re-raised in parent
            payload = pickle.dumps((False, repr(exc), None))
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(payload)
        os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        payload = pipe.read()
    os.waitpid(pid, 0)
    if not payload:
        raise RuntimeError("a forked item died without a result")
    ok, value, spans = pickle.loads(payload)
    if not ok:
        raise RuntimeError(f"a forked item failed: {value}")
    if spans is not None:
        tracer.absorb(spans)
    return value


def best_of(repeats: List[Pass]) -> Pass:
    """One pass from repeats of the same items: each item's fastest repeat.

    The rest of the machine only ever adds time to an item (on the CPU
    clock too: a busy neighbour slows a core down), so the fastest of its
    repeats is the steadiest estimate of its cost (the advice of Python's
    ``timeit``).  The measured time is the sum of the kept items' times.  A
    single pass is returned as it is.
    """
    if len(repeats) == 1:
        return repeats[0]
    outcomes = [min(attempts, key=lambda outcome: outcome.seconds)
                for attempts in zip(*(measured.outcomes
                                      for measured in repeats))]
    return summed(outcomes)


class ItemClock:
    """Times consecutive items: CPU seconds (of this process and of the
    processes ``pids``), scaled to the nominal speed, and wall seconds.

    The reference loop runs between items, outside the timed region; the
    sample after one item is the sample before the next.  The core's speed
    changes within a second, so with ``sample_every`` set a thread also
    samples it that often while the item runs; that thread's own CPU time
    is taken out of the item's.  (On a 7 s item,
    scaling by the samples before and after alone doubled the spread of
    its CPU time.)
    """

    def __init__(self, pids=(), sample_every: float = 0.0) -> None:
        self.pids = list(pids)
        self.sample_every = sample_every
        self.factor = host_factor()

    def start(self) -> None:
        self._samples: List[float] = []
        self._sampler_cpu = 0.0
        self._sampler = None
        if self.sample_every:
            self._done = threading.Event()
            self._sampler = threading.Thread(target=self._sample,
                                             name="perfbench-sampler")
            self._sampler.start()
        self._wall = time.perf_counter()
        self._cpu = cpu_seconds(self.pids)

    def _sample(self) -> None:
        while not self._done.wait(self.sample_every):
            self._samples.append(host_factor())
        self._sampler_cpu = time.thread_time()

    def stop(self):
        """``(scaled CPU, CPU, wall)`` seconds since :meth:`start`."""
        if self._sampler is not None:
            self._done.set()
            self._sampler.join()
        cpu = cpu_seconds(self.pids) - self._cpu - self._sampler_cpu
        wall = time.perf_counter() - self._wall
        before, self.factor = self.factor, host_factor()
        factors = [before, *self._samples, self.factor]
        return cpu * len(factors) / sum(factors), cpu, wall


def summed(outcomes: List[Outcome]) -> Pass:
    """A pass whose measured time is its items' own, without what ran
    between them."""
    return Pass(outcomes, sum(outcome.seconds for outcome in outcomes),
                sum(outcome.cpu for outcome in outcomes),
                sum(outcome.wall for outcome in outcomes))


# --------------------------------------------------------------------------- #
# map-sweep
# --------------------------------------------------------------------------- #
class MapSweep:
    """Lattice/Intel designs, each mapped once on one session, cold, in a
    forked child."""

    def __init__(self, seed: int, expected: Dict[str, dict]) -> None:
        self.seed = seed
        self.expected = expected
        self.library = load_library(inputs.SWEEP_ARCHITECTURES)
        self.designs: List = []

    def measure(self, seconds: float) -> List[Pass]:
        rounds = max(1, round(seconds / SWEEP_ROUND_SECONDS))
        self.designs = inputs.map_sweep(self.seed, rounds)
        return [in_child(None, self._sweep, None)]

    def replay(self, tracer) -> Pass:
        """One traced sweep over the same designs."""
        with tracer:
            return in_child(tracer, self._sweep, tracer)

    def _sweep(self, tracer) -> Pass:
        """One cold sweep, checked after the clock stops."""
        session = MappingSession(library=self.library)
        gc.collect()
        outcomes: List[Outcome] = []
        results = []
        clock = ItemClock(sample_every=0.1)
        for bench in self.designs:
            before = _trace_counts(tracer)
            clock.start()
            try:
                with _span(tracer, "engine.map"):
                    result = session.map_verilog(
                        bench.verilog, template=TEMPLATE,
                        arch=bench.architecture,
                        budget=Budget(BUDGET_SECONDS),
                        extra_cycles=EXTRA_CYCLES)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                scaled, cpu, wall = clock.stop()
                outcomes.append(Outcome(design_name(bench),
                                        f"error: {exc!r}", scaled,
                                        cpu=cpu, wall=wall))
                results.append(None)
                continue
            scaled, cpu, wall = clock.stop()
            counts = _telemetry(result.synthesis)
            counts.update(_count_delta(tracer, before))
            counts["cache_hit"] = int(result.cache_hit)
            outcomes.append(Outcome(design_name(bench), result.status,
                                    scaled, counts, cpu=cpu, wall=wall))
            results.append(result)
        for outcome, bench, result in zip(outcomes, self.designs, results):
            self._check(outcome, bench, result)
        return summed(outcomes)

    def _check(self, outcome: Outcome, bench, result) -> None:
        """The record against the committed serial record; a success
        re-checked by simulation (a cache hit against its own source)."""
        if outcome.status not in VERDICTS:
            return
        if comparable(record(result, bench)) != \
                self.expected.get(outcome.name):
            outcome.wrong = True
        elif outcome.status == "success":
            outcome.wrong = not mapping_matches_source(
                bench.verilog, result.program, self.seed)

    def close(self) -> None:
        pass


def design_name(bench) -> str:
    return f"{bench.architecture}/{bench.name}"


# --------------------------------------------------------------------------- #
# solver-hard
# --------------------------------------------------------------------------- #
class SolverHard:
    """A fixed list of SAT- and obligation-heavy verdicts.

    Every item runs cold in its own forked child, on a fresh session.  A
    run makes whole passes over the list (one at ``--seconds 24``); with
    more, each item keeps its fastest repeat (:func:`best_of`).
    """

    def __init__(self, seed: int, expected: Dict[str, str]) -> None:
        self.seed = seed
        self.expected = expected
        self.items = inputs.solver_hard(seed)
        self.library = load_library(("xilinx-ultrascale-plus",))

    def measure(self, seconds: float) -> List[Pass]:
        passes = max(1, round(seconds / HARD_PASS_SECONDS))
        return [self._pass(None) for _ in range(passes)]

    def replay(self, tracer) -> Pass:
        """One traced pass over the list."""
        with tracer:
            return self._pass(tracer)

    def _pass(self, tracer) -> Pass:
        return summed([in_child(tracer, self._item, item, tracer)
                       for item in self.items])

    def _item(self, item, tracer) -> Outcome:
        """One item, checked after the clock stops."""
        gc.collect()
        before = _trace_counts(tracer)
        clock = ItemClock(sample_every=0.1)
        clock.start()
        try:
            status, counts, answer = self._run_item(item, tracer)
        except Exception as exc:  # noqa: BLE001 - counted as failed
            status, counts, answer = f"error: {exc!r}", {}, None
        scaled, cpu, wall = clock.stop()
        outcome = Outcome(item.name, status, scaled, counts, cpu=cpu,
                          wall=wall)
        counts.update(_count_delta(tracer, before))
        if status not in VERDICTS:
            return outcome
        if status != self.expected.get(item.name):
            outcome.wrong = True
        elif status == "success":
            if item.kind == "map":
                outcome.wrong = not mapping_matches_source(
                    item.verilog, answer, self.seed)
            else:
                obligations, _ = _interval_instance(*item.interval)
                outcome.wrong = not holes_match_spec(
                    obligations, answer, item.interval[0])
        return outcome

    def _run_item(self, item, tracer):
        """Returns ``(status, counts, answer)``."""
        if item.kind == "map":
            session = MappingSession(library=self.library)
            with _span(tracer, "engine.map"):
                result = session.map_verilog(
                    item.verilog, template=TEMPLATE,
                    arch="xilinx-ultrascale-plus",
                    budget=Budget(BUDGET_SECONDS), extra_cycles=EXTRA_CYCLES)
            return result.status, _telemetry(result.synthesis), result.program
        obligations, holes = _interval_instance(*item.interval)
        with _span(tracer, "smt.cegis"):
            result = synthesize(
                obligations, holes, solver=SmtSolver(seed=0, random_probes=0),
                random_probes=0, initial_random_examples=0,
                max_iterations=256, budget=Budget(BUDGET_SECONDS))
        status = {"sat": "success", "unsat": "unsat"}.get(result.status,
                                                          "timeout")
        return status, _telemetry(result), result.hole_values

    def close(self) -> None:
        pass


# --------------------------------------------------------------------------- #
# serve-mix
# --------------------------------------------------------------------------- #
class ServeMix:
    """A warm service behind a unix socket, driven by one closed-loop
    client.

    The client sends one step at a time and waits for its replies before
    the next: a request on the first connection, plus for an echo the same
    request on the second connection at once.  A step's cost is the CPU
    time this process (client, front door and dispatcher threads) and the
    service's worker spent on it.  The service's workers are processes of
    their own, and the front door runs on threads of this one, so a run is
    one pass, not forked.
    """

    def __init__(self, seed: int, expected: Dict[str, dict]) -> None:
        self.seed = seed
        self.expected = expected
        self.stream = list(inputs.serve_stream(seed))
        self.steps: List = []
        # Relative to the checkout root, which keeps the path within the
        # unix-socket length limit wherever the checkout lives.
        STATE_DIR.mkdir(parents=True, exist_ok=True)
        self.socket_path = str(STATE_DIR / f"serve-{os.getpid()}.sock")
        self.spec = SessionSpec()
        self._open()

    def _open(self) -> None:
        self.service = SolverService(self.spec, workers=SERVE_WORKERS)
        self.server = ServerThread(self.service, self.socket_path)
        self.clients = [ServiceClient(self.socket_path)
                        for _ in range(SERVE_CLIENTS)]
        for client in self.clients:
            if not client.ping(timeout=30):
                raise RuntimeError("service did not answer ping")

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.server.close()
        self.service.close()

    def measure(self, seconds: float) -> List[Pass]:
        """The first ``seconds * SERVE_REQUESTS_PER_SECOND`` requests of
        the stream, in whole steps."""
        wanted = max(1, round(seconds * SERVE_REQUESTS_PER_SECOND))
        self.steps, sent = [], 0
        for step in self.stream:
            if sent >= wanted:
                break
            self.steps.append(step)
            sent += 1 + step[1]
        return [self._run(None)]

    def replay(self, tracer) -> Pass:
        """The same requests on a fresh service (cold front cache), spawned
        before the tracer is installed, so its workers carry no wrappers."""
        self.close()
        self._open()
        with tracer:
            return self._run(tracer)

    def _run(self, tracer) -> Pass:
        # The service's worker processes are this process's only children.
        clock = ItemClock(process.pid for process
                          in multiprocessing.active_children())
        replies: List[tuple] = []
        for bench, echoed in self.steps:
            payload = {"op": "map", "verilog": bench.verilog,
                       "arch": bench.architecture, "template": TEMPLATE,
                       "timeout": BUDGET_SECONDS,
                       "extra_cycles": EXTRA_CYCLES,
                       "benchmark": bench.name, "form": bench.form.name,
                       "width": bench.width, "stages": bench.stages,
                       "signed": bench.signed}
            clock.start()
            with _span(tracer, "service.request"):
                futures = [client.submit(payload)
                           for client in self.clients[:1 + echoed]]
                answers = [future.result(timeout=BUDGET_SECONDS)
                           for future in futures]
            cost = clock.stop()
            for copy, reply in enumerate(answers):
                replies.append((bench, reply, cost, copy))
        stats = self.service.stats()
        outcomes: List[Outcome] = []
        worker_solve = transit = 0.0
        hit_rtts: List[float] = []
        for bench, reply, (scaled, cpu, rtt), copy in replies:
            record = reply.get("record") if reply.get("ok") else None
            if record is None:
                status = f"error: {reply.get('error')}"
                counts: Dict[str, float] = {}
            else:
                status = record["outcome"]
                counts = {"probe_lanes": record["probe_lanes_evaluated"],
                          "propagations": record["propagations"]}
                # An echo's round trip is its step's, counted once.
                if not copy and record["cache_hit"]:
                    hit_rtts.append(rtt)
                elif not copy:
                    worker_solve += record["time_seconds"]
                    transit += rtt - record["time_seconds"]
            # The step's cost is charged to its first request; an echo is
            # not a latency sample of its own.
            counts["echo"] = copy
            share = 0.0 if copy else 1.0
            outcome = Outcome(design_name(bench), status, share * scaled,
                              counts, cpu=share * cpu, wall=share * rtt)
            # Every reply's record against the committed serial record.
            if status in VERDICTS:
                outcome.wrong = comparable(record) != \
                    self.expected.get(outcome.name)
            outcomes.append(outcome)
        hit_rtts.sort()
        requests = max(1, stats["requests"])
        measured = summed(outcomes)
        measured.extra = {
            "dispatched": stats["dispatched"],
            "expected_dispatched": self._distinct_keys(replies),
            "coalesced": stats["coalesced"],
            "front_hit_frac": stats["front_memory_hits"] / requests,
            "worker_cache_hit_frac":
                stats["worker_cache_hits"] / max(1, stats["completed"]),
            "worker_solve_s": worker_solve,
            "transit_s": transit,
            "hit_rtt_p50_s": hit_rtts[len(hit_rtts) // 2]
            if hit_rtts else 0.0}
        return measured

    def _distinct_keys(self, replies) -> int:
        """The distinct synthesis-cache keys the pass sent, which the
        service's ``dispatched`` must equal."""
        benches = {design_name(bench): bench
                   for bench, *_ in replies}
        return len({synthesis_cache_key(
            verilog_to_behavioral(bench.verilog), bench.architecture,
            TEMPLATE, Budget(BUDGET_SECONDS), EXTRA_CYCLES, False,
            self.spec.random_probes) for bench in benches.values()})


def comparable(record: Dict[str, object]) -> Dict[str, object]:
    """A record without the fields that may differ between runs."""
    return {key: value for key, value in record.items()
            if key not in _RECORD_NOISE}


def record(result, bench) -> Dict[str, object]:
    """The record a service worker builds for ``bench`` from ``result``."""
    return record_from_result(result, architecture=bench.architecture,
                              benchmark=bench.name, form=bench.form.name,
                              width=bench.width, stages=bench.stages,
                              signed=bench.signed).to_dict()


WORKLOADS = {"map-sweep": MapSweep, "solver-hard": SolverHard,
             "serve-mix": ServeMix}
