"""Per-layer attribution, timed from outside the program.

The benchmark does not change the program to trace it.  Instead it
replaces the public function of each layer, for the duration of a traced
pass, with a wrapper that opens a span around the call.  A function is
replaced where its caller looks it up (``repro.core.synthesis.output_pairs``,
not ``repro.core.equivalence.output_pairs``), because ``from x import y``
binds the name in the caller's module.  Methods are replaced on the class,
so every instance is covered, including the solvers that portfolio race
threads build.

Every thread keeps its own span stack, so spans of race threads never nest
under the driving thread's spans.  A span's self time is its duration minus
the time its children (on the same thread) took.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

# (owner, attribute, layer) for every layer boundary.  The owner is a module
# path or "module:Class"; the layer is the name the call's self time is
# charged to.  Order does not matter.
LAYER_BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.engine.session", "verilog_to_behavioral", "hdl.frontend"),
    # The service front door imports the frontend inside the function.
    ("repro.hdl.behavioral", "verilog_to_behavioral", "hdl.frontend"),
    ("repro.engine.service:SolverService", "submit", "service.submit"),
    ("repro.engine.session", "synthesis_cache_key", "engine.cache_key"),
    ("repro.engine.session", "generate_sketch", "core.sketch"),
    ("repro.engine.session", "f_lr_star", "core.synthesis"),
    ("repro.core.synthesis", "output_pairs", "core.obligations"),
    ("repro.core.synthesis", "synthesize", "smt.cegis"),
    ("repro.smt.cegis", "_solve_candidate", "smt.candidate"),
    ("repro.smt.cegis", "check_equivalence", "smt.verify"),
    ("repro.smt.solver:IncrementalSmtSession", "check", "smt.session_check"),
    ("repro.smt.solver:IncrementalSmtSession", "assert_constraints",
     "smt.session_assert"),
    ("repro.bv.bitblast:BitBlaster", "blast", "bv.bitblast"),
    ("repro.bv.cnf:IncrementalCnf", "encode", "bv.tseitin"),
    ("repro.smt.solver", "aig_to_cnf", "bv.tseitin"),
    ("repro.bv.bitsim:PackedEvaluator", "__init__", "bv.bitsim"),
    ("repro.sat.portfolio:SatPortfolio", "solve", "sat.solve"),
    ("repro.engine.session", "lower_to_verilog", "core.lower"),
    ("repro.engine.session", "_validate_by_simulation", "engine.validate"),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


class Tracer:
    """Span recorder with per-thread stacks and per-layer totals.

    ``install`` patches every layer boundary plus the two counted entry
    points (``CDCLSolver.solve`` and ``PackedEvaluator.sat_lanes``);
    ``uninstall`` restores the originals.  Use it as a context manager.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        # One (thread name, layer -> [self s, inclusive s, calls]) per
        # thread that opened a span.  A list, not a dict by thread ident:
        # idents of finished threads are reused.
        self._totals: List[Tuple[str, Dict[str, List[float]]]] = []
        self._saved: List[Tuple[object, str, object]] = []
        #: Counts taken at the SAT and probe boundaries, over all threads.
        self.counts: Dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------------ #
    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0, 0])
            state = self._local.state = ([], totals)
            with self._lock:
                self._totals.append((threading.current_thread().name, totals))
        return state

    def _enter(self):
        stack, totals = self._state()
        # A frame accumulates the time its children took.
        frame = [0.0]
        stack.append(frame)
        return stack, totals, frame, time.perf_counter()

    @staticmethod
    def _exit(layer: str, stack, totals, frame, start: float) -> float:
        duration = time.perf_counter() - start
        stack.pop()
        entry = totals[layer]
        entry[0] += duration - frame[0]
        entry[1] += duration
        entry[2] += 1
        if stack:
            stack[-1][0] += duration
        return duration

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Time a block; its self time is charged to ``layer``."""
        opened = self._enter()
        try:
            yield
        finally:
            self._exit(layer, *opened)

    def _wrap(self, function: Callable, layer: str) -> Callable:
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            opened = enter()
            try:
                return function(*args, **kwargs)
            finally:
                leave(layer, *opened)

        traced.__wrapped__ = function
        return traced

    def _patch(self, target, attribute: str, replacement) -> None:
        self._saved.append((target, attribute, getattr(target, attribute)))
        setattr(target, attribute, replacement)

    # ------------------------------------------------------------------ #
    def install(self) -> "Tracer":
        for owner, attribute, layer in LAYER_BOUNDARIES:
            target = _resolve(owner)
            self._patch(target, attribute,
                        self._wrap(getattr(target, attribute), layer))
        self._patch_sat_solve()
        self._patch_probe()
        return self

    def _patch_sat_solve(self) -> None:
        """``CDCLSolver.solve``: a ``sat.solve`` span plus the call count,
        propagations and wall time of every solve on every thread."""
        from repro.sat.solver import CDCLSolver

        original = CDCLSolver.solve
        enter, leave = self._enter, self._exit
        counts, lock = self.counts, self._lock

        def solve(solver, *args, **kwargs):
            before = solver.propagations_total
            opened = enter()
            try:
                return original(solver, *args, **kwargs)
            finally:
                elapsed = leave("sat.solve", *opened)
                with lock:
                    counts["sat.solve_calls"] += 1
                    counts["sat.propagations"] += \
                        solver.propagations_total - before
                    counts["sat.solve_wall_s"] += elapsed

        self._patch(CDCLSolver, "solve", solve)

    def _patch_probe(self) -> None:
        """``PackedEvaluator.sat_lanes``: a ``bv.bitsim`` span plus lanes
        evaluated, batches and batches with a satisfying lane."""
        from repro.bv.bitsim import PackedEvaluator

        original = PackedEvaluator.sat_lanes
        enter, leave = self._enter, self._exit
        counts, lock = self.counts, self._lock

        def sat_lanes(evaluator, assignments):
            opened = enter()
            try:
                hits = original(evaluator, assignments)
            finally:
                leave("bv.bitsim", *opened)
            with lock:
                counts["bv.probe_lanes"] += len(assignments)
                counts["bv.probe_batches"] += 1
                counts["bv.probe_hits"] += 1 if hits else 0
            return hits

        self._patch(PackedEvaluator, "sat_lanes", sat_lanes)

    def uninstall(self) -> None:
        while self._saved:
            target, attribute, original = self._saved.pop()
            setattr(target, attribute, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ #
    # Items that run in a forked child (see ``drive.in_child``) trace into
    # the child's copy of the tracer: the child clears it first and ships
    # ``export()`` back, and the parent adds that with ``absorb``.
    def clear(self) -> None:
        """Forget every span and count (the wrappers stay installed)."""
        with self._lock:
            self._local = threading.local()
            self._totals = []
            self.counts.clear()

    def export(self) -> dict:
        with self._lock:
            return {"totals": [(name, {layer: list(entry) for layer, entry
                                       in totals.items()})
                               for name, totals in self._totals],
                    "counts": dict(self.counts)}

    def absorb(self, exported: dict) -> None:
        """Add a child's spans and counts; a thread's totals merge into
        those of the thread of the same name, so the children's main
        threads count as one driving thread."""
        with self._lock:
            merged = {name: totals for name, totals in self._totals}
            for name, layers in exported["totals"]:
                if name not in merged:
                    merged[name] = defaultdict(lambda: [0.0, 0.0, 0])
                    self._totals.append((name, merged[name]))
                for layer, entry in layers.items():
                    mine = merged[name][layer]
                    for column, value in enumerate(entry):
                        mine[column] += value
            for key, value in exported["counts"].items():
                self.counts[key] += value

    # ------------------------------------------------------------------ #
    def _summed(self, column: int, threads) -> Dict[str, float]:
        summed: Dict[str, float] = defaultdict(float)
        with self._lock:
            chosen = [totals for name, totals in self._totals
                      if threads(name)]
        for totals in chosen:
            for layer, entry in list(totals.items()):
                summed[layer] += entry[column]
        return dict(summed)

    def self_seconds(self, driving_only: bool = False) -> Dict[str, float]:
        """Self time per layer, summed over threads.

        Race threads are left out: the driving thread's ``sat.solve`` span
        around ``SatPortfolio.solve`` already covers the race.  With
        ``driving_only``, only the benchmark's driving threads count.
        """
        return self._summed(0, _is_driving if driving_only else _not_racer)

    def total_seconds(self) -> Dict[str, float]:
        """Inclusive time per layer (children included), race threads
        left out."""
        return self._summed(1, _not_racer)

    def driving_thread_count(self) -> int:
        with self._lock:
            return sum(_is_driving(name) for name, _ in self._totals)


#: Spans the benchmark opens around a whole item.  Their self time is what
#: no layer claimed, so it does not count as attributed.
ITEM_SPANS = ("engine.map", "service.request")
#: The thread that drives a pass (on every workload, the main thread).
#: Attribution is measured on it.
DRIVING_THREADS = ("MainThread",)
#: Threads of a portfolio race (see ``repro.sat.portfolio``).
RACE_THREADS = "sat-portfolio"


def _is_driving(name: str) -> bool:
    return name.startswith(DRIVING_THREADS)


def _not_racer(name: str) -> bool:
    return not name.startswith(RACE_THREADS)
