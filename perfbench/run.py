"""The mapper's benchmark: one workload, one seed, one JSON verdict.

Run from the root of a checkout::

    python3 perfbench/run.py --workload map-sweep --seed 1 --seconds 32 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.  Times
are CPU times (``drive.cpu_seconds``): on a shared host, wall times of one
item varied up to threefold between runs as other processes took the
cores.
``--trace 1`` makes the same untraced passes, then replays the first one's
items with the per-layer tracer of ``spans.py`` installed, and reports the
per-layer metrics.  Human-readable figures go to standard error; the last line of
standard output is the JSON result.  The exit code is 1 when a verdict is
wrong or a determinism count differs, and 2 when the program under test
cannot be imported.  ``NOTES.md`` explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
#: Set-up is measured in this many fresh interpreters; the median is kept.
SETUP_PROBES = 7
#: Per-item counts that must repeat exactly across runs of one seed.
_CHECKED_COUNTS = ("cegis_iterations", "probe_lanes", "propagations",
                   "traced.sat.propagations", "traced.sat.solve_calls",
                   "traced.bv.probe_lanes")


def _import_program():
    """Import the program from this checkout's ``src`` (and nowhere else)."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        sys.exit(2)
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: repro was imported from {repro.__file__}, "
              f"not from this checkout", file=sys.stderr)
        sys.exit(2)


def _percentile(values, fraction: float) -> float:
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _peak_rss_mb() -> float:
    """Peak resident set of this process and of every reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _setup_seconds(drive, workload: str, seed: int):
    """Median CPU time and median wall time from starting a fresh
    interpreter to ready, over ``SETUP_PROBES`` interpreters, each building
    the workload's set-up.  The CPU time is the probe's own (from process
    start) plus that of the processes it started, scaled to the nominal
    speed by the reference loop run here before the probe and in the probe
    once it is ready (``drive.host_factor``)."""
    cpu, wall = [], []
    for _ in range(SETUP_PROBES):
        before = drive.host_factor()
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()),
                 "--setup-probe", "--workload", workload, "--seed", str(seed)],
                stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline().split()
            wall.append(time.perf_counter() - start)
            probe.stdout.read()
            if probe.wait(timeout=60) != 0 or line[:1] != ["ready"]:
                raise RuntimeError(f"set-up probe for {workload} failed")
            cpu.append(float(line[1]) * 2.0 / (before + float(line[2])))
    return statistics.median(cpu), statistics.median(wall)


# --------------------------------------------------------------------------- #
# Determinism record
# --------------------------------------------------------------------------- #
def _code_hash() -> str:
    """Digest of the program and benchmark sources, so counts recorded for
    one version are never compared with another version's."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts \
                    and ".state" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _item_counts(outcomes):
    """Per-item checked counts; ``None`` when one item disagrees with
    itself within the run."""
    counts = {}
    for outcome in outcomes:
        mine = {key: outcome.counts[key] for key in _CHECKED_COUNTS
                if key in outcome.counts}
        seen = counts.setdefault(outcome.name, mine)
        if any(seen.get(key, value) != value for key, value in mine.items()):
            return outcome.name, None
        seen.update(mine)
    return None, counts


def _determinism_errors(workload: str, seed: int, passes) -> list:
    """Compare every pass's counts with each other and with the record
    earlier runs of this seed (and this code) left in the checkout."""
    from drive import STATE_DIR

    merged = [outcome for measured in passes for outcome in measured.outcomes]
    name, counts = _item_counts(merged)
    if counts is None:
        return [f"{name}: counts differ between repeats in this run"]
    path = STATE_DIR / _code_hash() / f"{workload}-{seed}.json"
    recorded = json.loads(path.read_text()) if path.exists() else {}
    errors = []
    for item, mine in counts.items():
        theirs = recorded.get(item, {})
        for key in mine.keys() & theirs.keys():
            if mine[key] != theirs[key]:
                errors.append(f"{item}: {key} {mine[key]} here, "
                              f"{theirs[key]} in an earlier run")
        recorded.setdefault(item, {}).update(mine)
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_suffix(f".{os.getpid()}.tmp")
    temporary.write_text(json.dumps(recorded, sort_keys=True))
    temporary.replace(path)
    return errors


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
def _end_to_end(measured, setup_s: float, rss_mb: float) -> dict:
    outcomes = measured.outcomes
    # The cost samples are those of work the program does: map-sweep
    # leaves out its session-cache hits (half of its mappings, near-zero
    # cost), or its p50 would sit on the edge between hits and cold
    # mappings; serve-mix leaves out echoes, whose cost is their step's.
    # A serve-mix step that the front cache answers is a sample.
    samples = [outcome.seconds for outcome in outcomes
               if not outcome.counts.get("cache_hit")
               and not outcome.counts.get("echo")]
    good = [o for o in outcomes if o.status in ("success", "unsat")
            and not o.wrong]
    return {
        "setup_s": (setup_s, "s"),
        "verdicts_per_cpu_s": (len(good) / measured.seconds, "1/s"),
        "cpu_p50_s": (_percentile(samples, 0.50), "s"),
        "cpu_p90_s": (_percentile(samples, 0.90), "s"),
        "solved_frac": (sum(o.status == "success" for o in outcomes)
                        / len(outcomes), "fraction"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def _per_layer(untraced, traced, tracer) -> dict:
    """Per-layer metrics of the traced replay; ``untraced`` is the run's
    best-of pass over the same items."""
    import inputs
    from spans import ITEM_SPANS

    layers = tracer.self_seconds()
    inclusive = tracer.total_seconds()
    counts = tracer.counts
    cold = [o for o in traced.outcomes if not o.counts.get("cache_hit")]
    # The program's own SAT-time telemetry, which counts warm sessions only.
    telemetry_solve_s = sum(o.counts.get("solve_seconds", 0.0) for o in cold)
    attributed = sum(seconds for layer, seconds
                     in tracer.self_seconds(driving_only=True).items()
                     if layer not in ITEM_SPANS)
    solve_wall = counts["sat.solve_wall_s"]
    metrics = {
        "sat.solve_s": (layers.get("sat.solve", 0.0), "s"),
        "sat.solve_calls": (int(counts["sat.solve_calls"]), "count"),
        "sat.propagations": (int(counts["sat.propagations"]), "count"),
        "sat.props_per_s": (counts["sat.propagations"] / solve_wall
                            if solve_wall else 0.0, "1/s"),
        "sat.untracked_s": (solve_wall - telemetry_solve_s, "s"),
        "core.obligations_s": (layers.get("core.obligations", 0.0), "s"),
        "core.synthesis_self_s": (layers.get("core.synthesis", 0.0), "s"),
        "smt.session_check_self_s": (layers.get("smt.session_check", 0.0),
                                     "s"),
        "smt.session_assert_self_s": (layers.get("smt.session_assert", 0.0),
                                      "s"),
        "bv.tseitin_s": (layers.get("bv.tseitin", 0.0), "s"),
        "bv.bitblast_s": (layers.get("bv.bitblast", 0.0), "s"),
        "smt.candidate_s": (inclusive.get("smt.candidate", 0.0), "s"),
        "smt.verify_s": (inclusive.get("smt.verify", 0.0), "s"),
        "smt.candidate_self_s": (layers.get("smt.candidate", 0.0), "s"),
        "smt.verify_self_s": (layers.get("smt.verify", 0.0), "s"),
        "smt.cegis_iterations": (sum(o.counts.get("cegis_iterations", 0)
                                     for o in cold), "count"),
        "smt.cegis_self_s": (layers.get("smt.cegis", 0.0), "s"),
        "bv.bitsim_s": (layers.get("bv.bitsim", 0.0), "s"),
        "bv.probe_lanes": (int(counts["bv.probe_lanes"]), "count"),
        "bv.probe_hit_frac": (counts["bv.probe_hits"]
                              / counts["bv.probe_batches"]
                              if counts["bv.probe_batches"] else 0.0,
                              "fraction"),
        "engine.validate_s": (layers.get("engine.validate", 0.0), "s"),
        "engine.cache_key_s": (layers.get("engine.cache_key", 0.0), "s"),
        "engine.map_self_s": (layers.get("engine.map", 0.0), "s"),
        "engine.cache_hit_frac": (
            traced.extra.get("worker_cache_hit_frac",
                             sum(o.counts.get("cache_hit", 0)
                                 for o in traced.outcomes)
                             / len(traced.outcomes)), "fraction"),
        "hdl.frontend_s": (layers.get("hdl.frontend", 0.0), "s"),
        "core.sketch_s": (layers.get("core.sketch", 0.0), "s"),
        "core.lower_s": (layers.get("core.lower", 0.0), "s"),
        "service.submit_s": (inclusive.get("service.submit", 0.0), "s"),
        "service.front_hit_frac": (traced.extra.get("front_hit_frac", 0.0),
                                   "fraction"),
        "service.dispatched": (int(traced.extra.get("dispatched", 0)),
                               "count"),
        "service.coalesced": (int(traced.extra.get("coalesced", 0)), "count"),
        "service.hit_rtt_p50_s": (traced.extra.get("hit_rtt_p50_s", 0.0),
                                  "s"),
        "service.worker_solve_s": (traced.extra.get("worker_solve_s", 0.0),
                                   "s"),
        "service.transit_s": (traced.extra.get("transit_s", 0.0), "s"),
        "trace.overhead_frac": (traced.seconds / untraced.seconds - 1.0,
                                "fraction"),
        "trace.attributed_frac": (
            attributed / (traced.wall_seconds * tracer.driving_thread_count()),
            "fraction"),
    }
    # One row per solver-hard item (zero on the other workloads): the
    # item's best untraced time.
    for item in sorted(item.name for item in inputs.solver_hard(0)):
        times = [o.seconds for o in untraced.outcomes if o.name == item]
        metrics[f"item.{item}_s"] = (min(times) if times else 0.0, "s")
    return metrics


# --------------------------------------------------------------------------- #
def _build(drive, workload: str, seed: int):
    """The workload's set-up, with the committed answers it checks
    against."""
    expected = json.loads((HERE / "expected.json").read_text())
    table = expected["solver-hard" if workload == "solver-hard" else "sweep"]
    return drive.WORKLOADS[workload](seed, table)


def _setup_probe(workload: str, seed: int) -> None:
    """Build the workload's set-up, report ready, tear it down."""
    _import_program()
    os.chdir(ROOT)
    import drive

    bench = _build(drive, workload, seed)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = drive.cpu_seconds([process.pid for process
                             in multiprocessing.active_children()])
    cpu += children.ru_utime + children.ru_stime
    print(f"ready {cpu!r} {drive.host_factor()!r}", flush=True)
    bench.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("map-sweep", "solver-hard", "serve-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    _import_program()
    os.chdir(ROOT)
    import drive
    from spans import Tracer

    bench = _build(drive, args.workload, args.seed)
    try:
        repeats = bench.measure(args.seconds)
        passes = list(repeats)
        traced = tracer = None
        if args.trace:
            tracer = Tracer()
            traced = bench.replay(tracer)
            passes.append(traced)
    finally:
        bench.close()
    rss_mb = _peak_rss_mb()
    untraced = drive.best_of(repeats)

    # The gates count every attempt, of every repeat and of the replay.
    attempts = [outcome for measured in passes
                for outcome in measured.outcomes]
    wrong = sum(o.wrong for o in attempts)
    failed = sum(o.wrong or o.status not in drive.VERDICTS for o in attempts)
    errors = _determinism_errors(args.workload, args.seed, passes)
    for measured in passes:
        if measured.extra.get("dispatched") != \
                measured.extra.get("expected_dispatched"):
            errors.append(f"service dispatched "
                          f"{measured.extra['dispatched']} solves for "
                          f"{measured.extra['expected_dispatched']} "
                          f"distinct keys")
    if traced is not None and [o.status for o in traced.outcomes] != \
            [o.status for o in repeats[0].outcomes]:
        errors.append("the traced replay reached different verdicts")

    gates = {"gate.wrong_verdicts": (wrong, "count"),
             "gate.fail_frac": (failed / len(attempts), "fraction")}
    if args.trace:
        metrics = {**_per_layer(untraced, traced, tracer), **gates}
    else:
        setup_s, setup_wall = _setup_seconds(drive, args.workload, args.seed)
        metrics = _end_to_end(untraced, setup_s, rss_mb)
        print(f"set-up wall time (median) {setup_wall:.4f} s",
              file=sys.stderr)

    for name, (value, unit) in {**metrics, **gates}.items():
        print(f"{name:32s} {value:14.6g} {unit}", file=sys.stderr)
    print(f"attempted {len(attempts)}, failed {failed}, measured "
          f"{untraced.seconds:.2f} s scaled CPU, {untraced.cpu_seconds:.2f} s "
          f"CPU, {untraced.wall_seconds:.2f} s wall", file=sys.stderr)
    for error in errors:
        print(f"determinism: {error}", file=sys.stderr)
    correct = wrong == 0 and not errors
    print(json.dumps({
        "correct": correct, "attempted": len(attempts), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
