"""Regenerate ``expected.json``, the committed answers the gates compare with.

Run from the root of a checkout::

    python3 perfbench/make_expected.py

``sweep`` holds, for every Lattice ECP5 and Intel Cyclone 10 LP design of
the paper's enumeration, the record of mapping it serially in-process,
without the fields that may differ between runs (``drive.comparable``).
``map-sweep`` and every ``serve-mix`` reply are compared with it.
``solver-hard`` holds the verdict of every item.  Every ``success`` is
re-checked by simulation before it is written, and the script refuses to
write a table with any other outcome than ``success`` or ``unsat``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import drive  # noqa: E402
import inputs  # noqa: E402
from repro.engine.budget import Budget  # noqa: E402
from repro.engine.parallel import SessionSpec  # noqa: E402
from repro.workloads.generator import enumerate_workloads  # noqa: E402


def sweep_records() -> dict:
    records = {}
    with SessionSpec().build() as session:
        for architecture in inputs.SWEEP_ARCHITECTURES:
            for bench in enumerate_workloads(architecture):
                result = session.map_verilog(
                    bench.verilog, template=drive.TEMPLATE, arch=architecture,
                    budget=Budget(drive.BUDGET_SECONDS),
                    extra_cycles=drive.EXTRA_CYCLES, validate=False)
                name = drive.design_name(bench)
                if result.status not in drive.VERDICTS or (
                        result.status == "success"
                        and not drive.mapping_matches_source(
                            bench.verilog, result.program, 0)):
                    raise SystemExit(f"{name}: {result.status} failed its "
                                     f"re-check")
                records[name] = drive.comparable(drive.record(result, bench))
    return records


def solver_hard_verdicts() -> dict:
    workload = drive.SolverHard(0)
    measured = workload.run(0.0)
    workload.check(measured, {outcome.name: outcome.status
                              for outcome in measured.outcomes})
    for outcome in measured.outcomes:
        if outcome.wrong or outcome.status not in drive.VERDICTS:
            raise SystemExit(f"{outcome.name}: {outcome.status} failed its "
                             f"re-check")
    return {outcome.name: outcome.status for outcome in measured.outcomes}


def main() -> None:
    hard = solver_hard_verdicts()
    sweep = sweep_records()
    # One design per line, so a changed record shows as a one-line diff.
    lines = ["{", f' "solver-hard": {json.dumps(hard, sort_keys=True)},',
             ' "sweep": {']
    for index, name in enumerate(sorted(sweep)):
        comma = "," if index < len(sweep) - 1 else ""
        lines.append(f"  {json.dumps(name)}: "
                     f"{json.dumps(sweep[name], sort_keys=True)}{comma}")
    lines += [" }", "}"]
    (HERE / "expected.json").write_text("\n".join(lines) + "\n")
    print(f"wrote {len(sweep)} sweep records and {len(hard)} solver-hard "
          f"verdicts", file=sys.stderr)


if __name__ == "__main__":
    main()
