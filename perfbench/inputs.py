"""Seeded inputs for the three workloads.

Everything the program sees is built here from the ``--seed`` argument:
the same seed gives the same designs, the same item order and the same
request stream.  The designs come from the paper's microbenchmark
enumeration (``repro.workloads.generator``).  Only Lattice ECP5 and Intel
Cyclone 10 LP designs are drawn for the timed sweeps, because they map in
well under a second each; the Xilinx items live in ``solver-hard``.

Sign twins (the signed and unsigned form of one cell) compute the same
truncated function, so they share one synthesis-cache key.  A "cell" below
is a design up to its sign.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.workloads.generator import Microbenchmark, enumerate_workloads

SWEEP_ARCHITECTURES = ("lattice-ecp5", "intel-cyclone10lp")

#: Width stride between consecutive rounds of one stratum.  Coprime with
#: the 11 widths (8..18), so every 11 rounds visit each width once, and
#: any few consecutive rounds take widths spread over the whole range.
_WIDTH_STRIDE = 5

#: serve-mix: each block of this many requests holds ``_NEW_PER_BLOCK``
#: first-seen designs, ``_ECHO_PER_BLOCK`` of which are sent twice at once
#: (to coalesce with the in-flight solve); the rest repeat designs seen
#: earlier (front-cache reads).  3/25 = 12% new, 2/25 = 8% echoes.
_BLOCK = 25
_NEW_PER_BLOCK = 3
_ECHO_PER_BLOCK = 2


def _cells() -> Dict[Tuple[str, str, int], Dict[Tuple[int, bool], Microbenchmark]]:
    """Enumeration designs grouped by stratum ``(arch, form, stages)``,
    then keyed by ``(width, signed)``."""
    strata: Dict[Tuple[str, str, int], Dict[Tuple[int, bool], Microbenchmark]] = {}
    for architecture in SWEEP_ARCHITECTURES:
        for bench in enumerate_workloads(architecture):
            stratum = (architecture, bench.form.name, bench.stages)
            strata.setdefault(stratum, {})[(bench.width, bench.signed)] = bench
    return strata


def twin(bench: Microbenchmark) -> Microbenchmark:
    """The other-signedness design of the same cell."""
    return Microbenchmark(bench.architecture, bench.form, bench.width,
                          bench.stages, not bench.signed)


def stratified_cells(seed: int) -> List[Microbenchmark]:
    """Every sweep cell once, in rounds of one design per stratum.

    Round ``r`` maps stratum ``i`` (in sorted order) at width index
    ``i + 5r`` (mod 11): every round covers the width range evenly, and any
    few rounds of one stratum take widths spread over the range.  The cells
    of each round are fixed; the seed shuffles the order within each round
    and picks each design's sign.  Runs with different seeds therefore do
    the same amount of work, so their spread measures the machine and the
    program rather than the draw.  (With seeded widths, the solve time of
    the first five rounds differed by 25% between seeds.)
    """
    rng = random.Random(seed)
    strata = _cells()
    names = sorted(strata)
    widths = sorted({width for cells in strata.values() for width, _ in cells})
    ordered: List[Microbenchmark] = []
    for round_index in range(len(widths)):
        order = list(enumerate(names))
        rng.shuffle(order)
        for index, stratum in order:
            width = widths[(index + _WIDTH_STRIDE * round_index) % len(widths)]
            ordered.append(strata[stratum][(width, rng.random() < 0.5)])
    return ordered


def map_sweep(seed: int, rounds: int) -> List[Microbenchmark]:
    """The ``map-sweep`` design order over the first ``rounds`` rounds:
    every stratified cell in both signs, the seeded sign first and its twin
    right after it.

    The paper's Fig. 6 enumeration maps both signs of every cell, and the
    twin shares the cell's synthesis-cache key, so the session cache
    answers it: the enumeration itself makes half the mappings cache hits.
    """
    designs: List[Microbenchmark] = []
    for bench in stratified_cells(seed)[:rounds * len(_cells())]:
        designs.extend((bench, twin(bench)))
    return designs


def serve_stream(seed: int) -> Iterator[Tuple[Microbenchmark, bool]]:
    """The ``serve-mix`` request stream, one client step at a time: a
    design, and whether it is sent twice at once (the second copy, the
    echo, coalesces with the solve in flight).  Ends when the cells run
    out."""
    rng = random.Random(seed ^ 0x5E2E)
    fresh = iter(stratified_cells(seed))
    seen: List[Microbenchmark] = []
    while True:
        slots = ["new"] * _NEW_PER_BLOCK + \
            ["repeat"] * (_BLOCK - _NEW_PER_BLOCK - _ECHO_PER_BLOCK)
        rng.shuffle(slots)
        echoes = set(rng.sample(range(_NEW_PER_BLOCK), _ECHO_PER_BLOCK))
        new_index = 0
        for slot in slots:
            if slot == "repeat" and seen:
                bench = rng.choice(seen)
                yield (bench if rng.random() < 0.5 else twin(bench)), False
                continue
            bench = next(fresh, None)
            if bench is None:
                return
            seen.append(bench)
            yield bench, new_index in echoes
            new_index += 1


# --------------------------------------------------------------------------- #
# solver-hard
# --------------------------------------------------------------------------- #
_HARD_DSP = """module add_mul_and(input [15:0] a, input [15:0] b, input [15:0] c,
                   input [15:0] d, output [15:0] out);
  assign out = ((a + b) * c) & d;
endmodule
"""


def _combinational(name: str, expression: str, ports: str) -> str:
    return (f"module {name}(input [7:0] {ports}, output [7:0] out);\n"
            f"  assign out = {expression};\nendmodule\n")


@dataclass(frozen=True)
class HardItem:
    """One ``solver-hard`` item: a Xilinx mapping or a bare CEGIS run."""

    name: str
    kind: str                      # "map" or "cegis"
    verilog: str = ""
    #: CEGIS interval instance: (width, lo, hi, polynomial).
    interval: Tuple[int, int, int, bool] = (0, 0, 0, False)


def solver_hard(seed: int) -> List[HardItem]:
    """The fixed item list, in a seeded order.

    Every item runs on its own fresh session, so the order changes no
    count; it only changes which item runs warm behind which.
    """
    xilinx = {bench.name: bench.verilog
              for bench in enumerate_workloads("xilinx-ultrascale-plus")}
    items = [
        HardItem("dsp-hard", "map", _HARD_DSP),
        *(HardItem(name, "map", xilinx[name]) for name in (
            "presub_mul_or_w10_p0_s", "presub_mul_sub_w12_p0_u",
            "mul_w8_p1_u", "mul_w8_p2_u")),
        HardItem("unsat-mul3", "map",
                 _combinational("mul3", "(a * b) * c", "a, b, c")),
        HardItem("unsat-mulxor", "map",
                 _combinational("mulxor", "(a * b) ^ (a + b)", "a, b")),
        HardItem("square-interval", "cegis", interval=(10, 80, 600, False)),
        HardItem("poly-interval", "cegis", interval=(13, 700, 2900, True)),
    ]
    random.Random(seed).shuffle(items)
    return items
