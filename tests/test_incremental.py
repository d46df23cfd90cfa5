"""Tests for the incremental solving layer: persistent CDCL, the shared
AIG/CNF context, the incremental SMT session, and the CEGIS loop on top.

The load-bearing property throughout is *canonicity*: a warm,
clause-reusing solver must produce exactly the same answers as a cold one
— statuses always, and models canonically (the session refines every
model to the lexicographically smallest input assignment, which is a
property of the formula rather than of the search).  CEGIS inherits it:
one design walks one candidate/counterexample trajectory whichever
portfolio member answers first and however aggressively the solvers
reduce their clause databases."""

import random
import time

import pytest

from repro.bv import (
    bv, bvvar, bvmul, bvand, bvor, bvxor, bvite, bveq, bvne, bvult,
    bvconcat, bvextract, bvlshr, zero_extend,
)
from repro.bv.aig import AIG
from repro.bv.bitblast import IncrementalContext
from repro.bv.cnf import IncrementalCnf, lit_to_cnf
from repro.hdl.behavioral import verilog_to_behavioral
from repro.sat.cnf import CNF
from repro.sat.portfolio import SatPortfolio
from repro.sat.solver import CDCLSolver
from repro.smt.cegis import Obligation, synthesize
from repro.smt.solver import IncrementalSmtSession, SmtSolver


def _random_clauses(rng, num_vars, num_clauses):
    clauses = []
    for _ in range(num_clauses):
        clause = []
        for _ in range(rng.randint(1, 3)):
            var = rng.randint(1, num_vars)
            clause.append(var if rng.random() < 0.5 else -var)
        clauses.append(clause)
    return clauses


class TestIncrementalCdcl:
    def test_add_clause_after_solve_matches_fresh_solver(self):
        rng = random.Random(7)
        for _ in range(60):
            num_vars = rng.randint(3, 10)
            clauses = _random_clauses(rng, num_vars, rng.randint(3, 28))
            cut = rng.randint(0, len(clauses))
            warm = CDCLSolver(CNF(num_vars=num_vars, clauses=clauses[:cut]))
            warm.solve()
            for clause in clauses[cut:]:
                warm.add_clause(clause)
            fresh = CDCLSolver(CNF(num_vars=num_vars, clauses=clauses))
            warm_result, fresh_result = warm.solve(), fresh.solve()
            assert warm_result.status == fresh_result.status
            if warm_result.is_sat:
                assignment = [None] + [warm_result.model[v]
                                       for v in range(1, num_vars + 1)]
                assert CNF(num_vars=num_vars, clauses=clauses).evaluate(assignment)

    def test_assumption_solve_matches_fresh_solver_with_units(self):
        rng = random.Random(13)
        for _ in range(60):
            num_vars = rng.randint(3, 10)
            clauses = _random_clauses(rng, num_vars, rng.randint(3, 28))
            warm = CDCLSolver(CNF(num_vars=num_vars, clauses=clauses))
            warm.solve()  # warm it up: learned clauses + phases retained
            assumptions = []
            for _ in range(rng.randint(1, 3)):
                var = rng.randint(1, num_vars)
                assumptions.append(var if rng.random() < 0.5 else -var)
            result = warm.solve(assumptions=assumptions)
            fresh = CDCLSolver(CNF(num_vars=num_vars,
                                   clauses=clauses + [[a] for a in assumptions]))
            assert result.status == fresh.solve().status

    def test_unsat_core_is_a_real_core(self):
        rng = random.Random(29)
        cores_seen = 0
        for _ in range(80):
            num_vars = rng.randint(3, 9)
            clauses = _random_clauses(rng, num_vars, rng.randint(4, 26))
            solver = CDCLSolver(CNF(num_vars=num_vars, clauses=clauses))
            assumptions = []
            for var in rng.sample(range(1, num_vars + 1), min(3, num_vars)):
                assumptions.append(var if rng.random() < 0.5 else -var)
            result = solver.solve(assumptions=assumptions)
            if not result.is_unsat:
                continue
            core = solver.last_core
            assert core is not None
            assert set(core) <= set(assumptions)
            check = CDCLSolver(CNF(num_vars=num_vars,
                                   clauses=clauses + [[lit] for lit in core]))
            assert check.solve().is_unsat
            cores_seen += 1
        assert cores_seen > 0  # the sample must actually exercise the path

    def test_solver_reusable_after_assumption_unsat(self):
        cnf = CNF(clauses=[[1, 2], [-1, 2]])
        solver = CDCLSolver(cnf)
        assert solver.solve(assumptions=[-2]).is_unsat
        assert solver.last_core == [-2]
        result = solver.solve()
        assert result.is_sat
        assert result.model[2] is True

    def test_empty_start_grows_incrementally(self):
        solver = CDCLSolver()
        assert solver.solve().is_sat
        solver.add_clause([1, 2])
        solver.add_clause([-1])
        result = solver.solve()
        assert result.is_sat and result.model[2] is True
        solver.add_clause([-2])
        assert solver.solve().is_unsat
        # Root-level unsat is permanent.
        assert solver.solve().is_unsat

    def test_learned_clauses_retained_across_calls(self):
        rng = random.Random(3)
        # A pigeonhole-flavoured instance that forces real conflicts.
        clauses = _random_clauses(rng, 12, 60)
        solver = CDCLSolver(CNF(num_vars=12, clauses=clauses))
        solver.solve()
        first = solver.learned_count
        solver.solve(assumptions=[1, 2])
        assert solver.learned_count >= first  # never reset between calls

    def test_configuration_knobs_are_validated(self):
        with pytest.raises(ValueError):
            CDCLSolver(branching="magic")
        with pytest.raises(ValueError):
            CDCLSolver(restart_policy="never")

    def test_diversified_configs_agree_on_status(self):
        rng = random.Random(17)
        configs = [
            {},
            {"restart_base": 8, "var_decay": 0.85},
            {"restart_policy": "geometric", "restart_base": 128,
             "default_phase": True},
            {"branching": "static", "phase_saving": False},
        ]
        for _ in range(25):
            num_vars = rng.randint(3, 9)
            clauses = _random_clauses(rng, num_vars, rng.randint(3, 24))
            statuses = {CDCLSolver(CNF(num_vars=num_vars, clauses=clauses),
                                   **config).solve().status
                        for config in configs}
            assert len(statuses) == 1


def _reference_add_clause(solver, literals):
    """The per-clause load path ``add_clauses`` replaced, kept as an oracle:
    backtrack, grow, dedup, tautology scan, then level-0 reduction."""
    solver._cancel_until(0)
    clause = [int(lit) for lit in literals]
    if clause:
        solver.ensure_vars(max(abs(lit) for lit in clause))
    clause = list(dict.fromkeys(clause))
    if any(-lit in clause for lit in clause):
        return solver._ok
    reduced = []
    for lit in clause:
        value = solver._value(lit)
        if value is True:
            return solver._ok
        if value is None:
            reduced.append(lit)
    if not reduced:
        solver._ok = False
        return False
    if len(reduced) == 1:
        if not solver._enqueue(reduced[0], -1):
            solver._ok = False
        return solver._ok
    off = solver._alloc_clause(reduced, 0, False)
    solver._attach(off, reduced[0], reduced[1])
    return solver._ok


def _solver_state(solver):
    """Every store the load path writes.  Literal- and variable-indexed
    stores are read over ``1..num_vars``: their spare capacity is an
    allocation detail (one bulk growth and many per-clause doublings may
    reserve different amounts) that no search step reads."""
    variables = range(1, solver.num_vars + 1)
    return {
        "arena": list(solver._arena),
        "watches": [(list(solver._watches[v]), list(solver._watches[-v]))
                    for v in variables],
        "vals": [(solver._vals[v], solver._vals[-v]) for v in variables],
        "levels": [solver._levels[v] for v in variables],
        "reasons": [solver._reasons[v] for v in variables],
        "trail": list(solver.trail),
        "trail_lim": list(solver.trail_lim),
        "propagation_head": solver.propagation_head,
        "num_vars": solver.num_vars,
        "heap": list(solver._order.heap),
        "pos": dict(solver._order.pos),
        "ok": solver._ok,
    }


def _load_batch(rng, num_vars, size):
    """Clauses with the edge cases the level-0 contract names: duplicate
    literals, tautologies, empty clauses, units and long clauses."""
    batch = []
    for _ in range(size):
        roll = rng.random()
        if roll < 0.04:
            batch.append([])
            continue
        width = 1 if roll < 0.25 else rng.randint(2, 6)
        clause = [rng.choice((1, -1)) * rng.randint(1, num_vars)
                  for _ in range(width)]
        if roll > 0.85:
            clause.append(clause[0])  # duplicate
        elif roll > 0.75:
            clause.insert(rng.randint(0, len(clause)), -clause[0])  # tautology
        batch.append(clause)
    return batch


class TestBulkClauseLoading:
    """``add_clauses(batch)`` against a loop of ``add_clause`` and against
    the per-clause load path it replaced: the same solver state, store for
    store, after every batch."""

    @staticmethod
    def _prefix(rng, num_vars):
        """A base database whose units and solve leave level-0 facts (and
        usually a model above level 0) for the batch to meet."""
        clauses = _random_clauses(rng, num_vars, rng.randint(2, 3 * num_vars))
        units = [[rng.choice((1, -1)) * v]
                 for v in rng.sample(range(1, num_vars + 1), rng.randint(0, 2))]
        return clauses + units

    def test_bulk_load_matches_per_clause_loads(self):
        rng = random.Random(41)
        above_root = went_unsat = 0
        for _ in range(150):
            num_vars = rng.randint(3, 24)
            config = rng.choice(({}, {"branching": "static"},
                                 {"reduce_interval": 2, "max_lbd_keep": 0}))
            solvers = [CDCLSolver(**config) for _ in range(3)]
            bulk, looped, reference = solvers
            prefix = self._prefix(rng, num_vars)
            bulk.add_clauses(prefix)
            for clause in prefix:
                looped.add_clause(clause)
                _reference_add_clause(reference, clause)
            for _round in range(rng.randint(1, 3)):
                results = [solver.solve().status for solver in solvers]
                assert len(set(results)) == 1
                if bulk.trail_lim:
                    above_root += 1
                # Batches may name variables the solver has not seen yet.
                batch = _load_batch(rng, num_vars + rng.randint(0, 6),
                                    rng.randint(0, 40))
                was_ok = bulk._ok
                assert bulk.add_clauses(batch) == bulk._ok
                for clause in batch:
                    looped.add_clause(clause)
                    _reference_add_clause(reference, clause)
                if was_ok and not bulk._ok:
                    went_unsat += 1
                state = _solver_state(bulk)
                assert _solver_state(looped) == state, batch
                assert _solver_state(reference) == state, batch
                num_vars = bulk.num_vars
        # The sample must reach both of the contract's harder cases.
        assert above_root > 20
        assert went_unsat > 5

    def test_root_assigned_literals_are_dropped_or_satisfy(self):
        solver = CDCLSolver()
        solver.add_clauses([[1], [-2], [3, 4]])
        assert solver.solve().is_sat
        arena_before = list(solver._arena)
        # -1 and 2 are false at level 0, so [-1, 2, 5, 6] attaches as [5, 6];
        # [1, 7] and [-2, 8] are satisfied at level 0 and skipped.
        assert solver.add_clauses([[-1, 2, 5, 6], [1, 7], [-2, 8]])
        assert solver._arena[len(arena_before):] == [2, 0, 0, 5, 6]
        assert solver.trail_lim == []

    def test_unsat_midway_still_loads_the_rest(self):
        bulk, looped = CDCLSolver(), CDCLSolver()
        batch = [[1, 2], [3], [-3], [4, 5], [-4]]
        assert bulk.add_clauses(batch) is False
        for clause in batch:
            looped.add_clause(clause)
        assert _solver_state(bulk) == _solver_state(looped)
        assert bulk.trail == [3, -4]
        assert bulk.solve().is_unsat

    def test_empty_batch_keeps_the_trail(self):
        solver = CDCLSolver(CNF(num_vars=4, clauses=[[1, 2], [3, 4]]))
        assert solver.solve().is_sat
        before = _solver_state(solver)
        assert solver.trail_lim  # the model is still on the trail
        assert solver.add_clauses([]) is True
        assert _solver_state(solver) == before


def _add_random_gates(rng, aig, lits, count):
    for _ in range(count):
        a = rng.choice(lits) ^ rng.randint(0, 1)
        b = rng.choice(lits) ^ rng.randint(0, 1)
        lits.append(aig.and_gate(a, b))


class TestIncrementalCnfEncode:
    def test_encode_emits_the_tseitin_definition_of_each_new_node(self):
        rng = random.Random(53)
        for _ in range(60):
            aig = AIG()
            lits = [aig.add_input(f"x{i}") for i in range(rng.randint(1, 6))]
            _add_random_gates(rng, aig, lits, rng.randint(0, 30))
            encoder = IncrementalCnf(aig)
            encoded = {0}
            for _round in range(rng.randint(1, 4)):
                # The AIG keeps growing between calls.
                _add_random_gates(rng, aig, lits, rng.randint(0, 10))
                requested = [rng.choice(lits) ^ rng.randint(0, 1)
                             for _ in range(rng.randint(1, 4))]
                # The cone of the request that is not yet encoded.
                cone, stack = set(), [lit >> 1 for lit in requested]
                while stack:
                    index = stack.pop()
                    if index in cone or index in encoded:
                        continue
                    cone.add(index)
                    if not aig.is_input(index):
                        stack.extend(lit >> 1 for lit in aig.node(index))
                expected = []
                for index in sorted(cone):
                    if aig.is_input(index):
                        continue
                    left, right = (lit_to_cnf(lit) for lit in aig.node(index))
                    expected += [[-(index + 1), left], [-(index + 1), right],
                                 [index + 1, -left, -right]]
                encoded |= cone
                start = len(encoder.cnf.clauses)
                encoder.encode(requested)
                assert encoder.cnf.clauses[start:] == expected
                assert encoder.cnf.num_vars == aig.num_nodes
                assert all(lit != 0 and abs(lit) <= aig.num_nodes
                           for clause in expected for lit in clause)


class TestIncrementalContext:
    def test_literals_are_stable_across_assertions(self):
        context = IncrementalContext()
        hole = bvvar("h", 4)
        context.assert_true(bveq(bvand(hole, bv(3, 4)), bv(1, 4)))
        first = dict(context.input_vars())
        clauses_before = context.cnf.num_clauses
        context.assert_true(bvult(hole, bv(9, 4)))
        second = context.input_vars()
        for name, var in first.items():
            assert second[name] == var  # same bit -> same CNF literal
        # The second obligation only appended clauses; nothing was rebuilt.
        assert context.cnf.num_clauses > clauses_before

    def test_replaying_assertions_reproduces_the_namespace(self):
        constraints = [
            bveq(bvand(bvvar("h", 4), bv(3, 4)), bv(1, 4)),
            bvult(bvvar("h", 4), bv(9, 4)),
            bvne(bvvar("g", 3), bv(0, 3)),
        ]
        incremental = IncrementalContext()
        for constraint in constraints:
            incremental.assert_true(constraint)
        replayed = IncrementalContext()
        for constraint in constraints:
            replayed.assert_true(constraint)
        assert incremental.input_vars() == replayed.input_vars()
        assert incremental.cnf.clauses == replayed.cnf.clauses


class TestIncrementalSmtSession:
    def test_constraints_accumulate(self):
        session = IncrementalSmtSession()
        hole = bvvar("h", 4)
        session.assert_constraints([bvult(hole, bv(9, 4))])
        first = session.check()
        assert first.is_sat
        session.assert_constraints([bvult(bv(5, 4), hole)])
        second = session.check()
        assert second.is_sat
        assert 5 < second.model["h"] < 9
        session.assert_constraints([bveq(hole, bv(2, 4))])
        assert session.check().is_unsat

    def test_models_are_canonical_lex_min(self):
        # h & 3 == 2 leaves bits 2..3 free; the canonical model zeroes them.
        session = IncrementalSmtSession()
        hole = bvvar("h", 4)
        session.assert_constraints([bveq(bvand(hole, bv(3, 4)), bv(2, 4))])
        assert session.check().model["h"] == 2

    def test_warm_session_matches_fresh_replay(self):
        batches = [
            [bvult(bvvar("h", 6), bv(40, 6))],
            [bvult(bv(17, 6), bvvar("h", 6))],
            [bvne(bvvar("h", 6), bv(20, 6)), bvne(bvvar("h", 6), bv(18, 6))],
        ]
        warm = IncrementalSmtSession()
        warm_models = []
        for batch in batches:
            warm.assert_constraints(batch)
            warm_models.append(warm.check().model.as_dict())
        for upto in range(1, len(batches) + 1):
            fresh = IncrementalSmtSession()
            for batch in batches[:upto]:
                fresh.assert_constraints(batch)
            assert fresh.check().model.as_dict() == warm_models[upto - 1]

    def test_constant_false_constraint_is_root_unsat(self):
        session = IncrementalSmtSession()
        session.assert_constraints([bv(0, 1)])
        assert session.check().is_unsat
        session.assert_constraints([bv(1, 1)])
        assert session.check().is_unsat  # permanently

    def test_expired_deadline_reports_unknown(self):
        session = IncrementalSmtSession()
        session.assert_constraints([bvne(bvvar("h", 4), bv(0, 4))])
        assert session.check(deadline=time.monotonic() - 1.0).is_unknown


#: The racing portfolio and its strongest member alone.
_PORTFOLIOS = {"race": SatPortfolio,
               "cdcl": lambda: SatPortfolio.from_names(["cdcl"])}

#: The solver configurations CEGIS must walk one trajectory under: both
#: portfolios, each with the default and with the most aggressive clause-DB
#: reduction in the candidate sessions.
_MODES = [(portfolio, reduced) for portfolio in _PORTFOLIOS
          for reduced in (False, True)]


def _assert_modes_equal(obligations, hole_widths, **kwargs):
    """Every mode must agree on status, hole values, iteration and example
    counts; returns the default mode's result."""
    results = {}
    for portfolio, reduced in _MODES:
        knobs = {"reduce_interval": 2, "max_lbd_keep": 0} if reduced else {}
        results[(portfolio, reduced)] = synthesize(
            obligations, hole_widths,
            solver=SmtSolver(seed=0, portfolio=_PORTFOLIOS[portfolio]()),
            **knobs, **kwargs)
    base = results[("race", False)]
    for key, result in results.items():
        assert result.status == base.status, key
        assert result.hole_values == base.hole_values, key
        assert result.iterations == base.iterations, key
        assert result.examples_used == base.examples_used, key
    return base


class TestIncrementalCegis:
    def test_lut_synthesis_equal_across_modes(self):
        a, b = bvvar("a", 1), bvvar("b", 1)
        memory = bvvar("mem", 4)
        lut = bvextract(0, 0, bvlshr(memory, zero_extend(bvconcat(b, a), 2)))
        result = _assert_modes_equal(
            [Obligation(bvxor(a, b), lut)], {"mem": 4})
        assert result.status == "sat"
        assert result.hole_values["mem"] == 0b0110

    def test_multi_iteration_threshold_equal_across_modes(self):
        width = 10
        x, k = bvvar("x", width), bvvar("k", width)
        result = _assert_modes_equal(
            [Obligation(bvult(x, bv(700, width)), bvult(x, k))], {"k": width},
            random_probes=0, initial_random_examples=0)
        assert result.status == "sat"
        assert result.hole_values == {"k": 700}
        assert result.iterations >= 4  # genuinely multi-iteration

    def test_unsat_equal_across_modes(self):
        width = 8
        a, b, c = bvvar("a", width), bvvar("b", width), bvvar("c", width)
        selector = bvvar("sel", 1)
        product = bvmul(a, b)
        sketch = bvite(selector, bvand(product, c), bvor(product, c))
        result = _assert_modes_equal(
            [Obligation(bvxor(bvmul(a, b), c), sketch)], {"sel": 1})
        assert result.status == "unsat"

    def test_workload_generator_designs_equal_across_modes(
            self, primitive_library, arch_loader, fast_benchmarks):
        from repro.core.sketch_gen import DesignInterface, generate_sketch
        from repro.core.synthesis import f_lr_star

        checked = 0
        for arch_name in ("intel-cyclone10lp", "lattice-ecp5"):
            architecture = arch_loader(arch_name)
            for bench in fast_benchmarks(3, architecture=arch_name):
                design = verilog_to_behavioral(bench.verilog)
                interface = DesignInterface(
                    input_widths=dict(design.input_widths),
                    output_width=design.output_width)
                sketch = generate_sketch("dsp", architecture, interface,
                                         primitive_library)
                outcomes = {}
                for portfolio, make in _PORTFOLIOS.items():
                    outcomes[portfolio] = f_lr_star(
                        sketch, design.program, at_time=design.pipeline_depth,
                        cycles=1, timeout_seconds=60,
                        solver=SmtSolver(seed=0, portfolio=make()))
                base = outcomes["race"]
                for key, outcome in outcomes.items():
                    assert outcome.status == base.status, (bench.name, key)
                    assert outcome.hole_values == base.hole_values, \
                        (bench.name, key)
                    assert outcome.cegis_iterations == base.cegis_iterations, \
                        (bench.name, key)
                checked += 1
        assert checked == 6

    def test_repeated_counterexample_degrades_to_unknown(self, monkeypatch):
        from repro.smt.equivalence import EquivalenceResult
        from repro.smt.model import Model
        import repro.smt.cegis as cegis_mod

        # A verifier that always returns the same bogus counterexample
        # simulates a buggy candidate solver; synthesize must degrade to
        # "unknown" with a diagnostic instead of raising.
        def broken_equivalence(lhs, rhs, deadline=None, solver=None, **kwargs):
            return EquivalenceResult(
                "different", Model({"a": 0, "b": 0}, {"a": 1, "b": 1}))

        monkeypatch.setattr(cegis_mod, "check_equivalence", broken_equivalence)
        a, b = bvvar("a", 1), bvvar("b", 1)
        hole = bvvar("h", 1)
        result = synthesize([Obligation(bvand(a, b), bvand(bvand(a, b), hole))],
                            {"h": 1})
        assert result.status == "unknown"
        assert "repeated counterexample" in result.diagnostic

    def test_incremental_stats_are_reported(self):
        # The candidate sessions' solver telemetry reaches the result.
        width = 10
        x, k = bvvar("x", width), bvvar("k", width)
        m = bvvar("m", width)
        obligation = Obligation(
            bvand(bvult(x, bv(700, width)), bvult(bv(300, width), x)),
            bvand(bvult(x, k), bvult(m, x)))
        result = synthesize([obligation], {"k": width, "m": width},
                            random_probes=0, initial_random_examples=0)
        assert result.succeeded and result.iterations >= 4
        assert result.candidate_strategy == "sat:fresh"
        assert result.candidate_time_seconds > 0
        assert result.propagations > 0 and result.solver_solve_seconds > 0
        assert result.watcher_visits >= result.propagations


def _golden_instances():
    """``name -> (obligations, hole_widths, synthesize kwargs)``."""
    a, b = bvvar("a", 1), bvvar("b", 1)
    memory = bvvar("mem", 4)
    lut = bvextract(0, 0, bvlshr(memory, zero_extend(bvconcat(b, a), 2)))
    x, k, m = bvvar("x", 10), bvvar("k", 10), bvvar("m", 10)
    cold = {"random_probes": 0, "initial_random_examples": 0}
    p, q, c = bvvar("a", 8), bvvar("b", 8), bvvar("c", 8)
    product = bvmul(p, q)
    h1, h2 = bvvar("h1", 12), bvvar("h2", 12)
    return {
        "lut-xor": ([Obligation(bvxor(a, b), lut)], {"mem": 4}, {}),
        "threshold": ([Obligation(bvult(x, bv(700, 10)), bvult(x, k))],
                      {"k": 10}, cold),
        "interval": ([Obligation(
            bvand(bvult(x, bv(700, 10)), bvult(bv(300, 10), x)),
            bvand(bvult(x, k), bvult(m, x)))], {"k": 10, "m": 10}, cold),
        "unsat-mulxor": ([Obligation(
            bvxor(product, c),
            bvite(bvvar("sel", 1), bvand(product, c), bvor(product, c)))],
            {"sel": 1}, {}),
        "semiprime": ([Obligation(bv(3599, 12), bvmul(h1, h2))],
                      {"h1": 12, "h2": 12},
                      dict(cold, hole_constraints=[
                          bvult(h1, bv(64, 12)), bvult(h2, bv(64, 12)),
                          bvult(bv(1, 12), h1), bvult(bv(1, 12), h2)])),
    }


#: (status, hole values, iterations, examples used, candidate-session
#: propagations, watcher visits, probe lanes) per instance.  Like the
#: benchmark's committed records, these pin the whole CEGIS trajectory:
#: a change to canonicalization, probing or the SAT core's search shows
#: up here first.
_GOLDEN = {
    "lut-xor": ("sat", {"mem": 6}, 2, 4, 0, 0, 128),
    "threshold": ("sat", {"k": 700}, 8, 10, 647, 1615, 224),
    "interval": ("sat", {"k": 700, "m": 300}, 13, 15, 3575, 7823, 384),
    "unsat-mulxor": ("unsat", None, 1, 5, 0, 0, 0),
    "semiprime": ("sat", {"h1": 61, "h2": 59}, 1, 1, 2148, 5915, 0),
}


class TestGoldenTrajectories:
    @pytest.mark.parametrize("name", sorted(_GOLDEN))
    def test_trajectory_matches_golden(self, name):
        obligations, holes, kwargs = _golden_instances()[name]
        result = synthesize(obligations, holes, solver=SmtSolver(seed=0),
                            **kwargs)
        assert (result.status, result.hole_values, result.iterations,
                result.examples_used, result.propagations,
                result.watcher_visits, result.probe_lanes_evaluated) \
            == _GOLDEN[name]


class TestSweepEquality:
    def test_parallel_sweep_records_equal_across_modes(self, fast_benchmarks):
        # A sharded sweep under the racing portfolio and a serial sweep
        # under cdcl alone produce the same records, solver counters
        # included.
        from repro.engine.parallel import SessionSpec, run_sweep
        from repro.engine.session import MappingSession
        from repro.harness.runner import ExperimentConfig

        benchmarks = fast_benchmarks(4)
        config = ExperimentConfig()
        raced = run_sweep(benchmarks, config, workers=2,
                          session_spec=SessionSpec(enable_cache=False))
        alone = run_sweep(benchmarks, config, workers=1,
                          session=MappingSession(
                              enable_cache=False,
                              portfolio=_PORTFOLIOS["cdcl"]()))
        records = {}
        for name, result in (("race", raced), ("cdcl", alone)):
            records[name] = [record.to_dict() for record in result.records]
            for record in records[name]:
                for key in ("time_seconds", "solver_solve_seconds"):
                    record.pop(key)
        assert records["race"] == records["cdcl"]


class TestIncrementalVerify:
    """The verification step: canonical portfolio counterexamples."""

    def _interval_instance(self, width=10):
        x, k, m = bvvar("x", width), bvvar("k", width), bvvar("m", width)
        obligation = Obligation(
            bvand(bvult(x, bv(700, width)), bvult(bv(300, width), x)),
            bvand(bvult(x, k), bvult(m, x)))
        return [obligation], {"k": width, "m": width}

    def test_verify_session_counterexamples_are_canonical(self):
        from repro.smt.equivalence import check_equivalence

        width = 8
        x = bvvar("x", width)
        spec = bvult(x, bv(100, width))
        for portfolio, make in _PORTFOLIOS.items():
            # Probing off, so every counterexample comes from the SAT layer.
            solver = SmtSolver(seed=0, random_probes=0, portfolio=make())
            assert check_equivalence(bvult(x, bv(100, width)), spec,
                                     solver=solver, canonical=True
                                     ).is_equivalent
            # The canonical counterexample is the smallest x on which the
            # candidate threshold and the spec disagree.
            for candidate, expected in ((120, 100), (90, 90), (0, 0)):
                result = check_equivalence(bvult(x, bv(candidate, width)),
                                           spec, solver=solver, canonical=True)
                assert result.is_different, (portfolio, candidate)
                assert result.strategy.startswith("sat:")
                assert result.counterexample["x"] == expected, \
                    (portfolio, candidate)

    def test_verify_stats_reported(self):
        obligations, holes = self._interval_instance()
        result = synthesize(obligations, holes, solver=SmtSolver(seed=0),
                            random_probes=0, initial_random_examples=0)
        assert result.succeeded and result.iterations >= 4
        assert result.verify_time_seconds > 0
        assert result.verify_strategy != "none"

    def test_const_true_miter_reports_zero_counterexample(self):
        from repro.smt.equivalence import check_equivalence

        # bveq(a, a) folds to constant 1, so the miter against constant 0
        # normalises to constant true: different on *every* assignment.
        # The result must still carry a usable (all-zeros) counterexample —
        # a None here used to crash the CEGIS loop's counterexample
        # extraction.
        a = bvvar("a", 4)
        result = check_equivalence(bveq(a, a), bv(0, 1))
        assert result.is_different
        assert result.strategy == "normalise"
        assert result.counterexample is not None
        assert result.counterexample.get("a", 0) == 0


class TestCoreSoundness:
    """Every core the incremental session's solver emits must be genuinely
    unsat when re-solved from scratch."""

    @staticmethod
    def _assert_core_unsat_from_scratch(cnf, core, context_label):
        from repro.sat.dpll import DPLLSolver

        fresh = CNF(num_vars=cnf.num_vars,
                    clauses=[list(c) for c in cnf.clauses]
                            + [[lit] for lit in core])
        assert CDCLSolver(fresh).solve().is_unsat, context_label
        # DPLL is an independent engine: a CDCL bug cannot vouch for itself.
        assert DPLLSolver(fresh).solve().is_unsat, context_label

    def test_candidate_session_cores_are_genuinely_unsat(self):
        rng = random.Random(41)
        audited = 0
        for _ in range(12):
            width = rng.randint(3, 6)
            hole = bvvar("h", width)
            session = IncrementalSmtSession()
            session.assert_constraints([
                bvult(hole, bv(rng.randint(2, (1 << width) - 1), width)),
                bvne(hole, bv(rng.randrange(1 << width), width)),
            ])
            check = session.check()
            solver = session._solver
            assert solver is not None
            bit_vars = list(session.context.input_vars().values())
            for _ in range(8):
                assumptions = [var if rng.random() < 0.5 else -var
                               for var in rng.sample(bit_vars,
                                                     rng.randint(1, len(bit_vars)))]
                outcome = solver.solve(assumptions)
                if not outcome.is_unsat:
                    continue
                core = solver.last_core
                assert core is not None
                assert set(core) <= set(assumptions)
                self._assert_core_unsat_from_scratch(
                    session.context.cnf, core, "candidate-session core")
                audited += 1
        assert audited > 0  # the sample must actually exercise the path
