"""Tests for the parallel execution layer: sharded sweeps, the
process-based portfolio race, record transport, and baseline labeling."""

import multiprocessing
import time
import warnings

import pytest

from repro.baselines import YosysLikeMapper, sota_for
from repro.engine.backends import SolverBackend
from repro.engine.parallel import SessionSpec, run_lakeroad_parallel, run_sweep
from repro.engine.session import MappingSession
from repro.harness.runner import (
    ExperimentConfig,
    MappingRecord,
    record_from_result,
    records_from_jsonl,
    records_to_jsonl,
    run_baselines,
    run_lakeroad,
)
from repro.sat.cnf import CNF
from repro.sat.portfolio import ProcessPortfolio, SatPortfolio, make_portfolio
from repro.sat.solver import SatResult
from repro.workloads import sample_workloads

from _fixtures import AND4, small_workloads as _fast_benchmarks

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="requires the fork start method")


def _comparable(record: MappingRecord) -> dict:
    """Record content minus the wall-clock-dependent fields."""
    data = record.to_dict()
    data.pop("time_seconds")
    data.pop("solver_solve_seconds")
    data.pop("cache_hit")
    return data


# --------------------------------------------------------------------------- #
# Sharded sweeps
# --------------------------------------------------------------------------- #
class TestShardedSweep:
    def test_parallel_records_match_serial_in_content_and_order(self):
        """The ISSUE's acceptance bar: workers=4 must reproduce the serial
        records exactly (modulo timing fields), identically ordered."""
        benchmarks = _fast_benchmarks(4)
        config = ExperimentConfig(validate=False)
        serial = run_lakeroad_parallel(benchmarks, config, workers=1)
        parallel = run_lakeroad_parallel(benchmarks, config, workers=4)
        assert [_comparable(r) for r in serial] == [_comparable(r) for r in parallel]
        assert [r.benchmark for r in parallel] == [b.name for b in benchmarks]

    def test_run_sweep_aggregates_worker_stats(self):
        benchmarks = _fast_benchmarks(4)
        result = run_sweep(benchmarks, ExperimentConfig(validate=False), workers=2)
        assert result.workers == 2
        assert len(result.records) == len(benchmarks)
        stats = result.cache_stats
        # Every benchmark was either synthesized (a miss) or served from a
        # worker's warm cache (a hit).
        assert stats["hits"] + stats["misses"] == len(benchmarks)
        assert sum(result.portfolio_wins.values()) >= 0

    def test_workers_capped_at_benchmark_count(self):
        benchmarks = _fast_benchmarks(2)
        result = run_sweep(benchmarks, ExperimentConfig(validate=False), workers=16)
        assert result.workers == 2
        assert len(result.records) == 2

    def test_run_lakeroad_workers_knob_delegates_to_sharding(self):
        benchmarks = _fast_benchmarks(3)
        config = ExperimentConfig(validate=False)
        serial = run_lakeroad(benchmarks, config)
        sharded = run_lakeroad(benchmarks, config, workers=2)
        assert [_comparable(r) for r in serial] == [_comparable(r) for r in sharded]

    def test_run_lakeroad_workers_from_config(self):
        benchmarks = _fast_benchmarks(2)
        config = ExperimentConfig(validate=False, workers=2)
        records = run_lakeroad(benchmarks, config)
        assert [r.benchmark for r in records] == [b.name for b in benchmarks]

    def test_injected_session_rejected_for_multiprocess_runs(self):
        benchmarks = _fast_benchmarks(2)
        with pytest.raises(ValueError):
            run_lakeroad(benchmarks, ExperimentConfig(validate=False),
                         session=MappingSession(), workers=2)
        with pytest.raises(ValueError):
            run_sweep(benchmarks, ExperimentConfig(validate=False),
                      session=MappingSession(), workers=2)

    def test_empty_benchmark_list(self):
        result = run_sweep([], ExperimentConfig(validate=False), workers=4)
        assert result.records == [] and result.workers == 1

    def test_serial_run_lakeroad_honours_config_cache_dir(self, tmp_path):
        """Regression: the serial (workers=1) path must build its session
        from the config's cache_dir/portfolio knobs, not silently fall back
        to the default in-memory session."""
        benchmarks = _fast_benchmarks(2)
        config = ExperimentConfig(validate=False, cache_dir=str(tmp_path))
        cold = run_lakeroad(benchmarks, config)
        # (Later cold records may legitimately hit in-session: sign twins
        # share a canonical fingerprint.  The first one cannot.)
        assert not cold[0].cache_hit
        warm = run_lakeroad(benchmarks, config)  # fresh session, same disk
        assert all(r.cache_hit for r in warm)

    def test_workers_share_the_disk_cache(self, tmp_path):
        benchmarks = _fast_benchmarks(4)
        config = ExperimentConfig(validate=False, cache_dir=str(tmp_path))
        cold = run_sweep(benchmarks, config, workers=2)
        warm = run_sweep(benchmarks, config, workers=2)
        assert warm.record_cache_hits == len(benchmarks)
        assert warm.hit_rate == 1.0
        assert [_comparable(r) for r in cold.records] == \
            [_comparable(r) for r in warm.records]

    def test_session_spec_builds_configured_sessions(self, tmp_path):
        spec = SessionSpec(portfolio="sequential", cache_dir=str(tmp_path),
                           enable_cache=False)
        session = spec.build()
        assert not session.portfolio.concurrent
        assert not session.enable_cache


# --------------------------------------------------------------------------- #
# Record transport
# --------------------------------------------------------------------------- #
class TestRecordTransport:
    def _record(self):
        return MappingRecord(tool="lakeroad", architecture="sofa", benchmark="b",
                             form="mul", width=8, stages=1, signed=True,
                             outcome="success", time_seconds=1.25, dsps=1,
                             luts=2, registers=3, cache_hit=True,
                             tool_variant="")

    def test_dict_round_trip(self):
        record = self._record()
        assert MappingRecord.from_dict(record.to_dict()) == record

    def test_from_dict_ignores_unknown_keys(self):
        data = self._record().to_dict()
        data["future_field"] = "whatever"
        assert MappingRecord.from_dict(data) == self._record()

    def test_jsonl_round_trip(self, tmp_path):
        records = [self._record(),
                   MappingRecord(tool="yosys", architecture="lattice-ecp5",
                                 benchmark="c", form="mul_add", width=10,
                                 stages=0, signed=False, outcome="fail",
                                 time_seconds=0.5, tool_variant="yosys")]
        path = records_to_jsonl(records, tmp_path / "records.jsonl")
        assert records_from_jsonl(path) == records

    def test_jsonl_skips_blank_lines(self, tmp_path):
        path = tmp_path / "records.jsonl"
        records_to_jsonl([self._record()], path)
        path.write_text(path.read_text() + "\n\n")
        assert len(records_from_jsonl(path)) == 1

    def test_record_keys_are_pinned(self, mul8_verilog):
        # Archived JSONL dumps and the benchmark's committed records carry
        # exactly these keys; the six retired CEGIS-mode fields stay, with
        # values nothing sets any more.
        with MappingSession(enable_cache=False) as session:
            result = session.map_verilog(mul8_verilog, template="dsp",
                                         arch="intel-cyclone10lp",
                                         validate=False)
        data = record_from_result(result, architecture="intel-cyclone10lp",
                                  benchmark="mul8", form="mul", width=8,
                                  stages=0, signed=False).to_dict()
        assert sorted(data) == [
            "architecture", "benchmark", "cache_hit", "clauses_deleted",
            "clauses_retained", "cores_pruned", "db_size_peak", "dsps",
            "form", "incremental", "incremental_verify", "luts", "outcome",
            "prefilter_cex_found", "probe_hits", "probe_lanes_evaluated",
            "propagations", "registers", "signed", "solver_restarts",
            "solver_solve_seconds", "stages", "time_seconds", "tool",
            "tool_variant", "verify_clauses_retained", "watcher_visits",
            "width"]
        assert data["outcome"] == "success"
        assert {key: data[key] for key in (
            "incremental", "incremental_verify", "clauses_retained",
            "verify_clauses_retained", "cores_pruned", "solver_restarts")} \
            == {"incremental": False, "incremental_verify": False,
                "clauses_retained": 0, "verify_clauses_retained": 0,
                "cores_pruned": 0, "solver_restarts": 0}
        assert data["incremental"] is False and data["incremental_verify"] is False


# --------------------------------------------------------------------------- #
# Baseline tool labeling
# --------------------------------------------------------------------------- #
class TestBaselineLabels:
    def test_records_carry_family_and_variant(self):
        benchmarks = sample_workloads("lattice-ecp5", 2, seed=0, max_width=8)
        records = run_baselines(benchmarks)
        by_tool = {record.tool for record in records}
        assert by_tool == {"sota", "yosys"}
        variants = {record.tool_variant for record in records if record.tool == "sota"}
        assert variants == {"sota-lattice"}
        assert all(record.tool_variant == "yosys"
                   for record in records if record.tool == "yosys")

    def test_labels_come_from_the_mapper_not_list_position(self):
        assert sota_for("intel-cyclone10lp").family == "sota"
        assert sota_for("intel-cyclone10lp").name == "sota-intel"
        assert YosysLikeMapper().family == "yosys"
        assert YosysLikeMapper().name == "yosys"


# --------------------------------------------------------------------------- #
# Process-based portfolio racing
# --------------------------------------------------------------------------- #
def _cnf():
    return CNF(clauses=[[1, 2], [-1], [-2, 3]])


def _fast_unsat(cnf, deadline, assumptions, should_stop=None):
    return SatResult(status="unsat")


def _slow_sat(cnf, deadline, assumptions, should_stop=None):
    time.sleep(30)
    return SatResult(status="sat", model={})


def _unknown(cnf, deadline, assumptions, should_stop=None):
    return SatResult(status="unknown")


def _crash(cnf, deadline, assumptions, should_stop=None):
    raise RuntimeError("boom")


@needs_fork
class TestProcessPortfolio:
    def test_winner_returns_without_waiting_for_hard_killed_loser(self):
        portfolio = ProcessPortfolio([SolverBackend("slow", _slow_sat),
                                      SolverBackend("fast", _fast_unsat)])
        start = time.monotonic()
        result, winner = portfolio.solve(_cnf())
        elapsed = time.monotonic() - start
        assert winner == "fast" and result.is_unsat
        # The 30 s sleeper is terminated, not joined to completion.
        assert elapsed < 5.0
        assert portfolio.win_counts() == {"fast": 1}

    def test_all_unknown_returns_unknown(self):
        portfolio = ProcessPortfolio([SolverBackend("u1", _unknown),
                                      SolverBackend("u2", _unknown)])
        result, winner = portfolio.solve(_cnf(), deadline=time.monotonic() + 10.0)
        assert result.is_unknown and winner == "none"

    def test_crashing_member_loses_race(self):
        portfolio = ProcessPortfolio([SolverBackend("crash", _crash),
                                      SolverBackend("steady", _fast_unsat)])
        result, winner = portfolio.solve(_cnf())
        assert winner == "steady" and result.is_unsat

    def test_all_members_crashing_raises(self):
        portfolio = ProcessPortfolio([SolverBackend("crash-a", _crash),
                                      SolverBackend("crash-b", _crash)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(RuntimeError, match="boom"):
                portfolio.solve(_cnf())

    def test_deadline_hard_kills_all_members(self):
        portfolio = ProcessPortfolio([SolverBackend("s1", _slow_sat),
                                      SolverBackend("s2", _slow_sat)])
        start = time.monotonic()
        result, winner = portfolio.solve(_cnf(), deadline=time.monotonic() + 0.3)
        assert result.is_unknown and winner == "none"
        assert time.monotonic() - start < 5.0

    def test_default_members_solve_real_cnf(self):
        portfolio = ProcessPortfolio()
        result, winner = portfolio.solve(_cnf(), deadline=time.monotonic() + 30.0)
        assert result.is_sat
        assert winner in portfolio.member_names

    def test_single_member_short_circuits_to_sequential(self):
        calls = []

        def observed(cnf, deadline, assumptions, should_stop=None):
            calls.append(True)  # runs in-process, so the append is visible
            return SatResult(status="unsat")

        portfolio = ProcessPortfolio([SolverBackend("only", observed)])
        result, winner = portfolio.solve(_cnf())
        assert result.is_unsat and winner == "only" and calls


class TestPortfolioFactory:
    def test_make_portfolio_kinds(self):
        assert isinstance(make_portfolio("process"), ProcessPortfolio)
        thread = make_portfolio("thread")
        assert isinstance(thread, SatPortfolio) and thread.concurrent
        sequential = make_portfolio("sequential")
        assert not sequential.concurrent
        with pytest.raises(ValueError):
            make_portfolio("quantum")

    def test_make_portfolio_by_names(self):
        portfolio = make_portfolio("thread", names=["cdcl"])
        assert portfolio.member_names == ["cdcl"]

    @needs_fork
    def test_session_portfolio_switch_end_to_end(self):
        session = MappingSession(portfolio="process")
        assert isinstance(session.portfolio, ProcessPortfolio)
        assert session.solver.portfolio is session.portfolio
        result = session.map_verilog(AND4, template="bitwise", arch="sofa",
                                     timeout_seconds=60)
        assert result.status == "success"
