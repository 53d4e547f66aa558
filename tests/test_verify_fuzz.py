"""Tests for repro.verify.fuzz — the seeded transcript fuzzing harness.

The harness's value rests on two properties that must themselves be tested:
it is *deterministic* (same seed → same drawn cases → same verdicts, so a
red CI seed replays locally), and its failure reports carry everything
needed to replay one case in isolation (the case JSON round-trips).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.utils.rng import derive_rng
from repro.verify import (
    FuzzCase,
    FuzzFailure,
    FuzzReport,
    draw_case,
    run_case,
    run_fuzz,
    transcripts_equal,
)
from repro.crypto.ring import Ring
from repro.verify import fuzz
from repro.verify.fuzz import build_graph, case_ring


class TestFuzzCase:
    def test_json_round_trip(self):
        case = draw_case(derive_rng(3), 0)
        assert FuzzCase.from_json(case.to_json()) == case

    def test_json_is_stable_and_sorted(self):
        case = draw_case(derive_rng(3), 0)
        payload = json.loads(case.to_json())
        assert list(payload) == sorted(payload)
        assert case.to_json() == case.to_json()

    def test_config_kwargs_overrides(self):
        case = draw_case(derive_rng(3), 0)
        kwargs = case.config_kwargs(counting_backend="matrix", workers=None)
        assert kwargs["counting_backend"] == "matrix"
        assert kwargs["workers"] is None
        assert kwargs["seed"] == case.seed

    def test_build_graph_deterministic(self):
        case = draw_case(derive_rng(5), 0)
        graph_a = build_graph(case)
        graph_b = build_graph(case)
        assert graph_a.edge_list() == graph_b.edge_list()
        assert graph_a.num_nodes == case.num_nodes


class TestDrawCase:
    def test_draws_are_valid_and_diverse(self):
        rng = derive_rng(0)
        cases = [draw_case(rng, index) for index in range(60)]
        assert {case.statistic for case in cases} == {
            "triangles", "kstars", "wedges", "4cycles"
        }
        assert {case.backend for case in cases} == {
            "faithful", "batched", "matrix", "blocked"
        }
        for case in cases:
            assert 0 <= case.seed < 2**31
            assert case.num_nodes >= 6
            if case.sparse == "force":
                assert case.statistic in ("kstars", "wedges")
            assert 0 <= case.ring_slack <= 8
            if case.ring != "slack":
                assert case.ring_slack == 0
        assert {case.ring for case in cases} == {"derived", "pinned64", "slack"}
        distributed = [case for case in cases if case.distributed]
        assert distributed
        for case in distributed:
            # Only what the runtime's validator accepts is drawn distributed.
            assert case.statistic == "triangles"
            assert case.workers in (None, 1) and case.tile_window is None

    def test_same_rng_state_same_case(self):
        assert draw_case(derive_rng(9), 0) == draw_case(derive_rng(9), 0)


class TestDeterminism:
    def test_same_seed_same_cases_and_verdicts(self):
        report_a = run_fuzz(num_cases=6, seed=123)
        report_b = run_fuzz(num_cases=6, seed=123)
        assert report_a.cases == report_b.cases
        assert [f.case for f in report_a.failures] == [f.case for f in report_b.failures]
        assert report_a.to_json() == report_b.to_json()

    def test_different_seed_different_cases(self):
        assert run_fuzz(num_cases=4, seed=1).cases != run_fuzz(num_cases=4, seed=2).cases

    def test_on_case_sees_every_case_in_order(self):
        seen = []
        report = run_fuzz(
            num_cases=5, seed=3, on_case=lambda i, case, problems: seen.append((i, case))
        )
        assert [case for _, case in seen] == list(report.cases)
        assert [i for i, _ in seen] == list(range(5))


class TestFailureReporting:
    def test_failure_repro_embeds_case_json(self):
        case = draw_case(derive_rng(1), 0)
        failure = FuzzFailure(case=case, problems=("count mismatch",))
        assert case.to_json() in failure.repro
        assert "count mismatch" in failure.repro

    def test_report_json_carries_failures(self):
        case = draw_case(derive_rng(1), 0)
        report = FuzzReport(
            seed=1,
            num_cases=1,
            cases=(case,),
            failures=(FuzzFailure(case=case, problems=("boom",)),),
        )
        assert not report.passed
        payload = json.loads(report.to_json())
        assert payload["failures"][0]["problems"] == ["boom"]
        assert payload["failures"][0]["case"]["seed"] == case.seed

    def test_run_case_reports_problems_instead_of_raising(self):
        bad = FuzzCase(
            seed=1,
            num_nodes=8,
            edge_probability=0.5,
            statistic="triangles",
            backend="matrix",
            sparse="force",  # triangles cannot run degree-local
        )
        problems = run_case(bad)
        assert problems
        assert any("typed failure" in problem for problem in problems)


class TestTranscriptsEqual:
    def test_detects_value_and_length_differences(self):
        from repro.crypto.views import ViewRecorder

        a = ViewRecorder()
        b = ViewRecorder()
        for recorder in (a, b):
            for server in (1, 2):
                recorder.observe(server, "round", np.arange(3, dtype=np.uint64))
        assert transcripts_equal(a, b)
        b.observe(1, "round", np.arange(3, dtype=np.uint64))
        assert not transcripts_equal(a, b)

    def test_handles_ragged_composite_entries(self):
        from repro.crypto.views import ViewRecorder

        ragged = (np.zeros(2, dtype=np.uint64), np.zeros((2, 3), dtype=np.uint64))
        a = ViewRecorder()
        b = ViewRecorder()
        for recorder in (a, b):
            for server in (1, 2):
                recorder.observe(server, "tile", ragged)
        assert transcripts_equal(a, b)
        c = ViewRecorder()
        for server in (1, 2):
            c.observe(
                server,
                "tile",
                (np.ones(2, dtype=np.uint64), np.zeros((2, 3), dtype=np.uint64)),
            )
        assert not transcripts_equal(a, c)


class TestCaseRing:
    def _case(self, **overrides):
        return FuzzCase(
            seed=11, num_nodes=9, edge_probability=0.5, statistic="triangles",
            backend="blocked", block_size=4, **overrides,
        )

    def test_three_ways_to_pick_the_ring(self):
        graph = build_graph(self._case())
        assert case_ring(self._case(), graph, 2.0) is None
        assert case_ring(self._case(ring="pinned64"), graph, 2.0) == Ring(64)
        exact = case_ring(self._case(ring="slack"), graph, 2.0)
        wider = case_ring(self._case(ring="slack", ring_slack=3), graph, 2.0)
        assert exact.bits < 40 and wider.bits == exact.bits + 3

    @pytest.mark.parametrize("backend", ("faithful", "batched", "matrix", "blocked"))
    def test_exact_derived_width_pinned_passes(self, backend):
        case = FuzzCase(
            seed=11, num_nodes=9, edge_probability=0.5, statistic="4cycles",
            backend=backend, ring="slack",
        )
        assert run_case(case) == []


class TestRunCase:
    @pytest.mark.parametrize("distributed", (False, True))
    @pytest.mark.parametrize("backend", ("matrix", "blocked"))
    def test_known_good_case_passes(self, backend, distributed):
        case = FuzzCase(
            seed=11,
            num_nodes=9,
            edge_probability=0.5,
            statistic="triangles",
            backend=backend,
            distributed=distributed,
        )
        assert run_case(case) == []


class TestEntryPoint:
    def test_green_budget_exits_zero_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert fuzz.main(["--cases", "2", "--seed", "7"]) == 0
        assert "fuzz: 2 cases from seed 7, 0 failing" in capsys.readouterr().out
        assert not (tmp_path / fuzz.FAILURES_FILE).exists()

    def test_red_budget_exits_nonzero_and_writes_the_report(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(fuzz, "run_case", lambda case: ["planted"])
        assert fuzz.main(["--cases", "2", "--seed", "7"]) == 1
        assert "2 failing" in capsys.readouterr().out
        payload = json.loads((tmp_path / fuzz.FAILURES_FILE).read_text())
        assert [failure["problems"] for failure in payload["failures"]] == [["planted"]] * 2
