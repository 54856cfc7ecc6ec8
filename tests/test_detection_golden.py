"""Golden equivalence of the incremental fault-simulation engine.

The event-driven engine (cone schedules + change-driven propagation +
bit-parallel pre-grading) must produce *bit-identical* ``DetectionData`` to
the retained seed ``"reference"`` engine — same (fault, pattern) keys and
exactly equal interval sets — on real ISCAS circuits, a synthetic generated
circuit, and with don't-care patterns (which disable pre-grading).
"""

from __future__ import annotations

import pytest

from repro.atpg.transition import generate_transition_tests
from repro.faults.detection import (
    ENGINES,
    _pregrade_activation,
    _prepare_reach,
    compute_detection_data,
)
from repro.faults.universe import small_delay_fault_universe
from repro.timing.sta import run_sta


def _workload(circuit, *, seed=3, cap=12, fill=True):
    """A flow-like detection workload: universe, patterns, monitors."""
    faults = small_delay_fault_universe(circuit)
    test_set = generate_transition_tests(circuit, seed=seed).test_set
    if len(test_set) > cap:
        test_set = test_set.subset(range(cap))
    if fill:
        test_set = test_set.filled(seed=seed)
    obs = sorted(op.gate for op in circuit.observation_points())
    monitored = frozenset(obs[::2])
    horizon = run_sta(circuit).clock_period
    return faults, test_set, monitored, horizon


def _run(circuit, faults, test_set, monitored, horizon, **kw):
    return compute_detection_data(
        circuit, faults, test_set, horizon=horizon,
        monitored_gates=monitored, **kw)


def _assert_identical(a, b):
    assert set(a.ranges) == set(b.ranges)
    for fi, per_pattern in a.ranges.items():
        assert set(per_pattern) == set(b.ranges[fi])
        for pi, fpr in per_pattern.items():
            other = b.ranges[fi][pi]
            assert fpr.i_all == other.i_all, (fi, pi)
            assert fpr.i_mon == other.i_mon, (fi, pi)


@pytest.fixture(params=["s27", "c17", "small_generated"])
def golden_circuit(request):
    return request.getfixturevalue(request.param)


class TestGoldenEquivalence:
    def test_engines_bit_identical(self, golden_circuit):
        faults, ts, monitored, horizon = _workload(golden_circuit)
        results = {
            engine: _run(golden_circuit, faults, ts, monitored, horizon,
                         engine=engine)
            for engine in ENGINES
        }
        assert results["incremental"].ranges, "workload detected nothing"
        _assert_identical(results["incremental"], results["reference"])
        _assert_identical(results["wordwave"], results["reference"])

    def test_unknown_engine_rejected(self, s27):
        faults, ts, monitored, horizon = _workload(s27, cap=2)
        with pytest.raises(ValueError, match="unknown engine"):
            _run(s27, faults, ts, monitored, horizon, engine="bogus")


class TestParallelParity:
    def test_sequential_vs_jobs4_identical(self, s27):
        faults, ts, monitored, horizon = _workload(s27)
        seq = _run(s27, faults, ts, monitored, horizon, jobs=1)
        par = _run(s27, faults, ts, monitored, horizon, jobs=4)
        _assert_identical(seq, par)

    def test_progress_sequence_matches_sequential(self, s27):
        # Pinned on the incremental engine: wordwave sweeps all patterns
        # in one batch and reports a single (total, total) call instead.
        faults, ts, monitored, horizon = _workload(s27)
        seen: dict[int, list[tuple[int, int]]] = {}
        for jobs in (1, 4):
            calls: list[tuple[int, int]] = []
            _run(s27, faults, ts, monitored, horizon, jobs=jobs,
                 engine="incremental",
                 progress=lambda done, total: calls.append((done, total)))
            seen[jobs] = calls
        n = len(ts)
        assert seen[1] == [(i + 1, n) for i in range(n)]
        assert seen[4] == seen[1]


class TestPregradeSoundness:
    def test_masks_cover_all_detecting_pairs(self, s27):
        faults, ts, monitored, horizon = _workload(s27)
        faults = list(faults)
        _reach, site_signal = _prepare_reach(s27, faults)
        masks = _pregrade_activation(s27, ts, site_signal)
        assert masks is not None
        data = _run(s27, faults, ts, monitored, horizon)
        # Every pair that produced a range must have survived pre-grading:
        # a cleared bit claims the site is provably quiet for that pattern.
        for fi, per_pattern in data.ranges.items():
            for pi in per_pattern:
                assert masks[fi] & (1 << pi), (fi, pi)


class TestDetectionRangeMemo:
    def test_repeated_query_returns_cached_object(self, flow_result_small):
        data = flow_result_small.data
        clock = flow_result_small.clock
        configs = tuple(flow_result_small.configs.delays)
        fi = next(iter(data.ranges))
        first = data.detection_range(fi, configs, clock.t_min, clock.t_nom)
        again = data.detection_range(fi, configs, clock.t_min, clock.t_nom)
        assert again is first

    def test_add_invalidates_memo(self, flow_result_small):
        import copy

        data = copy.deepcopy(flow_result_small.data)
        clock = flow_result_small.clock
        configs = tuple(flow_result_small.configs.delays)
        fi = next(iter(data.ranges))
        pi, fpr = next(iter(data.ranges[fi].items()))
        before = data.detection_range(fi, configs, clock.t_min, clock.t_nom)
        data.add(fi, pi + 1000, fpr)
        after = data.detection_range(fi, configs, clock.t_min, clock.t_nom)
        assert after is not before  # memo entry was dropped and rebuilt
        # Re-adding an existing range only ever extends the union.
        assert after.union(before) == after
