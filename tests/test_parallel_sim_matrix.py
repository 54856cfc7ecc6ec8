"""Word-matrix kernels of BitParallelSimulator vs the seed big-int API.

The matrix layer (``pack_vectors_words`` / ``simulate_words`` /
``stuck_at_detect_words``) must reproduce the big-int path bit for bit —
same little-endian word convention as :mod:`repro.utils.bitset`, same
detect masks for every fault — across word boundaries and batch sizes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.atpg.patterns import random_test_set
from repro.atpg.transition import transition_fault_list
from repro.faults.models import OUTPUT_PIN, FaultSite, StuckAtFault
from repro.simulation import parallel_sim
from repro.simulation.parallel_sim import (
    BitParallelSimulator,
    mask_row,
    num_words,
    row_to_mask,
)


def _workload(circuit, count, seed=3):
    ts = random_test_set(circuit, count, seed=seed)
    vectors = [p.capture for p in ts]
    sim = BitParallelSimulator(circuit)
    saf = [f.as_stuck_at() for f in transition_fault_list(circuit)]
    return sim, vectors, saf


class TestWordHelpers:
    def test_num_words(self):
        assert [num_words(w) for w in (1, 64, 65, 128, 129)] == [1, 1, 2, 2, 3]

    @pytest.mark.parametrize("width", [1, 63, 64, 65, 130])
    def test_mask_row_roundtrip(self, width):
        row = mask_row(width)
        assert row.dtype == np.uint64
        assert row_to_mask(row) == (1 << width) - 1


class TestMatrixVsBigInt:
    @pytest.mark.parametrize("count", [1, 7, 70])  # 70 → two words
    def test_pack_and_simulate_match(self, s27, count):
        sim, vectors, _ = _workload(s27, count)
        words, width = sim.pack_vectors(vectors)
        good = sim.simulate(words, width)
        matrix, mwidth = sim.pack_vectors_words(vectors)
        assert mwidth == width
        good_m = sim.simulate_words(matrix, width)
        for g in range(len(good)):
            assert row_to_mask(good_m[g]) == good[g], g

    @pytest.mark.parametrize("count", [3, 70])
    def test_stuck_at_detection_matches(self, s27, count):
        sim, vectors, saf = _workload(s27, count)
        words, width = sim.pack_vectors(vectors)
        good = sim.simulate(words, width)
        matrix, _ = sim.pack_vectors_words(vectors)
        good_m = sim.simulate_words(matrix, width)
        det = sim.stuck_at_detect_words(good_m, saf, width)
        for i, f in enumerate(saf):
            assert row_to_mask(det[i]) == \
                sim.stuck_at_detect_mask(good, f, width), f

    def test_batch_size_does_not_change_results(self, small_generated,
                                                monkeypatch):
        sim, vectors, saf = _workload(small_generated, 11, seed=9)
        matrix, width = sim.pack_vectors_words(vectors)
        good_m = sim.simulate_words(matrix, width)
        full = sim.stuck_at_detect_words(good_m, saf, width)
        column_bytes = good_m.shape[0] * good_m.shape[1] * 8
        for cols in (1, 2):  # one and two fault columns per chunk
            monkeypatch.setattr(parallel_sim, "GRADE_BUFFER_BYTES",
                                cols * column_bytes)
            tiny = sim.stuck_at_detect_words(good_m, saf, width)
            assert np.array_equal(full, tiny), cols

    @pytest.mark.parametrize("cols", [1, 2, 64])
    def test_sites_on_several_levels_inside_a_cone(self, small_generated,
                                                   monkeypatch, cols):
        """Sites on different levels, one inside another's fanout cone:
        the inner site is re-forced after its level in the shared chunk."""
        circuit = small_generated
        sim, vectors, _ = _workload(circuit, 70, seed=5)
        outer = max(circuit.combinational_gates(),
                    key=lambda g: len(circuit.fanout_cone(g)))
        inner = max(circuit.fanout_cone(outer), key=circuit.level)
        mid = min(circuit.fanout_cone(outer), key=circuit.level)
        assert circuit.level(outer) < circuit.level(mid) \
            < circuit.level(inner)
        saf = [StuckAtFault(FaultSite(g, pin), v)
               for g in (inner, outer, mid)
               for pin in (OUTPUT_PIN, 0) for v in (0, 1)]
        words, width = sim.pack_vectors(vectors)
        good = sim.simulate(words, width)
        matrix, _ = sim.pack_vectors_words(vectors)
        good_m = sim.simulate_words(matrix, width)
        monkeypatch.setattr(parallel_sim, "GRADE_BUFFER_BYTES",
                            cols * good_m.shape[0] * good_m.shape[1] * 8)
        det = sim.stuck_at_detect_words(good_m, saf, width)
        for i, f in enumerate(saf):
            assert row_to_mask(det[i]) == \
                sim.stuck_at_detect_mask(good, f, width), f
        assert any(row_to_mask(row) for row in det)  # not vacuous

    def test_empty_fault_list(self, s27):
        sim, vectors, _ = _workload(s27, 4)
        matrix, width = sim.pack_vectors_words(vectors)
        good_m = sim.simulate_words(matrix, width)
        det = sim.stuck_at_detect_words(good_m, [], width)
        assert det.shape == (0, num_words(width))

    def test_generated_circuit_matches(self, small_generated):
        sim, vectors, saf = _workload(small_generated, 13, seed=4)
        words, width = sim.pack_vectors(vectors)
        good = sim.simulate(words, width)
        matrix, _ = sim.pack_vectors_words(vectors)
        good_m = sim.simulate_words(matrix, width)
        det = sim.stuck_at_detect_words(good_m, saf, width)
        mismatches = [
            f for i, f in enumerate(saf)
            if row_to_mask(det[i]) != sim.stuck_at_detect_mask(good, f, width)
        ]
        assert not mismatches
