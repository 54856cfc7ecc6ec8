"""Unit tests of the wordwave array kernels against the scalar reference.

Each kernel is pinned to the pure-Python semantics it replaces: the gate
LUTs to truth tables, the vectorized inertial scheduler to
``sequential_schedule``, the full levelized base sweep to
``WaveformSimulator.simulate``, and the parity-sampling interval extractor
to ``Waveform.diff_intervals`` + glitch filtering.  The golden-parity
suite (``test_wordwave_golden.py``) covers the engines end-to-end; these
tests localize any divergence to one kernel.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.atpg.patterns import random_test_set
from repro.circuits.generators import CircuitProfile, generate_circuit
from repro.netlist.circuit import GateKind
from repro.simulation.wave_sim import WaveformSimulator
from repro.simulation.waveform import Waveform, sequential_schedule
from repro.simulation.word_wave import (
    MAX_ARITY,
    _SUPPORTED_KINDS,
    _kind_lut,
    _plan_for,
    wordwave_fallback_reason,
)
from repro.utils.intervals import EPS


def _scalar_gate(kind, inputs):
    """Truth-table reference for one supported combinational kind."""
    if kind in (GateKind.AND, GateKind.NAND):
        out = all(inputs)
    elif kind in (GateKind.OR, GateKind.NOR):
        out = any(inputs)
    elif kind in (GateKind.XOR, GateKind.XNOR):
        out = bool(sum(inputs) & 1)
    else:  # NOT / BUF
        out = bool(inputs[0])
    if kind in (GateKind.NAND, GateKind.NOR, GateKind.XNOR, GateKind.NOT):
        out = not out
    return int(out)


class TestKindLut:
    @pytest.mark.parametrize("kind", sorted(_SUPPORTED_KINDS))
    def test_lut_matches_truth_table(self, kind):
        arities = ([1] if kind in (GateKind.NOT, GateKind.BUF)
                   else [2] if kind in (GateKind.XOR, GateKind.XNOR)
                   else [2, 3, 4])
        for arity in arities:
            a_max = MAX_ARITY
            lut = _kind_lut(kind, arity, a_max)
            for idx in range(1 << arity):
                inputs = [(idx >> p) & 1 for p in range(arity)]
                assert (lut >> idx) & 1 == _scalar_gate(kind, inputs), (
                    kind, arity, inputs)

    def test_phantom_pins_ignored(self):
        # Index bits beyond the arity (constant-0 padding pins) must not
        # change the output.
        lut = _kind_lut(GateKind.NAND, 2, MAX_ARITY)
        for idx in range(1 << 2):
            base = (lut >> idx) & 1
            for high in range(1, 1 << (MAX_ARITY - 2)):
                assert (lut >> (idx | (high << 2))) & 1 == base


def _plan(inertial=5.0):
    profile = CircuitProfile(name="kern", n_gates=60, n_ffs=10,
                             n_inputs=8, n_outputs=4, depth=6, seed=11)
    circuit = generate_circuit(profile)
    return circuit, _plan_for(circuit, inertial)


class TestScheduleKernel:
    def _rows(self, rng, n, k):
        """Random causal candidate rows: times forward-ordered per trigger
        but locally non-monotonic (rise/fall skew), like the merge output."""
        cand_t = np.full((n, k), np.inf)
        cand_c = np.zeros(n, dtype=np.int64)
        for r in range(n):
            c = rng.randint(0, k)
            t = 0.0
            times = []
            for _ in range(c):
                t += rng.choice([0.3, 2.0, 4.9, 5.0, 5.1, 12.0])
                # Occasional backward step models a fall overtaking a rise.
                times.append(t + rng.choice([0.0, 0.0, -1.5]))
            cand_t[r, :c] = times
            cand_c[r] = c
        return cand_t, cand_c

    def test_matches_sequential_schedule(self):
        _, plan = _plan(inertial=5.0)
        rng = random.Random(7)
        cand_t, cand_c = self._rows(rng, 200, 6)
        with np.errstate(invalid="ignore"):
            out_t, out_c = plan._schedule(cand_t, cand_c)
        for r in range(cand_t.shape[0]):
            # Candidate values strictly alternate from initial 0.
            events = [(cand_t[r, j], (j + 1) & 1)
                      for j in range(cand_c[r])]
            ref = sequential_schedule(0, events, 5.0)
            got = [(out_t[r, j]) for j in range(out_c[r])]
            assert got == pytest.approx([t for t, _ in ref]), r
            # Padding past the count stays the +inf sentinel.
            assert np.all(np.isinf(out_t[r, out_c[r]:]))


class TestBaseSweep:
    def test_matches_reference_simulator(self):
        circuit, plan = _plan(inertial=5.0)
        patterns = random_test_set(circuit, 4, seed=3)
        assert wordwave_fallback_reason(circuit, patterns, 5.0) is None
        with np.errstate(invalid="ignore"):
            plan.base_sweep(patterns)
        sim = WaveformSimulator(circuit, inertial=5.0)
        p_n = len(patterns)
        for pi, pp in enumerate(patterns):
            res = sim.simulate(pp.launch, pp.capture)
            for g in range(len(circuit.gates)):
                if not plan.is_comb[g] and g not in circuit.sources():
                    continue
                row = g * p_n + pi
                c = int(plan.base.c[row])
                init = int(plan.base.i[row])
                events = tuple(
                    (float(plan.base.t[row, j]), init ^ ((j + 1) & 1))
                    for j in range(c))
                want = res.waveform_of(g)
                assert init == want.initial, (g, pi)
                assert len(events) == len(want.events), (g, pi)
                for got_e, want_e in zip(events, want.events):
                    assert got_e[1] == want_e[1], (g, pi)
                    assert got_e[0] == pytest.approx(want_e[0]), (g, pi)


class TestExtractPieces:
    def _row(self, rng, k, horizon):
        c = rng.randint(0, k)
        times, t = [], 0.0
        for _ in range(c):
            t += rng.uniform(0.5, horizon / max(k, 1))
            times.append(t)
        return times

    def test_matches_diff_intervals(self):
        _, plan = _plan(inertial=5.0)
        rng = random.Random(23)
        horizon, threshold, k, n = 40.0, 3.0, 5, 300
        b_t = np.full((n, k), np.inf)
        b_c = np.zeros(n, dtype=np.int64)
        f_t = np.full((n, k), np.inf)
        f_c = np.zeros(n, dtype=np.int64)
        inits = np.zeros(n, dtype=np.uint8)
        for r in range(n):
            bt = self._row(rng, k, horizon)
            ft = self._row(rng, k, horizon) if rng.random() < 0.7 else list(bt)
            b_t[r, :len(bt)] = bt
            b_c[r] = len(bt)
            f_t[r, :len(ft)] = ft
            f_c[r] = len(ft)
            inits[r] = rng.randint(0, 1)
        # The kernel assumes base and faulty rows share the same initial
        # value (a delay fault never changes it).
        with np.errstate(invalid="ignore"):
            row, lo, hi = plan.extract_pieces(b_t, b_c, f_t, f_c,
                                              horizon, threshold)
        got = {r: [] for r in range(n)}
        for r, l, h in zip(row.tolist(), lo.tolist(), hi.tolist()):
            got[r].append((l, h))
        for r in range(n):
            init = int(inits[r])
            wb = Waveform(init, [(b_t[r, j], init ^ ((j + 1) & 1))
                                 for j in range(b_c[r])])
            wf = Waveform(init, [(f_t[r, j], init ^ ((j + 1) & 1))
                                 for j in range(f_c[r])])
            ref = wb.diff_intervals(wf, horizon).filter_glitches(threshold)
            want = [(iv.lo, iv.hi) for iv in ref.intervals]
            assert got[r] == pytest.approx(want), r


class TestFallbackReasons:
    def test_tiny_inertial_rejected(self, s27):
        patterns = random_test_set(s27, 2, seed=1)
        reason = wordwave_fallback_reason(s27, patterns, EPS)
        assert reason is not None and "inertial" in reason

    def test_dont_cares_rejected(self, s27):
        # Don't-cares are no fallback case: every engine rejects unfilled
        # patterns up front and names the fix.
        from repro.atpg.patterns import PatternPair, TestSet
        from repro.faults.detection import compute_detection_data
        from repro.faults.universe import small_delay_fault_universe
        from repro.simulation.logic import X

        width = len(s27.sources())
        ts = TestSet(s27, [PatternPair((X,) + (0,) * (width - 1),
                                       (1,) * width)])
        faults = list(small_delay_fault_universe(s27))
        assert wordwave_fallback_reason(s27, ts, 5.0) is None
        for engine in ("wordwave", "incremental", "reference"):
            with pytest.raises(ValueError, match=r"TestSet\.filled"):
                compute_detection_data(s27, faults, ts, horizon=1000.0,
                                       engine=engine)
            compute_detection_data(s27, faults, ts.filled(seed=1),
                                   horizon=1000.0, engine=engine)

    def test_supported_suite_circuit_accepted(self, s27):
        patterns = random_test_set(s27, 2, seed=1)
        assert wordwave_fallback_reason(s27, patterns, 5.0) is None
