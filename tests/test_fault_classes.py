"""Structural stuck-at fault classes and the ATPG's shared verdicts.

:func:`repro.faults.universe.stuck_at_classes` merges equivalent stuck-at
faults and records dominance edges; the transition ATPG proves each
untestable class once and settles the rest of the class (and every class
it dominates) without PODEM.  These tests check the classes against
exhaustive simulation, re-prove every shared verdict with an unshared
PODEM call, and pin the ledger relation to an unshared run: same test set
and detected faults, only aborted faults may become untestable.
"""

from __future__ import annotations

import functools
import itertools

import pytest

from repro.atpg import transition
from repro.atpg.podem import Podem
from repro.atpg.transition import generate_transition_tests
from repro.circuits.generators import CircuitProfile, generate_circuit
from repro.faults.models import OUTPUT_PIN, FaultSite, StuckAtFault
from repro.faults.universe import (
    StuckAtClasses,
    fault_sites,
    stuck_at_classes,
)
from repro.netlist.bench import parse_bench
from repro.simulation.parallel_sim import BitParallelSimulator

#: Every gate kind with a class rule, plus a fanout stem (G1 feeds G3 and
#: G4), fanout-free stems (G2, G3, G5, G6, G7) and an observed driver (G4
#: is an output and feeds G8).
RULES_BENCH = """
INPUT(A)
INPUT(B)
INPUT(C)
OUTPUT(G4)
OUTPUT(G8)
OUTPUT(G9)
G1 = AND(A, B)
G2 = NAND(B, C)
G3 = OR(G1, G2)
G4 = NOR(G1, C)
G5 = NOT(G3)
G6 = BUF(G5)
G7 = XOR(G6, A)
G8 = AND(G4, G7)
G9 = NOT(G1)
"""


@functools.lru_cache(maxsize=None)
def _generated(seed: int, *, inputs: int, ffs: int, gates: int):
    return generate_circuit(CircuitProfile(
        name=f"rand{seed}", n_gates=gates, n_ffs=ffs, n_inputs=inputs,
        n_outputs=3, depth=6, seed=seed))


#: Randomized circuits: five with at most 12 sources (exhaustively
#: simulable), one with more.
RANDOM_CIRCUITS = {
    "rand0": dict(seed=0, inputs=4, ffs=0, gates=40),
    "rand1": dict(seed=1, inputs=5, ffs=1, gates=50),
    "rand2": dict(seed=2, inputs=6, ffs=2, gates=70),
    "rand3": dict(seed=3, inputs=7, ffs=3, gates=85),
    "rand4": dict(seed=4, inputs=8, ffs=4, gates=95),
    "rand5": dict(seed=5, inputs=10, ffs=6, gates=110),
}
GOLDEN = ["c17", "s27", "small_generated"]
SMALL_RANDOM = [name for name, p in RANDOM_CIRCUITS.items()
                if p["inputs"] + p["ffs"] <= 12]


def _circuit(name: str, request):
    """A fixture circuit or one of :data:`RANDOM_CIRCUITS` by name."""
    if name in RANDOM_CIRCUITS:
        return _generated(**RANDOM_CIRCUITS[name])
    return request.getfixturevalue(name)


@pytest.fixture(scope="module")
def rules_circuit():
    return parse_bench(RULES_BENCH, name="rules")


def _exhaustive_masks(circuit, faults):
    """Detect mask of every stuck-at fault over all source vectors."""
    sim = BitParallelSimulator(circuit)
    vectors = list(itertools.product((0, 1), repeat=len(circuit.sources())))
    words, width = sim.pack_vectors(vectors)
    good = sim.simulate(words, width)
    return {f: sim.stuck_at_detect_mask(good, f, width) for f in faults}


def _sa(circuit, gate, pin, value):
    pin = OUTPUT_PIN if pin == "out" else pin
    return StuckAtFault(FaultSite(circuit.index_of(gate), pin), value)


class TestStuckAtClasses:
    def test_covers_every_pin_fault(self, rules_circuit):
        classes = stuck_at_classes(rules_circuit)
        assert set(classes.class_of) == {
            StuckAtFault(s, v) for s in fault_sites(rules_circuit)
            for v in (0, 1)}

    @pytest.mark.parametrize("a, b", [
        (("G1", 0, 0), ("G1", "out", 0)),   # AND: in SA0 = out SA0
        (("G2", 1, 0), ("G2", "out", 1)),   # NAND: in SA0 = out SA1
        (("G3", 0, 1), ("G3", "out", 1)),   # OR: in SA1 = out SA1
        (("G4", 1, 1), ("G4", "out", 0)),   # NOR: in SA1 = out SA0
        (("G6", 0, 1), ("G6", "out", 1)),   # BUF: in SAv = out SAv
        (("G5", 0, 0), ("G5", "out", 1)),   # NOT: in SAv = out SA(1-v)
        (("G3", 1, 0), ("G2", "out", 0)),   # fanout-free stem = branch
        (("G7", 0, 1), ("G6", "out", 1)),
    ])
    def test_equivalences(self, rules_circuit, a, b):
        class_of = stuck_at_classes(rules_circuit).class_of
        assert class_of[_sa(rules_circuit, *a)] == \
            class_of[_sa(rules_circuit, *b)]

    @pytest.mark.parametrize("a, b", [
        (("G3", 0, 0), ("G1", "out", 0)),   # G1 has two fanouts
        (("G8", 0, 1), ("G4", "out", 1)),   # G4 is observed
        (("G7", 0, 0), ("G7", "out", 0)),   # XOR: no equivalence
        (("G1", 0, 1), ("G1", "out", 1)),   # AND SA1: dominance only
    ])
    def test_not_merged(self, rules_circuit, a, b):
        class_of = stuck_at_classes(rules_circuit).class_of
        assert class_of[_sa(rules_circuit, *a)] != \
            class_of[_sa(rules_circuit, *b)]

    @pytest.mark.parametrize("out, inp", [
        (("G1", "out", 1), ("G1", 1, 1)),   # AND: out SA1 => in SA1
        (("G2", "out", 0), ("G2", 0, 1)),   # NAND: out SA0 => in SA1
        (("G3", "out", 0), ("G3", 0, 0)),   # OR: out SA0 => in SA0
        (("G4", "out", 1), ("G4", 0, 0)),   # NOR: out SA1 => in SA0
    ])
    def test_dominance_edges(self, rules_circuit, out, inp):
        classes = stuck_at_classes(rules_circuit)
        a = classes.class_of[_sa(rules_circuit, *out)]
        b = classes.class_of[_sa(rules_circuit, *inp)]
        assert b in classes.implies[a]
        assert a not in classes.implies.get(b, ())

    @pytest.mark.parametrize("name", ["rules_circuit", "c17", "s27",
                                      *SMALL_RANDOM])
    def test_classes_agree_with_exhaustive_simulation(self, name, request):
        """Class members detect on the same vectors; a dominated class
        detects only where its dominator does."""
        circuit = _circuit(name, request)
        assert len(circuit.sources()) <= 12
        classes = stuck_at_classes(circuit)
        masks = _exhaustive_masks(circuit, classes.class_of)
        by_class: dict[int, set[int]] = {}
        for f, c in classes.class_of.items():
            by_class.setdefault(c, set()).add(masks[f])
        assert all(len(ms) == 1 for ms in by_class.values())
        for a, targets in classes.implies.items():
            (mask_a,) = by_class[a]
            for b in targets:
                (mask_b,) = by_class[b]
                assert mask_b & ~mask_a == 0, (a, b)


def _record_podem(monkeypatch) -> dict[StuckAtFault, str]:
    """Record each ``Podem.generate`` outcome: test, proof or aborted."""
    outcomes: dict[StuckAtFault, str] = {}
    generate = Podem.generate

    def recording(self, fault):
        out = generate(self, fault)
        outcomes[fault] = ("test" if out is not None
                           else "aborted" if self.stats.aborted else "proof")
        return out

    monkeypatch.setattr(Podem, "generate", recording)
    return outcomes


def _singletons(circuit) -> StuckAtClasses:
    """One class per fault and no dominance: the unshared ATPG."""
    faults = stuck_at_classes(circuit).class_of
    return StuckAtClasses({f: i for i, f in enumerate(faults)}, {})


class TestSharedVerdicts:
    @pytest.mark.parametrize("max_backtracks", [512, 4])
    @pytest.mark.parametrize("name", [*GOLDEN, *RANDOM_CIRCUITS])
    def test_shared_verdicts_are_sound(self, name, max_backtracks,
                                       request, monkeypatch):
        circuit = _circuit(name, request)
        outcomes = _record_podem(monkeypatch)
        result = generate_transition_tests(circuit, seed=1,
                                           max_backtracks=max_backtracks)
        # Untestable without an own proof: skipped, or aborted and moved.
        shared = [f for f in result.untestable
                  if outcomes.get(f.as_stuck_at(), "aborted") == "aborted"]
        if name in RANDOM_CIRCUITS:
            assert shared  # the check is not vacuous
        monkeypatch.undo()
        podem = Podem(circuit, max_backtracks=4096)
        for f in shared:
            assert podem.generate(f.as_stuck_at()) is None, f
        if len(circuit.sources()) <= 12:
            masks = _exhaustive_masks(circuit,
                                      [f.as_stuck_at() for f in shared])
            assert not any(masks.values())

    @pytest.mark.parametrize("max_backtracks", [512, 4])
    @pytest.mark.parametrize("name", [*GOLDEN, *RANDOM_CIRCUITS])
    def test_ledger_relation_to_unshared_run(self, name, max_backtracks,
                                             request, monkeypatch):
        circuit = _circuit(name, request)
        shared = generate_transition_tests(circuit, seed=2,
                                           max_backtracks=max_backtracks)
        monkeypatch.setattr(transition, "stuck_at_classes", _singletons)
        alone = generate_transition_tests(circuit, seed=2,
                                          max_backtracks=max_backtracks)
        assert [(p.launch, p.capture) for p in shared.test_set] == \
            [(p.launch, p.capture) for p in alone.test_set]
        assert shared.detected == alone.detected
        assert shared.untestable >= alone.untestable
        assert shared.aborted <= alone.aborted
        assert shared.untestable - alone.untestable <= alone.aborted
        assert shared.coverage >= alone.coverage

    def test_shared_verdicts_skip_podem(self, monkeypatch):
        circuit = _generated(**RANDOM_CIRCUITS["rand3"])
        outcomes = _record_podem(monkeypatch)
        result = generate_transition_tests(circuit, seed=1)
        calls = len(outcomes)
        outcomes.clear()
        monkeypatch.setattr(transition, "stuck_at_classes", _singletons)
        alone = generate_transition_tests(circuit, seed=1)
        assert result.untestable == alone.untestable
        assert calls < len(outcomes)

    @pytest.mark.parametrize("max_backtracks", [512, 4])
    @pytest.mark.parametrize("name", list(RANDOM_CIRCUITS))
    def test_engines_agree(self, name, max_backtracks):
        circuit = _generated(**RANDOM_CIRCUITS[name])
        mat = generate_transition_tests(circuit, seed=3,
                                        max_backtracks=max_backtracks,
                                        engine="matrix")
        ref = generate_transition_tests(circuit, seed=3,
                                        max_backtracks=max_backtracks,
                                        engine="reference")
        assert [(p.launch, p.capture) for p in mat.test_set] == \
            [(p.launch, p.capture) for p in ref.test_set]
        assert (mat.detected, mat.untestable, mat.aborted) == \
            (ref.detected, ref.untestable, ref.aborted)
