"""Transition-fault test generation (launch/capture pattern pairs).

Stand-in for the commercial ATPG used in the paper's evaluation (Sec. V,
"compacted transition delay fault test sets with an average test coverage of
over 99.9 %").  Three phases:

1. **Random phase** — batches of random pattern pairs graded by bit-parallel
   fault simulation with fault dropping; only patterns detecting new faults
   are kept.
2. **Deterministic phase** — for each remaining fault, PODEM generates the
   capture vector (the transition fault's stuck-at image) and a
   justification pass produces the launch vector establishing the initial
   value at the site.  A PODEM untestability proof settles the image's
   whole structural stuck-at class and every class it dominates
   (:func:`repro.faults.universe.stuck_at_classes`): later faults of those
   classes are untestable without a PODEM call, and earlier aborts of
   them are re-labelled untestable at the end.
3. **Compaction** — reverse-order fault dropping removes patterns made
   redundant by later ones (see :mod:`repro.atpg.compaction`).

Detection criterion (gross-delay / enhanced-scan model): pattern pair
``(v1, v2)`` detects transition fault φ iff ``v1`` sets the site to the
initial value and ``v2`` detects the corresponding stuck-at fault.

Engines: fault grading runs on the word-matrix engine of
:class:`BitParallelSimulator` by default (``engine="matrix"``: vectorized
levelized evaluation, activation pre-screening, levelized grading of all
faults at once, and a deterministic phase that packs each new pattern
exactly once and drops faults incrementally).  The seed grading pipeline is
retained as ``engine="reference"`` — both produce bit-identical per-fault
detect masks and identical compacted test sets and fault ledgers (guarded
by ``tests/test_transition_golden.py``), and the reference is the
before-side of the persistent ``BENCH_atpg.json`` baseline.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.atpg.compaction import reverse_order_drop
from repro.atpg.patterns import PatternPair, TestSet
from repro.atpg.podem import Podem
from repro.faults.models import TransitionFault
from repro.faults.universe import StuckAtClasses, fault_sites, stuck_at_classes
from repro.netlist.circuit import Circuit
from repro.simulation.logic import X
from repro.simulation.parallel_sim import (
    BitParallelSimulator,
    mask_row,
    row_to_mask,
)
from repro.utils.profiling import StageTimer

#: Recognized values of the ``engine`` parameter.
ENGINES = ("matrix", "reference")


@dataclass
class AtpgResult:
    """Outcome of transition-fault test generation."""

    test_set: TestSet
    faults: list[TransitionFault]
    detected: set[TransitionFault] = field(default_factory=set)
    untestable: set[TransitionFault] = field(default_factory=set)
    aborted: set[TransitionFault] = field(default_factory=set)

    @property
    def coverage(self) -> float:
        """Detected / (total - untestable), in [0, 1]."""
        testable = len(self.faults) - len(self.untestable)
        if testable <= 0:
            return 1.0
        return len(self.detected) / testable

    def summary(self) -> dict[str, float]:
        return {
            "patterns": len(self.test_set),
            "faults": len(self.faults),
            "detected": len(self.detected),
            "untestable": len(self.untestable),
            "aborted": len(self.aborted),
            "coverage": round(self.coverage, 4),
        }


class _ClassVerdicts:
    """Untestability proofs shared across structural stuck-at classes.

    Only a PODEM *proof* is shared: equivalent faults have the same faulty
    function and a dominated class's test set is a subset of its
    dominator's, so the verdict carries over exactly.  Aborts and launch
    justification failures are per fault and never shared.
    """

    def __init__(self, classes: StuckAtClasses) -> None:
        self._class_of = classes.class_of
        self._implies = classes.implies
        self._proven: set[int] = set()

    def proven(self, fault: TransitionFault) -> bool:
        """Whether ``fault``'s stuck-at image is in a proven class."""
        return self._class_of.get(fault.as_stuck_at()) in self._proven

    def prove(self, fault: TransitionFault) -> None:
        """Mark ``fault``'s class and every class it dominates untestable."""
        c = self._class_of.get(fault.as_stuck_at())
        stack = [] if c is None else [c]
        while stack:
            c = stack.pop()
            if c not in self._proven:
                self._proven.add(c)
                stack.extend(self._implies.get(c, ()))

    def settle(self, result: AtpgResult) -> None:
        """Move aborted faults whose class was proven later to untestable."""
        moved = {f for f in result.aborted if self.proven(f)}
        result.aborted -= moved
        result.untestable |= moved


def transition_fault_list(circuit: Circuit) -> list[TransitionFault]:
    """Both-polarity transition faults at every gate pin."""
    out: list[TransitionFault] = []
    for site in fault_sites(circuit):
        out.append(TransitionFault(site, slow_to_rise=True))
        out.append(TransitionFault(site, slow_to_rise=False))
    return out


def _transition_masks(circuit: Circuit, sim: BitParallelSimulator,
                      good_launch: np.ndarray, good_capture: np.ndarray,
                      faults: Sequence[TransitionFault],
                      width: int) -> dict[TransitionFault, int]:
    """Matrix-engine grading against prepacked fault-free matrices.

    Activation words are read directly from the launch matrix (one gather
    for all faults); only activated faults enter the batched stuck-at
    propagation.
    """
    n = len(faults)
    if n == 0:
        return {}
    mrow = mask_row(width)
    sig = np.fromiter((f.site.signal_gate(circuit) for f in faults),
                      dtype=np.intp, count=n)
    act = good_launch[sig].copy()
    falling = np.fromiter((f.launch_value == 1 for f in faults),
                          dtype=bool, count=n)
    act[~falling] ^= mrow  # slow-to-rise activates where v1 is 0
    to_grade = np.flatnonzero(act.any(axis=1))
    det = np.zeros_like(act)
    if to_grade.size:
        det[to_grade] = sim.stuck_at_detect_words(
            good_capture, [faults[i].as_stuck_at() for i in to_grade], width)
    act &= det
    if act.shape[1] == 1:  # one word per row: converts straight to ints
        return dict(zip(faults, act[:, 0].tolist()))
    return {f: row_to_mask(row) for f, row in zip(faults, act)}


def _detect_masks_matrix(circuit: Circuit, sim: BitParallelSimulator,
                         test_set: TestSet, faults: Sequence[TransitionFault],
                         *, seed: int) -> dict[TransitionFault, int]:
    filled = test_set.filled(seed=seed)
    if not len(filled):
        return {f: 0 for f in faults}
    launch_m, width = sim.pack_vectors_words([p.launch for p in filled])
    capture_m, _ = sim.pack_vectors_words([p.capture for p in filled])
    good_launch = sim.simulate_words(launch_m, width)
    good_capture = sim.simulate_words(capture_m, width)
    return _transition_masks(circuit, sim, good_launch, good_capture,
                             faults, width)


def _detect_masks_reference(circuit: Circuit, sim: BitParallelSimulator,
                            test_set: TestSet,
                            faults: Sequence[TransitionFault],
                            *, seed: int) -> dict[TransitionFault, int]:
    """The seed grading path: big-int words, one cone walk per fault."""
    filled = test_set.filled(seed=seed)
    launch_vecs = [p.launch for p in filled]
    capture_vecs = [p.capture for p in filled]
    if not launch_vecs:
        return {f: 0 for f in faults}
    launch_words, width = sim.pack_vectors(launch_vecs)
    capture_words, _ = sim.pack_vectors(capture_vecs)
    good_launch = sim.simulate(launch_words, width)
    good_capture = sim.simulate(capture_words, width)
    mask = (1 << width) - 1

    out: dict[TransitionFault, int] = {}
    for f in faults:
        sig = f.site.signal_gate(circuit)
        launch_word = good_launch[sig]
        act = (mask ^ launch_word) if f.launch_value == 0 else launch_word
        if act == 0:
            out[f] = 0
            continue
        det = sim.stuck_at_detect_mask(good_capture, f.as_stuck_at(), width)
        out[f] = act & det
    return out


def detect_masks(circuit: Circuit, sim: BitParallelSimulator,
                 test_set: TestSet, faults: list[TransitionFault],
                 *, seed: int = 0,
                 engine: str = "matrix") -> dict[TransitionFault, int]:
    """Per-fault bitmask of detecting patterns (bit p ↔ pattern p).

    Both engines return bit-identical masks; ``"matrix"`` grades all faults
    through the vectorized word-matrix kernels, ``"reference"`` keeps the
    seed per-fault big-int walk.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if engine == "reference":
        return _detect_masks_reference(circuit, sim, test_set, faults,
                                       seed=seed)
    return _detect_masks_matrix(circuit, sim, test_set, faults, seed=seed)


def _grade_pair(circuit: Circuit, sim: BitParallelSimulator,
                pair: PatternPair, faults: Sequence[TransitionFault]
                ) -> dict[TransitionFault, int]:
    """Grade one fully-specified pattern pair (deterministic phase).

    Packs the pair directly — no single-pattern :class:`TestSet`, no
    redundant re-fill, no re-sorted fault list — and reuses the batched
    matrix grading.
    """
    launch_m, width = sim.pack_vectors_words([pair.launch])
    capture_m, _ = sim.pack_vectors_words([pair.capture])
    good_launch = sim.simulate_words(launch_m, width)
    good_capture = sim.simulate_words(capture_m, width)
    return _transition_masks(circuit, sim, good_launch, good_capture,
                             faults, width)


def generate_transition_tests(
    circuit: Circuit,
    *,
    seed: int = 0,
    faults: list[TransitionFault] | None = None,
    random_batch: int = 32,
    max_random_batches: int = 20,
    stale_batches: int = 3,
    max_backtracks: int = 512,
    compact: bool = True,
    engine: str = "matrix",
    timer: StageTimer | None = None,
) -> AtpgResult:
    """Generate a compacted transition-fault pattern-pair set.

    ``engine`` selects the fault-grading kernels (``"matrix"`` — vectorized
    word-matrix engine with an incremental deterministic phase — or
    ``"reference"`` — the retained seed pipeline); results are identical.
    ``timer`` collects the per-stage wall-clock split (``random`` /
    ``podem`` / ``grade`` / ``compact``).
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    rng = random.Random(seed)
    fault_list = faults if faults is not None else transition_fault_list(circuit)
    sim = BitParallelSimulator(circuit)
    width = len(circuit.sources())

    test_set = TestSet(circuit)
    undetected: set[TransitionFault] = set(fault_list)
    detected: set[TransitionFault] = set()

    # ------------------------------------------------------------------
    # Phase 1: random patterns with fault dropping
    # ------------------------------------------------------------------
    t0 = time.perf_counter() if timer is not None else 0.0
    stale = 0
    order = sorted(undetected)  # invariant: sorted, same members
    for _ in range(max_random_batches):
        if not order or stale >= stale_batches:
            break
        batch = TestSet(circuit, (
            PatternPair(
                tuple(rng.randint(0, 1) for _ in range(width)),
                tuple(rng.randint(0, 1) for _ in range(width)))
            for _ in range(random_batch)))
        masks = detect_masks(circuit, sim, batch, order,
                             seed=seed, engine=engine)
        useful_bits = 0
        newly: set[TransitionFault] = set()
        for f, m in masks.items():
            if m:
                newly.add(f)
                useful_bits |= m & (-m)  # keep the first detecting pattern
        if not newly:
            stale += 1
            continue
        stale = 0
        for p in range(len(batch)):
            if useful_bits >> p & 1:
                test_set.append(batch[p])
        detected |= newly
        undetected -= newly
        order = [f for f in order if f not in newly]
    if timer is not None:
        timer.add("random", time.perf_counter() - t0)

    # ------------------------------------------------------------------
    # Phase 2: deterministic PODEM for remaining faults
    # ------------------------------------------------------------------
    result = AtpgResult(test_set=test_set, faults=list(fault_list),
                        detected=detected)
    podem = Podem(circuit, max_backtracks=max_backtracks, seed=seed)
    sources = circuit.sources()
    verdicts = _ClassVerdicts(stuck_at_classes(circuit))
    if engine == "reference":
        _phase2_reference(circuit, sim, podem, verdicts, sources, rng,
                          undetected, result, seed=seed)
    else:
        _phase2_incremental(circuit, sim, podem, verdicts, sources, rng,
                            undetected, result, timer=timer)
    verdicts.settle(result)

    # ------------------------------------------------------------------
    # Phase 3: static compaction (reverse-order fault dropping)
    # ------------------------------------------------------------------
    test_set = result.test_set
    if compact and len(test_set) > 1:
        t0 = time.perf_counter() if timer is not None else 0.0
        masks = detect_masks(circuit, sim, test_set,
                             sorted(result.detected), seed=seed,
                             engine=engine)
        kept = reverse_order_drop(len(test_set), masks.values())
        result.test_set = test_set.subset(kept)
        if timer is not None:
            timer.add("compact", time.perf_counter() - t0)

    return result


def _phase2_incremental(circuit: Circuit, sim: BitParallelSimulator,
                        podem: Podem, verdicts: _ClassVerdicts,
                        sources: list[int], rng: random.Random,
                        undetected: set[TransitionFault],
                        result: AtpgResult, *,
                        timer: StageTimer | None) -> None:
    """Deterministic phase on the matrix engine.

    The fault list is sorted once; each new pattern is packed exactly once
    and graded against the still-undetected faults through the activation
    pre-screen and the levelized grading sweep.  Drops are applied
    incrementally to the ``alive`` list instead of re-sorting ``remaining``
    per pattern — the seed's O(|F|²·log|F|) resort/regrade loop becomes
    O(|F|·|P_det|) list filtering plus the (pre-screened) grading itself.
    Faults of a class already proven untestable skip PODEM.
    """
    test_set = result.test_set
    worklist = sorted(undetected)
    remaining = set(undetected)
    alive = list(worklist)  # invariant: worklist order, alive == remaining
    for f in worklist:
        if f not in remaining:
            continue  # dropped by an earlier deterministic pattern
        if verdicts.proven(f):
            result.untestable.add(f)
            remaining.discard(f)
            alive.remove(f)
            continue
        t0 = time.perf_counter() if timer is not None else 0.0
        capture_assign = podem.generate(f.as_stuck_at())
        if capture_assign is None:
            if podem.stats.aborted:
                result.aborted.add(f)
            else:
                result.untestable.add(f)
                verdicts.prove(f)
            remaining.discard(f)
            alive.remove(f)
            if timer is not None:
                timer.add("podem", time.perf_counter() - t0)
            continue
        launch_assign = podem.justify(f.site.signal_gate(circuit),
                                      f.launch_value)
        if launch_assign is None:
            (result.aborted if podem.stats.aborted
             else result.untestable).add(f)
            remaining.discard(f)
            alive.remove(f)
            if timer is not None:
                timer.add("podem", time.perf_counter() - t0)
            continue
        launch = tuple(launch_assign.get(s, X) for s in sources)
        capture = tuple(capture_assign.get(s, X) for s in sources)
        pair = PatternPair(launch, capture).filled(rng)
        if timer is not None:
            t1 = time.perf_counter()
            timer.add("podem", t1 - t0)
        # Fault dropping: grade the new pattern against *all* remaining
        # faults so later PODEM calls are skipped for collaterally
        # detected ones.
        masks = _grade_pair(circuit, sim, pair, alive)
        if timer is not None:
            timer.add("grade", time.perf_counter() - t1)
        if masks[f]:
            test_set.append(pair)
            dropped = {g for g, m in masks.items() if m}
            result.detected |= dropped
            remaining -= dropped
            alive = [g for g in alive if g not in dropped]
        else:
            # Random fill spoiled the sensitization; treat as aborted.
            result.aborted.add(f)
            remaining.discard(f)
            alive.remove(f)


def _phase2_reference(circuit: Circuit, sim: BitParallelSimulator,
                      podem: Podem, verdicts: _ClassVerdicts,
                      sources: list[int], rng: random.Random,
                      undetected: set[TransitionFault],
                      result: AtpgResult, *, seed: int) -> None:
    """The seed deterministic phase: every pattern re-sorts and re-grades
    ``remaining`` through the big-int engine.  Class verdicts are shared
    exactly as in :func:`_phase2_incremental`, so both ledgers agree."""
    test_set = result.test_set
    worklist = sorted(undetected)
    remaining = set(undetected)
    for f in worklist:
        if f not in remaining:
            continue  # dropped by an earlier deterministic pattern
        if verdicts.proven(f):
            result.untestable.add(f)
            remaining.discard(f)
            continue
        capture_assign = podem.generate(f.as_stuck_at())
        if capture_assign is None:
            if podem.stats.aborted:
                result.aborted.add(f)
            else:
                result.untestable.add(f)
                verdicts.prove(f)
            remaining.discard(f)
            continue
        launch_assign = podem.justify(f.site.signal_gate(circuit),
                                      f.launch_value)
        if launch_assign is None:
            (result.aborted if podem.stats.aborted
             else result.untestable).add(f)
            remaining.discard(f)
            continue
        launch = tuple(launch_assign.get(s, X) for s in sources)
        capture = tuple(capture_assign.get(s, X) for s in sources)
        pair = PatternPair(launch, capture).filled(rng)
        masks = detect_masks(circuit, sim, TestSet(circuit, [pair]),
                             sorted(remaining), seed=seed,
                             engine="reference")
        if masks[f]:
            test_set.append(pair)
            dropped = {g for g, m in masks.items() if m}
            result.detected |= dropped
            remaining -= dropped
        else:
            # Random fill spoiled the sensitization; treat as aborted.
            result.aborted.add(f)
            remaining.discard(f)
