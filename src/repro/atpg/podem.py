"""PODEM test generation for stuck-at faults on the combinational core.

Classic PODEM (Goel 1981): decisions are made only on primary inputs (here:
all combinational sources, i.e. PIs and scan flip-flops — the enhanced-scan
model standard in delay testing), implications are computed by forward
three-valued simulation of the good and the faulty machine, and conflicts are
resolved by chronological backtracking.

Besides full test generation (:meth:`Podem.generate`), a justification-only
mode (:meth:`Podem.justify`) finds an input assignment that sets an internal
signal to a required value — used for the *launch* vector of a transition
test, which only needs to establish the initial value at the fault site.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.faults.models import StuckAtFault
from repro.netlist.circuit import Circuit, GateKind
from repro.simulation.logic import X, controlling_value, eval_ternary

#: Gate kinds whose output inverts the justified input objective.
_INVERTING = {GateKind.NAND, GateKind.NOR, GateKind.NOT, GateKind.XNOR}


@dataclass
class PodemStats:
    """Bookkeeping for one generation attempt."""

    decisions: int = 0
    backtracks: int = 0
    aborted: bool = False


class Untestable(Exception):
    """The fault is proven untestable (decision space exhausted)."""


class Aborted(Exception):
    """The backtrack limit was exceeded before a verdict."""


class Podem:
    """PODEM engine bound to one finalized circuit."""

    def __init__(self, circuit: Circuit, *, max_backtracks: int = 512,
                 seed: int = 0) -> None:
        if not circuit.is_finalized:
            raise ValueError("circuit must be finalized before ATPG")
        self.circuit = circuit
        self.max_backtracks = max_backtracks
        self._rng = random.Random(seed)
        self._order = [i for i in circuit.topo_order
                       if GateKind.is_combinational(circuit.gates[i].kind)]
        self._sources = circuit.sources()
        self._source_set = set(self._sources)
        self._obs_gates = sorted({op.gate
                                  for op in circuit.observation_points()})
        self._obs_set = set(self._obs_gates)
        self.stats = PodemStats()
        # Incremental implication state: persistent good-machine values,
        # flattened per-gate (kind, fanin, combinational fanout) tables, a
        # scratch scheduled-bitmap, and memoized per-site cone plans /
        # in-cone observation gates for the fault-effect passes.
        self._good = self._fresh_values()
        self._plans: dict[int, list[tuple[int, str, tuple[int, ...]]]] = {}
        self._obs_cone: dict[int, list[int]] = {}
        self._touched = bytearray(len(circuit.gates))
        gates = circuit.gates
        self._gk = [g.kind for g in gates]
        self._gf = [g.fanin for g in gates]
        self._gfo = [
            sorted({v for v, _pin in circuit.fanouts(i)
                    if GateKind.is_combinational(gates[v].kind)})
            for i in range(len(gates))
        ]
        # Levelized event queues: level = 1 + max fanin level, so scanning
        # buckets in ascending level order is a valid topological schedule
        # with plain list appends instead of heap operations.
        self._lvl = [circuit.level(i) for i in range(len(gates))]
        self._buckets: list[list[int]] = [
            [] for _ in range(circuit.depth + 1)]
        # Ternary truth tables up to arity 4, indexed radix-3
        # (((a*3 + b)*3 + c)*3 + d); shared per (kind, arity).  Wider gates
        # fall back to `eval_ternary`.
        table_memo: dict[tuple[str, int], tuple[int, ...]] = {}
        self._tab: list[tuple[int, ...] | None] = []
        for g in gates:
            arity = len(g.fanin)
            if not GateKind.is_combinational(g.kind) or arity > 4:
                self._tab.append(None)
                continue
            key = (g.kind, arity)
            tab = table_memo.get(key)
            if tab is None:
                values = [[]]
                for _ in range(arity):
                    values = [v + [x] for v in values for x in (0, 1, X)]
                tab = tuple(eval_ternary(g.kind, v) for v in values)
                table_memo[key] = tab
            self._tab.append(tab)

    def _fresh_values(self) -> list[int]:
        values = [X] * len(self.circuit.gates)
        for g in self.circuit.gates:
            if g.kind == GateKind.CONST0:
                values[g.index] = 0
            elif g.kind == GateKind.CONST1:
                values[g.index] = 1
        return values

    def _plan_of(self, site: int) -> list[tuple[int, str, tuple[int, ...]]]:
        """Topo-ordered ``(gate, kind, fanin)`` rows of ``site``'s cone."""
        plan = self._plans.get(site)
        if plan is None:
            gates = self.circuit.gates
            plan = [(i, gates[i].kind, gates[i].fanin)
                    for i in self.circuit.cone_schedule(site)]
            self._plans[site] = plan
        return plan

    def _set_source(self, src: int, value: int) -> list[tuple[int, int]]:
        """Assign (or clear, with X) a source and re-imply its cone.

        Event-driven selective trace: gates are scheduled through the
        fanout adjacency and popped in topological order (heap on topo
        position), so only the region whose values actually change is
        visited — not the whole fanout cone of the source.

        Returns the undo log — ``(gate, previous value)`` for every gate
        that changed — so chronological backtracking can restore the exact
        prior state without re-evaluating anything (see :meth:`_undo`).
        """
        good = self._good
        if good[src] == value:
            return []
        log = [(src, good[src])]
        good[src] = value
        gk, gf, gfo, tab, lvl = (self._gk, self._gf, self._gfo, self._tab,
                                 self._lvl)
        sched = self._touched
        buckets = self._buckets
        dirty: list[int] = []
        hi = 0
        for v in gfo[src]:
            sched[v] = 1
            dirty.append(v)
            level = lvl[v]
            buckets[level].append(v)
            if level > hi:
                hi = level
        lv = 0
        while lv <= hi:
            bucket = buckets[lv]
            if bucket:
                for idx in bucket:
                    f = gf[idx]
                    t = tab[idx]
                    if t is None:
                        new = eval_ternary(gk[idx], [good[s] for s in f])
                    else:
                        n = len(f)
                        if n == 2:
                            new = t[good[f[0]] * 3 + good[f[1]]]
                        elif n == 1:
                            new = t[good[f[0]]]
                        elif n == 3:
                            new = t[(good[f[0]] * 3 + good[f[1]]) * 3
                                    + good[f[2]]]
                        else:
                            new = t[((good[f[0]] * 3 + good[f[1]]) * 3
                                     + good[f[2]]) * 3 + good[f[3]]]
                    old = good[idx]
                    if new != old:
                        log.append((idx, old))
                        good[idx] = new
                        for v in gfo[idx]:
                            if not sched[v]:
                                sched[v] = 1
                                dirty.append(v)
                                level = lvl[v]
                                buckets[level].append(v)
                                if level > hi:
                                    hi = level
                bucket.clear()
            lv += 1
        for i in dirty:
            sched[i] = 0
        return log

    def _undo(self, log: list[tuple[int, int]]) -> None:
        """Restore the good-machine values recorded by :meth:`_set_source`."""
        good = self._good
        for idx, old in log:
            good[idx] = old

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def generate(self, fault: StuckAtFault) -> dict[int, int] | None:
        """Find a source assignment detecting ``fault``.

        Returns a partial assignment ``{source gate index: 0/1}`` (unassigned
        sources are don't-cares), or None when untestable or aborted; check
        :attr:`stats` ``.aborted`` to distinguish the two.
        """
        self.stats = PodemStats()
        self._reset()
        assignment: dict[int, int] = {}
        # (source, value, flipped, undo log)
        stack: list[tuple[int, int, bool, list[tuple[int, int]]]] = []
        try:
            while True:
                good = self._good
                faulty = self._faulty(fault)
                if self._detected(good, faulty, fault.site.gate):
                    return dict(assignment)
                objective = self._objective(good, faulty, fault)
                if objective is None:
                    self._backtrack(assignment, stack)
                    continue
                decision = self._backtrace(objective, good)
                if decision is None:
                    self._backtrack(assignment, stack)
                    continue
                src, val = decision
                assignment[src] = val
                stack.append((src, val, False, self._set_source(src, val)))
                self.stats.decisions += 1
        except Untestable:
            return None
        except Aborted:
            self.stats.aborted = True
            return None
        finally:
            self._unwind(stack)

    def justify_all(self, objectives: list[tuple[int, int]]
                    ) -> dict[int, int] | None:
        """Source assignment satisfying *all* ``(gate, value)`` objectives.

        Generalized justification used by path-oriented test generation: the
        decision loop keeps working on the first unsatisfied objective and
        backtracks whenever any objective becomes violated.  Returns None on
        conflict (the objectives are mutually unsatisfiable) or abort.
        """
        self.stats = PodemStats()
        # Source objectives are assignments, not search work.
        assignment: dict[int, int] = {}
        pending: list[tuple[int, int]] = []
        for gate, value in objectives:
            if gate in self._source_set:
                if assignment.get(gate, value) != value:
                    return None
                assignment[gate] = value
            else:
                pending.append((gate, value))
        self._reset()
        base_logs = [self._set_source(src, val)
                     for src, val in assignment.items()]
        stack: list[tuple[int, int, bool, list[tuple[int, int]]]] = []
        try:
            while True:
                good = self._good
                violated = any(good[g] == 1 - v for g, v in pending)
                if violated:
                    self._backtrack(assignment, stack)
                    continue
                open_objs = [(g, v) for g, v in pending if good[g] == X]
                if not open_objs:
                    return dict(assignment)
                decision = self._backtrace(open_objs[0], good)
                if decision is None:
                    self._backtrack(assignment, stack)
                    continue
                src, val = decision
                assignment[src] = val
                stack.append((src, val, False, self._set_source(src, val)))
                self.stats.decisions += 1
        except Untestable:
            return None
        except Aborted:
            self.stats.aborted = True
            return None
        finally:
            self._unwind(stack)
            for log in reversed(base_logs):
                self._undo(log)

    def justify(self, gate: int, value: int) -> dict[int, int] | None:
        """Find a source assignment making ``gate``'s output equal ``value``.

        Pure good-machine justification (no fault, no propagation); used to
        build launch vectors.  Returns None when impossible or aborted.
        """
        self.stats = PodemStats()
        if gate in self._source_set:
            return {gate: value}
        self._reset()
        assignment: dict[int, int] = {}
        stack: list[tuple[int, int, bool, list[tuple[int, int]]]] = []
        try:
            while True:
                good = self._good
                if good[gate] == value:
                    return dict(assignment)
                if good[gate] == 1 - value:
                    self._backtrack(assignment, stack)
                    continue
                decision = self._backtrace((gate, value), good)
                if decision is None:
                    self._backtrack(assignment, stack)
                    continue
                src, val = decision
                assignment[src] = val
                stack.append((src, val, False, self._set_source(src, val)))
                self.stats.decisions += 1
        except Untestable:
            return None
        except Aborted:
            self.stats.aborted = True
            return None
        finally:
            self._unwind(stack)

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def _reset(self) -> None:
        """Clear all source assignments (start of a generation attempt)."""
        for src in self._sources:
            if self._good[src] != X and GateKind.is_source(
                    self.circuit.gates[src].kind):
                g = self.circuit.gates[src]
                if g.kind in (GateKind.CONST0, GateKind.CONST1):
                    continue
                self._set_source(src, X)

    def _faulty(self, fault: StuckAtFault) -> list[int]:
        """Faulty-machine values derived from the current good values."""
        circuit = self.circuit
        good = self._good
        faulty = list(good)
        site = fault.site
        g = circuit.gates[site.gate]
        if site.is_output_pin:
            faulty[site.gate] = fault.value
        else:
            ins = [faulty[s] for s in g.fanin]
            ins[site.pin] = fault.value
            faulty[site.gate] = eval_ternary(g.kind, ins)
        if faulty[site.gate] == good[site.gate]:
            return faulty
        # Same event-driven trace as `_set_source`: only gates downstream
        # of an actual value change can differ from the good machine.
        gk, gf, gfo, tab, lvl = (self._gk, self._gf, self._gfo, self._tab,
                                 self._lvl)
        sched = self._touched
        buckets = self._buckets
        dirty: list[int] = []
        hi = 0
        for v in gfo[site.gate]:
            sched[v] = 1
            dirty.append(v)
            level = lvl[v]
            buckets[level].append(v)
            if level > hi:
                hi = level
        lv = 0
        while lv <= hi:
            bucket = buckets[lv]
            if bucket:
                for idx in bucket:
                    f = gf[idx]
                    t = tab[idx]
                    if t is None:
                        new = eval_ternary(gk[idx], [faulty[s] for s in f])
                    else:
                        n = len(f)
                        if n == 2:
                            new = t[faulty[f[0]] * 3 + faulty[f[1]]]
                        elif n == 1:
                            new = t[faulty[f[0]]]
                        elif n == 3:
                            new = t[(faulty[f[0]] * 3 + faulty[f[1]]) * 3
                                    + faulty[f[2]]]
                        else:
                            new = t[((faulty[f[0]] * 3 + faulty[f[1]]) * 3
                                     + faulty[f[2]]) * 3 + faulty[f[3]]]
                    if new != faulty[idx]:
                        faulty[idx] = new
                        for v in gfo[idx]:
                            if not sched[v]:
                                sched[v] = 1
                                dirty.append(v)
                                level = lvl[v]
                                buckets[level].append(v)
                                if level > hi:
                                    hi = level
                bucket.clear()
            lv += 1
        for i in dirty:
            sched[i] = 0
        return faulty

    # ------------------------------------------------------------------
    # PODEM machinery
    # ------------------------------------------------------------------
    def _obs_in_cone(self, site_gate: int) -> list[int]:
        """Observation gates that can ever see ``site_gate``'s fault effect
        (the site itself plus its fanout cone, restricted to observation
        points) — everywhere else ``good == faulty`` by construction."""
        cached = self._obs_cone.get(site_gate)
        if cached is None:
            obs = self._obs_set
            cached = [i for i in (site_gate,
                                  *self.circuit.cone_schedule(site_gate))
                      if i in obs]
            self._obs_cone[site_gate] = cached
        return cached

    def _detected(self, good: list[int], faulty: list[int],
                  site_gate: int) -> bool:
        return any(good[o] != X and faulty[o] != X and good[o] != faulty[o]
                   for o in self._obs_in_cone(site_gate))

    def _site_pin_value(self, good: list[int], fault: StuckAtFault) -> int:
        """Good-machine value at the faulted pin."""
        return good[fault.site.signal_gate(self.circuit)]

    def _objective(self, good: list[int], faulty: list[int],
                   fault: StuckAtFault) -> tuple[int, int] | None:
        """Next (gate, value) objective, or None to trigger backtracking."""
        site_val = self._site_pin_value(good, fault)
        activation = 1 - fault.value
        if site_val == fault.value:
            return None  # activation conflict
        if site_val == X:
            return (fault.site.signal_gate(self.circuit), activation)
        # The fault effect first materializes at the site gate itself; as
        # long as its good/faulty outputs are not both specified, no D-value
        # exists on any net and the frontier below cannot see the fault.
        # Objective: sensitise the site gate by fixing an X side-input.
        site_gate = fault.site.gate
        if good[site_gate] == X or faulty[site_gate] == X:
            g = self.circuit.gates[site_gate]
            ctrl = controlling_value(g.kind)
            noncontrolling = 1 - ctrl if ctrl is not None else 1
            for pin, src in enumerate(g.fanin):
                if good[src] == X:
                    return (src, noncontrolling)
            return None
        if good[site_gate] == faulty[site_gate]:
            return None  # effect masked at the site gate itself
        frontier = self._d_frontier(good, faulty, site_gate)
        if not frontier:
            return None
        if not self._x_path_exists(frontier, good, faulty):
            return None
        # Prefer frontier gates closest to an observation point, but keep
        # trying the others: a frontier gate may have no free side input
        # (its faulty output is X through a partially-specified D chain)
        # while another is still sensitizable.
        lvl = self._lvl
        for gate_idx in sorted(frontier, key=lambda i: -lvl[i]):
            ctrl = controlling_value(self._gk[gate_idx])
            noncontrolling = 1 - ctrl if ctrl is not None else 1
            for src in self._gf[gate_idx]:
                if good[src] == X:
                    return (src, noncontrolling)
        return None

    def _d_frontier(self, good: list[int], faulty: list[int],
                    site_gate: int) -> list[int]:
        """Gates whose inputs carry a fault effect but whose output is X.

        D-values only exist on the site gate and inside its fanout cone, so
        the scan walks the memoized (topo-ordered) cone plan instead of the
        whole circuit — same members, same order as the full-circuit sweep.
        """
        out: list[int] = []
        for idx, _kind, fanin in self._plan_of(site_gate):
            if good[idx] != X and faulty[idx] != X:
                continue
            for s in fanin:
                if good[s] != X and faulty[s] != X and good[s] != faulty[s]:
                    out.append(idx)
                    break
        return out

    def _x_path_exists(self, frontier: list[int], good: list[int],
                       faulty: list[int]) -> bool:
        """Check some frontier gate reaches an observation point through
        X-valued gates (necessary condition for future propagation)."""
        obs, gfo = self._obs_set, self._gfo
        seen: set[int] = set()
        stack = list(frontier)
        while stack:
            u = stack.pop()
            if u in obs:
                return True
            for v in gfo[u]:  # combinational fanouts only
                if v not in seen and (good[v] == X or faulty[v] == X):
                    seen.add(v)
                    stack.append(v)
        return False

    def _backtrace(self, objective: tuple[int, int],
                   good: list[int]) -> tuple[int, int] | None:
        """Map an internal objective to an unassigned source decision.

        Returns None when no unassigned source can influence the objective —
        the *current decision cube* is a dead end, which must trigger
        chronological backtracking (not an untestability verdict: other
        cubes may still succeed).
        """
        gate, value = objective
        sources, gk, gf, lvl = self._source_set, self._gk, self._gf, self._lvl
        guard = 0
        while gate not in sources:
            guard += 1
            if guard > len(gk) + 1:
                return None  # defensive: should not happen on a DAG
            if gk[gate] in _INVERTING:
                value = 1 - value
            x_pins = [s for s in gf[gate] if good[s] == X]
            if not x_pins:
                # The objective is already implied; restart from any X source
                # in the fanin cone to make progress.
                cone = self.circuit.fanin_cone(gate)
                free = [s for s in cone if s in sources and good[s] == X]
                if not free:
                    return None
                return (min(free), value)
            gate = min(x_pins, key=lvl.__getitem__)
        return (gate, value)

    def _backtrack(self, assignment: dict[int, int],
                   stack: list[tuple[int, int, bool, list[tuple[int, int]]]]
                   ) -> None:
        """Flip the most recent unflipped decision; raise when exhausted.

        Each popped decision is rolled back by replaying its undo log —
        direct value restoration, no cone re-evaluation.
        """
        self.stats.backtracks += 1
        if self.stats.backtracks > self.max_backtracks:
            raise Aborted
        while stack:
            src, val, flipped, log = stack.pop()
            del assignment[src]
            self._undo(log)
            if not flipped:
                assignment[src] = 1 - val
                stack.append((src, 1 - val, True,
                              self._set_source(src, 1 - val)))
                return
        raise Untestable

    def _unwind(self, stack: list[tuple[int, int, bool,
                                        list[tuple[int, int]]]]) -> None:
        """Roll back every decision still applied (end of an attempt), so
        the persistent good machine returns to the all-X idle state."""
        while stack:
            _src, _val, _flipped, log = stack.pop()
            self._undo(log)
