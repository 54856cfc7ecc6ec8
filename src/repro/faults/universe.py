"""Small-delay-fault universe generation.

Following Sec. V of the paper, the initial fault set contains small delay
faults at *all input and output pins* of every combinational gate, with two
faults per location (slow-to-rise and slow-to-fall) and a per-gate fault size
``δ = 6σ`` where ``σ = 0.2 ×`` nominal gate delay.

:func:`stuck_at_classes` groups the stuck-at images of those sites into
structural equivalence classes (with dominance edges between classes), so
the ATPG proves each untestable class once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.faults.models import (
    OUTPUT_PIN,
    FaultSite,
    SmallDelayFault,
    StuckAtFault,
)
from repro.netlist.circuit import Circuit, GateKind
from repro.timing.variation import N_SIGMA, SIGMA_FRACTION, fault_size_for_gate


def fault_sites(circuit: Circuit) -> list[FaultSite]:
    """All gate pins: one output-pin site plus one site per input pin."""
    sites: list[FaultSite] = []
    for g in circuit.gates:
        if not GateKind.is_combinational(g.kind):
            continue
        sites.append(FaultSite(g.index))
        sites.extend(FaultSite(g.index, pin) for pin in range(g.arity))
    return sites


#: Gate kind → (input stuck-at value, equivalent output stuck-at value).
_EQUIVALENT = {
    GateKind.AND: (0, 0), GateKind.NAND: (0, 1),
    GateKind.OR: (1, 1), GateKind.NOR: (1, 0),
}

#: Gate kind → (output stuck-at value, input stuck-at value): every test of
#: the input fault also tests the output fault, so an untestable output
#: fault makes each input fault untestable too.
_DOMINATED = {
    GateKind.AND: (1, 1), GateKind.NAND: (0, 1),
    GateKind.OR: (0, 0), GateKind.NOR: (1, 0),
}


@dataclass(frozen=True)
class StuckAtClasses:
    """Structural stuck-at fault classes of one circuit.

    ``class_of`` maps every stuck-at fault at a :func:`fault_sites` pin to
    its class id; faults of one class have the same faulty function.
    ``implies[c]`` lists the classes whose faults are untestable whenever
    class ``c`` is (dominance: their test sets are subsets of ``c``'s).
    """

    class_of: dict[StuckAtFault, int]
    implies: dict[int, tuple[int, ...]]


def stuck_at_classes(circuit: Circuit) -> StuckAtClasses:
    """Union-find of the stuck-at faults at every gate pin.

    Merged as equivalent: a fanout-free stem and its single branch (the
    driver is combinational, has one fanout and is not observed), AND/NAND
    input SA0 with output SA0/SA1, OR/NOR input SA1 with output SA1/SA0,
    BUF/NOT input SAv with output SAv/SA(1-v).  Dominance edges run from
    AND/NAND output SA1/SA0 and OR/NOR output SA0/SA1 to each input's
    SA1/SA1/SA0/SA0 class.
    """
    sites = fault_sites(circuit)
    faults = [StuckAtFault(s, v) for s in sites for v in (0, 1)]
    node = {f: i for i, f in enumerate(faults)}
    parent = list(range(len(faults)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(a: StuckAtFault, b: StuckAtFault) -> None:
        ra, rb = find(node[a]), find(node[b])
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    observed = {op.gate for op in circuit.observation_points()}
    edges: list[tuple[StuckAtFault, StuckAtFault]] = []
    for g in circuit.gates:
        if not GateKind.is_combinational(g.kind):
            continue
        out = FaultSite(g.index, OUTPUT_PIN)
        for pin, d in enumerate(g.fanin):
            site = FaultSite(g.index, pin)
            if (GateKind.is_combinational(circuit.gates[d].kind)
                    and len(circuit.fanouts(d)) == 1 and d not in observed):
                for v in (0, 1):
                    union(StuckAtFault(site, v),
                          StuckAtFault(FaultSite(d, OUTPUT_PIN), v))
            if g.kind in (GateKind.BUF, GateKind.NOT):
                flip = int(g.kind == GateKind.NOT)
                for v in (0, 1):
                    union(StuckAtFault(site, v), StuckAtFault(out, v ^ flip))
            elif g.kind in _EQUIVALENT:
                v_in, v_out = _EQUIVALENT[g.kind]
                union(StuckAtFault(site, v_in), StuckAtFault(out, v_out))
                v_out, v_in = _DOMINATED[g.kind]
                edges.append((StuckAtFault(out, v_out),
                              StuckAtFault(site, v_in)))
    class_of = {f: find(i) for f, i in node.items()}
    implies: dict[int, set[int]] = {}
    for src, dst in edges:
        a, b = class_of[src], class_of[dst]
        if a != b:
            implies.setdefault(a, set()).add(b)
    return StuckAtClasses(
        class_of, {c: tuple(sorted(ds)) for c, ds in implies.items()})


def small_delay_fault_universe(
    circuit: Circuit,
    *,
    sigma_fraction: float = SIGMA_FRACTION,
    n_sigma: float = N_SIGMA,
    delta: float | None = None,
    sites: Iterable[FaultSite] | None = None,
) -> list[SmallDelayFault]:
    """Build the initial fault list (Sec. V).

    ``delta`` overrides the per-gate 6σ sizing with a fixed fault size;
    ``sites`` restricts generation to the given locations (used by tests and
    ablations).
    """
    out: list[SmallDelayFault] = []
    site_list = list(sites) if sites is not None else fault_sites(circuit)
    for site in site_list:
        size = delta if delta is not None else fault_size_for_gate(
            circuit, site.gate, sigma_fraction=sigma_fraction, n_sigma=n_sigma)
        if size <= 0.0:
            continue
        out.append(SmallDelayFault(site, slow_to_rise=True, delta=size))
        out.append(SmallDelayFault(site, slow_to_rise=False, delta=size))
    return out
