"""Benchmark library: embedded ISCAS netlists and the scaled paper suite.

The paper's 12-circuit evaluation suite (ISCAS'89 s-circuits plus industrial
p-circuits, Table I) is replayed here with deterministic synthetic circuits
whose *relative* structural statistics track the originals:

* gate/FF/PI counts are scaled down so pure-Python timing-accurate fault
  simulation stays tractable,
* the short-path PPO fraction is tuned per circuit to reflect the paper's
  observed coverage gain: circuits where monitors helped most (p89k,
  s15850, …) get many short-path flip-flops, circuits with tiny gains
  (s35932, p78k) get few,
* pattern budgets scale with the paper's |P| column.

Two real ISCAS netlists (s27, c17) are embedded verbatim for parser and
regression tests.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from repro.circuits.generators import CircuitProfile, generate_circuit
from repro.netlist.bench import parse_bench
from repro.netlist.cells import CellLibrary
from repro.netlist.circuit import Circuit

S27_BENCH = """
# s27 — ISCAS'89
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
"""

C17_BENCH = """
# c17 — ISCAS'85
INPUT(N1)
INPUT(N2)
INPUT(N3)
INPUT(N6)
INPUT(N7)
OUTPUT(N22)
OUTPUT(N23)
N10 = NAND(N1, N3)
N11 = NAND(N3, N6)
N16 = NAND(N2, N11)
N19 = NAND(N11, N7)
N22 = NAND(N10, N16)
N23 = NAND(N16, N19)
"""

_EMBEDDED = {"s27": S27_BENCH, "c17": C17_BENCH}


def embedded_circuit(name: str, *, library: CellLibrary | None = None) -> Circuit:
    """Load one of the embedded real netlists (``s27``, ``c17``)."""
    try:
        text = _EMBEDDED[name]
    except KeyError:
        raise KeyError(f"unknown embedded circuit {name!r}; "
                       f"have {sorted(_EMBEDDED)}") from None
    return parse_bench(text, name=name, library=library)


@dataclass(frozen=True)
class SuiteEntry:
    """One circuit of the evaluation suite with its scaled parameters."""

    name: str
    paper_gates: int
    paper_ffs: int
    paper_patterns: int
    paper_monitors: int
    gates: int
    ffs: int
    inputs: int
    outputs: int
    depth: int
    patterns: int
    short_path_ppo_fraction: float
    long_edge_prob: float
    endpoint_side_gates: int
    seed: int

    def profile(self, *, scale: float = 1.0) -> CircuitProfile:
        """Circuit profile, optionally rescaled (``scale`` multiplies sizes)."""
        return CircuitProfile(
            name=self.name,
            n_gates=max(24, int(round(self.gates * scale))),
            n_ffs=max(4, int(round(self.ffs * scale))),
            n_inputs=max(4, int(round(self.inputs * min(1.0, scale * 2)))),
            n_outputs=max(2, int(round(self.outputs * min(1.0, scale * 2)))),
            depth=max(4, int(round(self.depth * min(1.0, 0.5 + scale / 2)))),
            seed=self.seed,
            long_edge_prob=self.long_edge_prob,
            short_path_ppo_fraction=self.short_path_ppo_fraction,
            endpoint_side_gates=self.endpoint_side_gates,
        )

    def pattern_budget(self, *, scale: float = 1.0) -> int:
        return max(8, int(round(self.patterns * scale)))


#: Scaled stand-ins for the paper's Table I suite.  ``short_path_ppo_fraction``
#: encodes the paper's observed monitor gain (Δ% column) structurally.
PAPER_SUITE: tuple[SuiteEntry, ...] = (
    SuiteEntry("s9234", 1766, 228, 155, 63, 130, 24, 12, 8, 10, 24, 0.18, 0.35, 1, 11),
    SuiteEntry("s13207", 2867, 669, 195, 198, 150, 40, 14, 8, 10, 28, 0.50, 0.40, 4, 12),
    SuiteEntry("s15850", 3324, 597, 134, 169, 160, 36, 14, 8, 11, 22, 0.55, 0.40, 5, 13),
    SuiteEntry("s35932", 11168, 1728, 39, 513, 220, 52, 16, 10, 8, 16, 0.08, 0.20, 0, 14),
    SuiteEntry("s38417", 9796, 1636, 128, 435, 230, 48, 16, 10, 11, 22, 0.25, 0.35, 2, 15),
    SuiteEntry("s38584", 12213, 1450, 160, 426, 240, 44, 16, 10, 11, 24, 0.35, 0.35, 3, 16),
    SuiteEntry("p35k", 23294, 2173, 1518, 558, 280, 56, 18, 10, 12, 48, 0.40, 0.40, 3, 17),
    SuiteEntry("p45k", 25406, 2331, 2719, 638, 300, 60, 18, 10, 12, 56, 0.40, 0.40, 3, 18),
    SuiteEntry("p78k", 70495, 2977, 70, 872, 340, 64, 20, 12, 9, 16, 0.06, 0.20, 0, 19),
    SuiteEntry("p89k", 58726, 4301, 993, 1140, 320, 70, 20, 12, 13, 36, 0.60, 0.45, 6, 20),
    SuiteEntry("p100k", 60767, 5735, 2631, 1458, 360, 80, 20, 12, 12, 52, 0.45, 0.40, 4, 21),
    SuiteEntry("p141k", 107655, 10501, 824, 2626, 400, 96, 22, 12, 12, 32, 0.35, 0.38, 3, 22),
)

_BY_NAME = {e.name: e for e in PAPER_SUITE}


def paper_suite(names: list[str] | None = None) -> list[SuiteEntry]:
    """The full suite, or the named subset in suite order."""
    if names is None:
        return list(PAPER_SUITE)
    unknown = [n for n in names if n not in _BY_NAME]
    if unknown:
        raise KeyError(f"unknown suite circuits: {unknown}")
    return [e for e in PAPER_SUITE if e.name in set(names)]


#: A fast four-circuit subset used by tests and the quick benchmark profile.
QUICK_SUITE_NAMES = ["s9234", "s13207", "s35932", "p89k"]


# ----------------------------------------------------------------------
# Parameterized synthetic matrix (the multi-worker suite workload)
# ----------------------------------------------------------------------
#: Size tiers of the synthetic matrix, drawn with the given weights:
#: (tier, weight, gates range, ffs range, patterns range, depth range).
#: Mostly small circuits with a medium band and a few large stragglers —
#: the heterogeneous shape that exposes tail latency in suite scheduling.
SYNTHETIC_TIERS: tuple[tuple[str, int, tuple[int, int], tuple[int, int],
                             tuple[int, int], tuple[int, int]], ...] = (
    ("small", 6, (48, 88), (8, 14), (8, 12), (6, 9)),
    ("medium", 3, (96, 168), (14, 26), (10, 16), (8, 12)),
    ("large", 1, (220, 360), (32, 56), (16, 24), (10, 14)),
)

_SYNTH_NAME = re.compile(r"syn(\d{1,6})")


def synthetic_entry(index: int) -> SuiteEntry:
    """Deterministic synthetic suite circuit ``syn<index>``.

    Every structural parameter derives from ``index`` alone, so a worker
    process can reconstruct the exact circuit from its *name* — no suite
    object needs to be shipped across process (or host) boundaries.
    """
    if index < 0:
        raise ValueError("synthetic suite index must be >= 0")
    rng = random.Random(0x5EED0 + index)
    tiers = [t for t in SYNTHETIC_TIERS for _ in range(t[1])]
    _tier, _w, gates_r, ffs_r, pats_r, depth_r = rng.choice(tiers)
    gates = rng.randint(*gates_r)
    ffs = rng.randint(*ffs_r)
    patterns = rng.randint(*pats_r)
    depth = rng.randint(*depth_r)
    return SuiteEntry(
        name=f"syn{index:04d}",
        paper_gates=gates, paper_ffs=ffs, paper_patterns=patterns,
        paper_monitors=max(1, ffs // 4),
        gates=gates, ffs=ffs,
        inputs=max(6, gates // 10), outputs=max(4, ffs // 3),
        depth=depth, patterns=patterns,
        short_path_ppo_fraction=round(rng.uniform(0.10, 0.60), 3),
        long_edge_prob=round(rng.uniform(0.20, 0.45), 3),
        endpoint_side_gates=rng.randint(0, 4),
        seed=1000 + index,
    )


def synthetic_suite(count: int, *, start: int = 0) -> list[SuiteEntry]:
    """``count`` deterministic synthetic circuits (``syn0000``, ...).

    Scales the evaluation matrix to hundreds of circuits for the multi-worker
    suite runner; entries are self-describing by name (see
    :func:`synthetic_entry`).
    """
    return [synthetic_entry(i) for i in range(start, start + count)]


def suite_entry(name: str) -> SuiteEntry:
    """Resolve a suite circuit name: paper suite or synthetic ``syn####``."""
    entry = _BY_NAME.get(name)
    if entry is not None:
        return entry
    m = _SYNTH_NAME.fullmatch(name)
    if m is not None:
        return synthetic_entry(int(m.group(1)))
    known = sorted(_BY_NAME)
    raise KeyError(f"unknown suite circuit {name!r} "
                   f"(paper suite: {known}; synthetic: 'syn<index>')")


def scaled_profile(name: str, *, scale: float = 1.0) -> CircuitProfile:
    """Profile of a suite circuit at the given scale."""
    return suite_entry(name).profile(scale=scale)


def suite_circuit(name: str, *, scale: float = 1.0,
                  library: CellLibrary | None = None) -> Circuit:
    """Generate a suite circuit at the given scale."""
    return generate_circuit(scaled_profile(name, scale=scale), library=library)
