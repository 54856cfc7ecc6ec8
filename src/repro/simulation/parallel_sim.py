"""Bit-parallel two-valued logic simulation.

Packs one test pattern per bit, so a single topological sweep evaluates
*all* patterns of a test set at once.  Used by the ATPG for random-pattern
fault grading, fault dropping and static compaction — the classic
single-fault-propagation scheme: the fault-free words are computed once,
then each fault forces its site and the faulty machine is re-evaluated
downstream of it.

Two engines share one :class:`BitParallelSimulator` instance:

* the **reference** engine (the seed implementation, retained verbatim for
  golden-equivalence testing and perf baselining) carries the packed
  patterns as arbitrary-width Python integers and re-evaluates one gate at
  a time (:meth:`simulate`, :meth:`stuck_at_detect_mask`);
* the **word-matrix** engine holds a ``(gates × W)`` ``uint64`` matrix
  (``W = ceil(patterns / 64)`` words, same little-endian word convention as
  :mod:`repro.utils.bitset`) and evaluates the circuit in *levelized
  per-kind batches* — one vectorized numpy reduction per (level, kind,
  arity) group instead of one Python call per gate
  (:meth:`pack_vectors_words`, :meth:`simulate_words`).  Single-fault
  propagation grades faults in one *levelized sweep*
  (:meth:`stuck_at_detect_words`): every active fault is one column of a
  ``(gates, B, W)`` faulty matrix, the same (level, kind, arity) batches
  evaluate all columns at once, and each level's site rows are re-forced
  before the next level reads them.  Evaluating a gate outside a
  particular fault's cone is harmless — its fanin equal the fault-free
  words, so the result does too — which is what makes the shared sweep
  exact.  The column count ``B`` of a chunk follows from the fixed byte
  budget :data:`GRADE_BUFFER_BYTES`.

Both engines produce bit-identical detect masks (guarded by
``tests/test_parallel_sim_matrix.py`` and the ATPG golden tests).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.faults.models import StuckAtFault
from repro.netlist.circuit import Circuit, GateKind

#: Bits per packed word of the matrix engine.
WORD_BITS = 64

_FULL_WORD = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Byte budget of one grading chunk's ``(gates, B, W)`` faulty matrix;
#: :meth:`BitParallelSimulator.stuck_at_detect_words` sizes its column
#: count ``B`` from it (at least one column per chunk).
GRADE_BUFFER_BYTES = 8 << 20

#: Gate kind → (numpy reduction ufunc or None for unary, invert output).
_KIND_KERNELS = {
    GateKind.AND: (np.bitwise_and, False),
    GateKind.NAND: (np.bitwise_and, True),
    GateKind.OR: (np.bitwise_or, False),
    GateKind.NOR: (np.bitwise_or, True),
    GateKind.XOR: (np.bitwise_xor, False),
    GateKind.XNOR: (np.bitwise_xor, True),
    GateKind.BUF: (None, False),
    GateKind.NOT: (None, True),
}


def _eval_word(kind: str, words: Sequence[int], mask: int) -> int:
    """Evaluate one gate over packed pattern words (reference engine)."""
    if kind == GateKind.AND or kind == GateKind.NAND:
        w = mask
        for x in words:
            w &= x
        return w if kind == GateKind.AND else (mask ^ w)
    if kind == GateKind.OR or kind == GateKind.NOR:
        w = 0
        for x in words:
            w |= x
        return w if kind == GateKind.OR else (mask ^ w)
    if kind == GateKind.XOR or kind == GateKind.XNOR:
        w = 0
        for x in words:
            w ^= x
        return w if kind == GateKind.XOR else (mask ^ w)
    if kind == GateKind.NOT:
        return mask ^ words[0]
    if kind == GateKind.BUF:
        return words[0]
    raise ValueError(f"cannot evaluate gate kind {kind!r}")


def num_words(width: int) -> int:
    """uint64 words needed for ``width`` packed patterns (at least one)."""
    return max(1, (width + WORD_BITS - 1) // WORD_BITS)


def mask_row(width: int) -> np.ndarray:
    """``(W,)`` uint64 row with the low ``width`` bits set."""
    row = np.zeros(num_words(width), dtype=np.uint64)
    full, rem = divmod(width, WORD_BITS)
    row[:full] = _FULL_WORD
    if rem:
        row[full] = np.uint64((1 << rem) - 1)
    return row


def row_to_mask(row: np.ndarray) -> int:
    """One packed ``(W,)`` row as an arbitrary-width Python int mask."""
    return int.from_bytes(np.ascontiguousarray(row).tobytes(), "little")


class BitParallelSimulator:
    """Packed-pattern logic simulation of a finalized circuit."""

    def __init__(self, circuit: Circuit) -> None:
        if not circuit.is_finalized:
            raise ValueError("circuit must be finalized before simulation")
        self.circuit = circuit
        self._order = [i for i in circuit.topo_order
                       if GateKind.is_combinational(circuit.gates[i].kind)]
        self._obs_gates = sorted({op.gate
                                  for op in circuit.observation_points()})
        # Matrix-engine structures, built lazily on first use.
        self._level_batches: list[tuple] | None = None
        self._level_bounds: list[int] = []
        self._levels_np: np.ndarray | None = None
        self._kernel_of: np.ndarray | None = None
        self._fanin_pad: np.ndarray | None = None
        self._kernels: list[tuple] = []
        self._sources_np: np.ndarray | None = None
        self._const1_np: np.ndarray | None = None
        self._obs_np: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Fault-free simulation (reference engine: Python big-int words)
    # ------------------------------------------------------------------
    def simulate(self, source_words: Mapping[int, int], width: int) -> list[int]:
        """Fault-free packed values for every gate.

        ``source_words`` maps source gate index → packed word; missing
        sources default to 0.  ``width`` is the number of packed patterns.
        """
        mask = (1 << width) - 1
        words = [0] * len(self.circuit.gates)
        for idx, w in source_words.items():
            words[idx] = w & mask
        for g in self.circuit.gates:
            if g.kind == GateKind.CONST1:
                words[g.index] = mask
        for idx in self._order:
            g = self.circuit.gates[idx]
            words[idx] = _eval_word(
                g.kind, [words[s] for s in g.fanin], mask)
        return words

    def activity_words(self, source_toggle_words: Mapping[int, int],
                       width: int) -> list[int]:
        """Transitive toggle activity per gate (one bit per pattern).

        ``source_toggle_words`` maps source gate index → packed word whose
        bit ``p`` is set when the source toggles between the launch and
        capture vector of pattern ``p``.  The word is OR-propagated through
        the combinational DAG: bit ``p`` of gate ``g`` is set iff *some*
        source in the fanin cone of ``g`` toggles under pattern ``p``.

        A clear bit is a guarantee: the waveform at ``g`` is constant under
        that pattern (no transition of either polarity, hazards included),
        which is what the activation pre-grading pass of the fault
        simulator prunes on.  A set bit only means the waveform *may*
        toggle (logic masking can still keep it constant).
        """
        mask = (1 << width) - 1
        words = [0] * len(self.circuit.gates)
        for idx, w in source_toggle_words.items():
            words[idx] = w & mask
        gates = self.circuit.gates
        for idx in self._order:
            acc = 0
            for s in gates[idx].fanin:
                acc |= words[s]
            words[idx] = acc
        return words

    def pack_vectors(self, vectors: Sequence[Sequence[int]]) -> tuple[dict[int, int], int]:
        """Pack per-pattern source vectors into words.

        Each vector assigns 0/1 to the sources in :meth:`Circuit.sources`
        order (don't-cares must be filled beforehand).  Returns
        ``(source_words, width)``.
        """
        sources = self.circuit.sources()
        width = len(vectors)
        out = {idx: 0 for idx in sources}
        for p, vec in enumerate(vectors):
            if len(vec) != len(sources):
                raise ValueError(
                    f"vector {p} has {len(vec)} values, expected {len(sources)}")
            bit = 1 << p
            for idx, v in zip(sources, vec):
                if v == 1:
                    out[idx] |= bit
                elif v != 0:
                    raise ValueError("pack_vectors needs fully-specified vectors")
        return out, width

    # ------------------------------------------------------------------
    # Stuck-at fault detection (reference engine: one cone walk per fault)
    # ------------------------------------------------------------------
    def stuck_at_detect_mask(self, good_words: Sequence[int],
                             fault: StuckAtFault, width: int) -> int:
        """Bitmask of patterns whose responses expose the stuck-at fault."""
        mask = (1 << width) - 1
        circuit = self.circuit
        site = fault.site
        forced = mask if fault.value else 0

        faulty: dict[int, int] = {}

        def word_of(idx: int) -> int:
            return faulty.get(idx, good_words[idx])

        start = site.gate
        g = circuit.gates[start]
        if site.is_output_pin:
            faulty[start] = forced
        else:
            ins = [word_of(s) for s in g.fanin]
            ins[site.pin] = forced
            faulty[start] = _eval_word(g.kind, ins, mask)
        if faulty[start] == good_words[start]:
            # The forced value never changes the site signal: no effect.
            return 0

        cone = circuit.fanout_cone(start)
        for idx in self._order:
            if idx not in cone:
                continue
            g = circuit.gates[idx]
            faulty[idx] = _eval_word(
                g.kind, [word_of(s) for s in g.fanin], mask)

        detect = 0
        for og in self._obs_gates:
            detect |= word_of(og) ^ good_words[og]
        return detect & mask

    # ------------------------------------------------------------------
    # Word-matrix engine: levelized vectorized evaluation
    # ------------------------------------------------------------------
    def _build_matrix_plan(self) -> None:
        """Group the topological order into (level, kind, arity) batches.

        Every fanin of a gate at level L sits at a level < L, so gates of
        one level are mutually independent and any batch order inside a
        level is sound.  One numpy reduction then evaluates a whole batch.
        Batches are sorted by level; ``_level_bounds[L]`` is the first
        batch of level ``L`` or above.
        """
        circuit = self.circuit
        groups: dict[tuple[int, str, int], list[int]] = {}
        for idx in self._order:
            g = circuit.gates[idx]
            groups.setdefault((circuit.level(idx), g.kind, g.arity),
                              []).append(idx)
        batches = []
        batch_levels = []
        for (lvl, kind, _arity), idxs in sorted(groups.items()):
            op, invert = _KIND_KERNELS[kind]
            out_idx = np.asarray(idxs, dtype=np.intp)
            fanin = np.asarray([circuit.gates[i].fanin for i in idxs],
                               dtype=np.intp)
            batches.append((op, invert, out_idx, fanin))
            batch_levels.append(lvl)
        n = len(circuit.gates)
        self._level_batches = batches
        self._level_bounds = np.searchsorted(
            batch_levels, np.arange(circuit.depth + 2)).tolist()
        self._levels_np = np.asarray([circuit.level(i) for i in range(n)],
                                     dtype=np.intp)
        # Per-gate (kind, arity) kernel id and zero-padded fanin rows, for
        # the vectorized site-row computation of input-pin faults.
        kernel_ids: dict[tuple[str, int], int] = {}
        self._kernel_of = np.full(n, -1, dtype=np.intp)
        self._fanin_pad = np.zeros(
            (n, max((circuit.gates[i].arity for i in self._order),
                    default=1)), dtype=np.intp)
        for idx in self._order:
            g = circuit.gates[idx]
            self._kernel_of[idx] = kernel_ids.setdefault(
                (g.kind, g.arity), len(kernel_ids))
            self._fanin_pad[idx, :g.arity] = g.fanin
        self._kernels = [(*_KIND_KERNELS[kind], arity)
                         for kind, arity in kernel_ids]
        self._sources_np = np.asarray(self.circuit.sources(), dtype=np.intp)
        self._const1_np = np.asarray(
            [g.index for g in circuit.gates if g.kind == GateKind.CONST1],
            dtype=np.intp)
        self._obs_np = np.asarray(self._obs_gates, dtype=np.intp)

    def pack_vectors_words(self, vectors: Sequence[Sequence[int]]
                           ) -> tuple[np.ndarray, int]:
        """Pack per-pattern source vectors into a ``(gates, W)`` matrix.

        Bit ``p`` of word ``p >> 6`` in row ``g`` is pattern ``p``'s value
        at source ``g`` (little-endian, the :mod:`repro.utils.bitset`
        convention).  Non-source rows are zero; CONST1 rows carry the full
        pattern mask.  Returns ``(matrix, width)``.
        """
        if self._level_batches is None:
            self._build_matrix_plan()
        sources = self._sources_np
        width = len(vectors)
        w = num_words(width)
        matrix = np.zeros((len(self.circuit.gates), w), dtype=np.uint64)
        if width:
            arr = np.asarray(vectors, dtype=np.uint8)
            if arr.ndim != 2 or arr.shape[1] != len(sources):
                raise ValueError(
                    f"vectors must all have {len(sources)} values")
            if arr.max(initial=0) > 1:
                raise ValueError("pack_vectors needs fully-specified vectors")
            packed = np.packbits(arr.T, axis=1, bitorder="little")
            padded = np.zeros((len(sources), w * 8), dtype=np.uint8)
            padded[:, :packed.shape[1]] = packed
            matrix[sources] = padded.view(np.uint64)
        if self._const1_np.size:
            matrix[self._const1_np] = mask_row(width)
        return matrix, width

    def simulate_words(self, matrix: np.ndarray, width: int) -> np.ndarray:
        """Fault-free simulation of a packed ``(gates, W)`` matrix.

        ``matrix`` must carry the source rows (see
        :meth:`pack_vectors_words`); the combinational rows are filled in
        place, one vectorized kernel per (level, kind, arity) batch, and
        the same array is returned.
        """
        if self._level_batches is None:
            self._build_matrix_plan()
        mrow = mask_row(width)
        for op, invert, out_idx, fanin in self._level_batches:
            if op is None:
                vals = matrix[fanin[:, 0]]
            else:
                vals = op.reduce(matrix[fanin], axis=1)
            if invert:
                vals = vals ^ mrow
            matrix[out_idx] = vals
        return matrix

    def _site_rows(self, good: np.ndarray, faults: Sequence[StuckAtFault],
                   gate: np.ndarray, mrow: np.ndarray) -> np.ndarray:
        """Faulty ``(len(faults), W)`` words at each fault's site gate
        (``gate[i]`` is fault ``i``'s site gate).

        Output-pin faults force the stuck value; input-pin faults
        re-evaluate the site gate with the pin forced, one vectorized
        reduction per (kind, arity) kernel.
        """
        n = len(faults)
        pin = np.fromiter((f.site.pin for f in faults), dtype=np.intp,
                          count=n)
        stuck = np.fromiter((f.value for f in faults), dtype=bool, count=n)
        forced = np.where(stuck[:, None], mrow, np.uint64(0))
        rows = forced.copy()
        inputs = np.flatnonzero(pin >= 0)
        kernel = self._kernel_of[gate[inputs]]
        for k in np.unique(kernel):
            sel = inputs[kernel == k]
            op, invert, arity = self._kernels[k]
            ins = good[self._fanin_pad[gate[sel], :arity]]  # (m, arity, W)
            ins[np.arange(sel.size), pin[sel]] = forced[sel]
            vals = ins[:, 0] if op is None else op.reduce(ins, axis=1)
            rows[sel] = (vals ^ mrow) if invert else vals
        return rows

    def _sweep(self, good: np.ndarray, sites: np.ndarray, rows: np.ndarray,
               mrow: np.ndarray) -> np.ndarray:
        """Single-fault propagation of one column chunk, levelized.

        Fault ``b`` occupies column ``b`` of a ``(gates, B, W)`` faulty
        matrix initialized to the fault-free words, with its site row
        forced.  ``sites`` must be sorted by level: every level above the
        lowest site is evaluated with one numpy reduction per (level, kind,
        arity) batch over all columns, and the site rows of that level are
        re-forced before the next level reads them.  A column whose fault
        cannot reach a gate re-evaluates to the fault-free word, so
        evaluating it there is harmless.  Returns the ``(B, W)`` detect
        words: the OR over observation rows of faulty XOR fault-free.
        """
        b_n = sites.size
        col = np.arange(b_n)
        faulty = np.repeat(good[:, None, :], b_n, axis=1)
        faulty[sites, col] = rows
        site_levels = self._levels_np[sites]
        depth = self.circuit.depth
        cut = np.searchsorted(site_levels, np.arange(depth + 2)).tolist()
        bounds = self._level_bounds
        batches = self._level_batches
        for level in range(int(site_levels[0]) + 1, depth + 1):
            for op, invert, out_idx, fanin in \
                    batches[bounds[level]:bounds[level + 1]]:
                if op is None:
                    vals = faulty[fanin[:, 0]]
                else:
                    vals = op.reduce(faulty[fanin], axis=1)
                if invert:
                    vals ^= mrow
                faulty[out_idx] = vals
            lo, hi = cut[level], cut[level + 1]
            if hi > lo:
                faulty[sites[lo:hi], col[lo:hi]] = rows[lo:hi]
        obs = self._obs_np
        return np.bitwise_or.reduce(faulty[obs] ^ good[obs][:, None, :],
                                    axis=0)

    def stuck_at_detect_words(self, good: np.ndarray,
                              faults: Sequence[StuckAtFault],
                              width: int) -> np.ndarray:
        """Per-fault ``(len(faults), W)`` detect words, levelized grading.

        ``good`` is the fault-free matrix from :meth:`simulate_words`.
        Faults whose forced value changes their site gate's output are
        graded in column chunks of :data:`GRADE_BUFFER_BYTES` (sorted by
        site level, so a chunk's sweep starts as high as it can); rows of
        the result stay in input order and are bit-identical to
        :meth:`stuck_at_detect_mask`.
        """
        if self._level_batches is None:
            self._build_matrix_plan()
        n_gates, w = good.shape
        out = np.zeros((len(faults), w), dtype=np.uint64)
        if not len(faults) or width == 0 or not self._obs_np.size:
            return out
        mrow = mask_row(width)
        sites = np.fromiter((f.site.gate for f in faults), dtype=np.intp,
                            count=len(faults))
        rows = self._site_rows(good, faults, sites, mrow)
        active = np.flatnonzero((rows != good[sites]).any(axis=1))
        active = active[np.argsort(self._levels_np[sites[active]],
                                   kind="stable")]
        cols = max(1, GRADE_BUFFER_BYTES // (n_gates * w * 8))
        for lo in range(0, active.size, cols):
            chunk = active[lo:lo + cols]
            out[chunk] = self._sweep(good, sites[chunk], rows[chunk], mrow)
        return out
