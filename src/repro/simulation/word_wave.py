"""Word-parallel timed waveform simulation (``engine="wordwave"``).

The per-pattern Python engine in :mod:`repro.simulation.wave_sim` walks one
``Waveform`` object per (gate, pattern) through the topological order; at
suite scale that object churn dominates the whole ``simulation`` stage.
This module replaces it with flat NumPy storage and levelized array
kernels, batched over *all* patterns (fault-free sweep) and *all* activated
(fault, pattern) instances (faulty sweep) at once:

* **Flat event storage** (:class:`_WaveStore`): a waveform is a row of a
  ``(rows, K)`` float64 ``times`` matrix (``+inf`` padded) plus an event
  count and an initial value.  Canonical waveforms strictly alternate, so
  event *values* are implicit — event ``j`` carries ``init ^ ((j + 1) & 1)``
  — and only times are stored.  Fault-free rows are indexed ``gate * P +
  pattern`` (the word-matrix layout of
  :class:`~repro.simulation.parallel_sim.BitParallelSimulator` transposed
  onto the time axis).

* **Two-valued planes**: initial values for every (gate, pattern) come from
  one :meth:`BitParallelSimulator.simulate_words` sweep over the packed
  launch vectors; a second OR-propagation over the launch^capture toggle
  words yields the *activity* planes that select which (gate, pattern)
  instances can have events at all — everything else stays a constant row.

* **Levelized merge kernel** (:meth:`_WordWave._merge_eval`): per level one
  vectorized kernel merges the fanin event timelines of every active
  instance (stable argsort over a pin-major layout reproduces the reference
  ``(time, pin)`` tie-break), walks the merged slots in lockstep applying
  the pessimistic-late group rule of ``WaveformSimulator._eval_gate``
  (simultaneous pins within 1e-9 charge the slowest toggling pin), and
  evaluates gate functions through per-gate uint64 truth-table LUTs.

* **Vectorized inertial scheduling** (:meth:`_WordWave._schedule`): the
  pop/push stack of :func:`repro.simulation.waveform.sequential_schedule`
  run across all instances at once.

* **Global frontier faulty sweep**: all activated (fault, pattern)
  instances are injected at once (vectorized ``delayed()`` + merge kernel
  at the site) and propagated level by level through a shared changed-entry
  store keyed ``gate * NI + instance`` (binary-searched at gather time);
  an instance whose recomputed waveform is EPS-equal to the fault-free one
  drops out of the frontier exactly like the incremental engine's
  propagation cutoff.  Cone restriction emerges from the frontier itself.

* **Vectorized detection extraction**: XOR intervals are extracted from
  the event arrays by sampling signal parity at the merged event times
  (the exact sample set of :meth:`Waveform.diff_intervals`), followed by a
  vectorized glitch filter; only surviving (fault, pattern) pairs are
  materialized into :class:`IntervalSet` objects.

The engine is bit-identical to ``engine="reference"`` (guarded by the
randomized golden suite in ``tests/test_wordwave_golden.py``) whenever it
is applicable; :func:`wordwave_fallback_reason` names the cases where the
caller must fall back to the incremental engine (degenerate inertial
thresholds, exotic gate arities/kinds).
"""

from __future__ import annotations

import time as _time
import weakref
from typing import TYPE_CHECKING

import numpy as np

from repro.netlist.circuit import Circuit, GateKind
from repro.simulation.parallel_sim import BitParallelSimulator
from repro.utils.intervals import (
    EPS,
    IntervalSet,
    _interval_set_from_sorted,
    _interval_unchecked,
)

if TYPE_CHECKING:  # avoid repro.faults <-> repro.simulation import cycle
    from repro.faults.detection import DetectionData

#: Simultaneity window of the pessimistic-late merge (must equal the
#: ``ti - t > 1e-9`` grouping constant in ``WaveformSimulator._eval_gate``).
GROUP_EPS = 1e-9

#: Largest supported gate arity: the per-gate truth table must fit one
#: uint64 word (2**6 = 64 entries).
MAX_ARITY = 6

_SUPPORTED_KINDS = frozenset({
    GateKind.AND, GateKind.NAND, GateKind.OR, GateKind.NOR,
    GateKind.XOR, GateKind.XNOR, GateKind.NOT, GateKind.BUF,
})


def wordwave_fallback_reason(circuit: Circuit, patterns,
                             inertial: float) -> str | None:
    """Why the wordwave engine cannot run this workload (None = it can).

    The caller (``compute_detection_data``) falls back to the incremental
    engine when a reason is returned; both engines are bit-identical where
    wordwave applies, so the fallback only costs speed.
    """
    if inertial <= 2 * EPS:
        return "inertial threshold too small for canonical-schedule kernels"
    for g in circuit.gates:
        if not GateKind.is_combinational(g.kind):
            continue
        if g.kind not in _SUPPORTED_KINDS:
            return f"unsupported gate kind {g.kind!r}"
        if g.arity > MAX_ARITY:
            return f"gate arity {g.arity} exceeds LUT limit {MAX_ARITY}"
    return None


def _kind_lut(kind: str, arity: int, a_max: int) -> int:
    """Truth table of one gate kind over ``2**a_max`` padded input indices.

    Bit ``i`` is the output for input index ``i``; bits of ``i`` beyond
    ``arity`` belong to phantom padding pins and are ignored (the phantom
    rows are constant 0, so either convention is consistent — ignoring
    them keeps the table independent of the padding).
    """
    sub_mask = (1 << arity) - 1
    lut = 0
    for i in range(1 << a_max):
        sub = i & sub_mask
        if kind == GateKind.AND or kind == GateKind.NAND:
            out = sub == sub_mask
        elif kind == GateKind.OR or kind == GateKind.NOR:
            out = sub != 0
        elif kind == GateKind.XOR or kind == GateKind.XNOR:
            out = bool(bin(sub).count("1") & 1)
        else:  # NOT / BUF
            out = bool(sub & 1)
        if kind in (GateKind.NAND, GateKind.NOR, GateKind.XNOR, GateKind.NOT):
            out = not out
        lut |= int(out) << i
    return lut


class _WaveStore:
    """Flat (times, count, init) storage for a block of waveforms.

    ``t`` is ``(rows, K)`` float64 with ``+inf`` beyond each row's count —
    the padding doubles as the sort sentinel of the merge kernel and as the
    slot-validity test of the parity samplers (``inf`` fails every ``<=``
    comparison).  Values are implicit by alternation from ``i``.
    """

    __slots__ = ("t", "c", "i")

    def __init__(self, rows: int, k: int) -> None:
        self.t = np.full((rows, k), np.inf)
        self.c = np.zeros(rows, dtype=np.int64)
        self.i = np.zeros(rows, dtype=np.uint8)

    @property
    def k(self) -> int:
        return self.t.shape[1]

    def grow(self, k: int) -> None:
        if k <= self.k:
            return
        t = np.full((self.t.shape[0], k), np.inf)
        t[:, :self.k] = self.t
        self.t = t


class _ChangedStore:
    """Faulty-sweep overlay: changed waveforms keyed ``gate * NI + inst``.

    Rows are appended per level and the key index re-sorted, so gather-time
    lookups are one ``np.searchsorted`` per fanin pin.  Initial values are
    not stored — a delay fault never changes a waveform's initial value, so
    the fault-free row's ``init`` applies.
    """

    __slots__ = ("t", "c", "keys", "rows", "gate", "inst", "n", "_cap")

    def __init__(self, k: int) -> None:
        self._cap = 256
        self.t = np.full((self._cap, k), np.inf)
        self.c = np.zeros(self._cap, dtype=np.int64)
        self.gate = np.zeros(self._cap, dtype=np.int64)
        self.inst = np.zeros(self._cap, dtype=np.int64)
        self.keys = np.empty(0, dtype=np.int64)   # sorted keys
        self.rows = np.empty(0, dtype=np.int64)   # store row per sorted key
        self.n = 0

    @property
    def k(self) -> int:
        return self.t.shape[1]

    def grow_k(self, k: int) -> None:
        if k <= self.k:
            return
        t = np.full((self._cap, k), np.inf)
        t[:, :self.k] = self.t
        self.t = t

    def append(self, keys: np.ndarray, gate: np.ndarray, inst: np.ndarray,
               out_t: np.ndarray, out_c: np.ndarray) -> None:
        m = keys.size
        if not m:
            return
        while self.n + m > self._cap:
            self._cap *= 2
        if self.t.shape[0] < self._cap:
            t = np.full((self._cap, self.k), np.inf)
            t[:self.n] = self.t[:self.n]
            self.t = t
            for name in ("c", "gate", "inst"):
                arr = np.zeros(self._cap, dtype=np.int64)
                old = getattr(self, name)
                arr[:self.n] = old[:self.n]
                setattr(self, name, arr)
        rows = np.arange(self.n, self.n + m)
        ko = out_t.shape[1]
        self.t[rows, :ko] = out_t
        if ko < self.k:
            self.t[rows, ko:] = np.inf
        self.c[rows] = out_c
        self.gate[rows] = gate
        self.inst[rows] = inst
        self.n += m
        all_keys = np.concatenate([self.keys, keys])
        all_rows = np.concatenate([self.rows, rows])
        order = np.argsort(all_keys, kind="stable")
        self.keys = all_keys[order]
        self.rows = all_rows[order]

#: circuit -> {inertial: plan}.  The plan (fanin/LUT/level/fanout arrays)
#: is a pure function of the frozen circuit structure, so it is shared
#: across runs exactly like the repo's cone / bit-parallel caches; per-run
#: state (the event stores) is rebuilt by every sweep.
_PLAN_CACHE: "weakref.WeakKeyDictionary[Circuit, dict[float, _WordWave]]" = \
    weakref.WeakKeyDictionary()


def _plan_for(circuit: Circuit, inertial: float) -> "_WordWave":
    per = _PLAN_CACHE.get(circuit)
    if per is None:
        per = _PLAN_CACHE[circuit] = {}
    plan = per.get(inertial)
    if plan is None:
        plan = per[inertial] = _WordWave(circuit, inertial)
    return plan


class _WordWave:
    """One wordwave plan: static circuit arrays + per-run stores."""

    def __init__(self, circuit: Circuit, inertial: float) -> None:
        self.circuit = circuit
        self.inertial = inertial
        gates = circuit.gates
        g_n = len(gates)
        self.g_n = g_n
        comb = [i for i in circuit.topo_order
                if GateKind.is_combinational(gates[i].kind)]
        self.is_comb = np.zeros(g_n + 1, dtype=bool)
        self.is_comb[comb] = True
        self.a_max = max((gates[i].arity for i in comb), default=1)
        a_max = self.a_max

        # Padded fanin plan: phantom pins point at the virtual constant-0
        # row ``g_n`` (never toggles, init 0, delay 0), so every kernel can
        # gather a dense (n, A) block without masking.
        self.fanin_pad = np.full((g_n + 1, a_max), g_n, dtype=np.int64)
        self.pin_rise = np.zeros((g_n + 1, a_max))
        self.pin_fall = np.zeros((g_n + 1, a_max))
        self.luts = np.zeros(g_n + 1, dtype=np.uint64)
        lut_cache: dict[tuple[str, int], int] = {}
        lvl = np.zeros(g_n + 1, dtype=np.int64)
        for i in comb:
            g = gates[i]
            self.fanin_pad[i, :g.arity] = g.fanin
            for p, (dr, df) in enumerate(g.pin_delays):
                self.pin_rise[i, p] = dr
                self.pin_fall[i, p] = df
            key = (g.kind, g.arity)
            if key not in lut_cache:
                lut_cache[key] = _kind_lut(g.kind, g.arity, a_max)
            self.luts[i] = lut_cache[key]
            lvl[i] = circuit.level(i)
        self.gate_level = lvl

        # Levelized evaluation plan over combinational gates.
        by_level: dict[int, list[int]] = {}
        for i in comb:
            by_level.setdefault(int(lvl[i]), []).append(i)
        self.levels = [(L, np.asarray(idxs, dtype=np.int64))
                       for L, idxs in sorted(by_level.items())]
        self.max_level = self.levels[-1][0] if self.levels else 0

        # Fanout CSR restricted to combinational consumers (waveform
        # changes never propagate through a DFF within one pattern).
        counts = np.zeros(g_n + 1, dtype=np.int64)
        fan: list[list[int]] = [[] for _ in range(g_n)]
        for i in comb:
            for s in gates[i].fanin:
                fan[s].append(i)
        for s in range(g_n):
            counts[s] = len(fan[s])
        self.fo_ptr = np.zeros(g_n + 2, dtype=np.int64)
        np.cumsum(counts, out=self.fo_ptr[1:g_n + 2])
        self.fo_gate = np.asarray([c for lst in fan for c in lst],
                                  dtype=np.int64)

        # Observation plan: which gates are observation points, and which
        # gates reach one through combinational edges (the exact
        # ``reach[fi] non-empty`` eligibility test of ``_prepare_reach`` —
        # ``fanout_cone`` also only walks combinational edges).
        self.is_obs = np.zeros(g_n + 1, dtype=bool)
        self.is_obs[[op.gate for op in circuit.observation_points()]] = True
        can = self.is_obs.copy()
        for _lvl, idxs in reversed(self.levels):
            m = can[idxs]
            if m.any():
                can[self.fanin_pad[idxs[m]]] = True
        self.obs_can = can

        self._pow2 = np.int64(1) << np.arange(a_max, dtype=np.int64)
        self._pinbit = np.uint64(1) << np.arange(a_max, dtype=np.uint64)
        self._ar = np.arange(1024)

        self.bp = BitParallelSimulator(circuit)
        self.base: _WaveStore | None = None
        self.p_n = 0

    def _arange(self, n: int) -> np.ndarray:
        """Cached ``np.arange(n)`` prefix (row-index helper)."""
        if self._ar.size < n:
            self._ar = np.arange(max(n, 2 * self._ar.size))
        return self._ar[:n]

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def _schedule(self, cand_t: np.ndarray, cand_c: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized inertial scheduling (``sequential_schedule``).

        ``cand_t`` rows hold candidate transition times in *causal* order;
        candidate values strictly alternate from each row's initial value,
        so the push test ``value != stack top`` reduces to a parity test
        ``((c + 1) ^ sp) & 1`` that never needs the values themselves.
        Returns ``(times, counts)`` with times ``+inf``-padded past count.
        """
        n = cand_t.shape[0]
        c_max = int(cand_c.max()) if n else 0
        if not c_max:
            return np.zeros((n, 0)), np.zeros(n, dtype=np.int64)
        thresh = self.inertial - EPS
        ct = cand_t[:, :c_max]
        # Fast path: when every adjacent candidate gap is >= the threshold
        # nothing ever pops, and alternation guarantees every push, so the
        # schedule is the candidate row verbatim.  (inf padding beyond the
        # count yields inf - finite = inf >= thresh, never inf - inf.)
        near = (ct[:, 1:] - ct[:, :-1]) < thresh
        slow = near.any(axis=1)
        if not slow.any():
            # Callers never mutate the schedule, so the candidate slice is
            # returned as-is (cand_t is always a fresh local upstream).
            return ct, cand_c
        out_t = ct.copy()
        sp = cand_c.copy()
        s_rows = np.nonzero(slow)[0]
        st = ct[s_rows]
        sc = cand_c[s_rows]
        s_n = s_rows.size
        c_max_s = int(sc.max())
        s_out = np.full((s_n, c_max), np.inf)
        s_sp = np.zeros(s_n, dtype=np.int64)
        rows = self._arange(s_n)
        for c in range(c_max_s):
            valid = sc > c
            t = st[:, c]
            while True:
                top = s_out[rows, np.maximum(s_sp - 1, 0)]
                pop = valid & (s_sp > 0) & (t - top < thresh)
                if not pop.any():
                    break
                s_sp[pop] -= 1
            push = valid & ((((c + 1) ^ s_sp) & 1) == 1)
            s_out[rows[push], s_sp[push]] = t[push]
            s_sp[push] += 1
        # Clear stale popped slots so padding stays a sort/parity sentinel.
        s_out[np.arange(c_max)[None, :] >= s_sp[:, None]] = np.inf
        out_t[s_rows] = s_out
        sp[s_rows] = s_sp
        return out_t, sp

    def _merge_eval(self, luts: np.ndarray, prise: np.ndarray,
                    pfall: np.ndarray, in_t: np.ndarray, in_c: np.ndarray,
                    in_i: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pessimistic-late timeline merge + LUT eval + inertial schedule.

        ``in_t``/``in_c``/``in_i`` are ``(n, A, K)`` / ``(n, A)`` fanin
        event arrays; ``luts``/``prise``/``pfall`` the per-instance gate
        truth tables and pin delay rows.  Mirrors
        ``WaveformSimulator._eval_gate`` exactly (see module docstring).
        """
        n, a_n, k = in_t.shape
        idx = in_i.astype(np.int64) @ self._pow2[:a_n]
        out_init = ((luts >> idx.astype(np.uint64)) & np.uint64(1)
                    ).astype(np.uint8)
        m_max = int(in_c.sum(axis=1).max()) if n else 0
        if not m_max:
            return np.zeros((n, 0)), np.zeros(n, dtype=np.int64), out_init

        # Pin-major flatten + stable argsort == the reference (t, pin) sort.
        flat_t = in_t.reshape(n, a_n * k)
        order = np.argsort(flat_t, axis=1, kind="stable")[:, :m_max]
        ar = self._arange(n)[:, None]
        tl_t = flat_t[ar, order]
        pin = order // k
        tl_rise = prise[ar, pin]
        tl_fall = pfall[ar, pin]
        valid_tl = np.isfinite(tl_t)

        cand_t = np.full((n, m_max), np.inf)
        cand_c = np.zeros(n, dtype=np.int64)

        # Fast path: no two merged events within GROUP_EPS — every event is
        # its own group, so the whole slot walk collapses to a cumulative
        # XOR over toggled pin bits plus one LUT lookup per slot.
        near = (tl_t[:, 1:] - tl_t[:, :-1] <= GROUP_EPS) & valid_tl[:, 1:]
        slow = near.any(axis=1)
        fast = ~slow
        slow_any = bool(slow.any())
        if not slow_any or fast.any():
            if slow_any:
                rows_f = np.nonzero(fast)[0]
                v_f = valid_tl[rows_f]
                pin_f = pin[rows_f]
                idx_f = idx[rows_f]
                luts_f = luts[rows_f]
                oi_f = out_init[rows_f]
            else:  # the common all-fast batch: no row-subset copies at all
                rows_f = self._arange(n)
                v_f = valid_tl
                pin_f = pin
                idx_f = idx
                luts_f = luts
                oi_f = out_init
            bit_m = np.where(v_f, self._pinbit[pin_f], np.uint64(0))
            cur = (idx_f.astype(np.uint64)[:, None]
                   ^ np.bitwise_xor.accumulate(bit_m, axis=1))
            outs = ((luts_f[:, None] >> cur) & np.uint64(1)).astype(np.uint8)
            chg = np.empty_like(v_f)
            chg[:, 0] = outs[:, 0] != oi_f
            np.not_equal(outs[:, 1:], outs[:, :-1], out=chg[:, 1:])
            chg &= v_f
            r_nz, s_nz = np.nonzero(chg)  # row-major: slots stay in order
            # Within-row ordinal of each change = index minus the first
            # index of its row (r_nz is sorted, so one searchsorted does).
            pos = np.arange(r_nz.size) - np.searchsorted(r_nz, r_nz)
            # Output times only materialize at changed slots: gather them
            # and apply the polarity delay there instead of across the
            # full width (gr maps back into the unsubset timeline arrays).
            gr = rows_f[r_nz]
            o_nz = outs[r_nz, s_nz]
            t_nz = (tl_t[gr, s_nz]
                    + np.where(o_nz == 1, tl_rise[gr, s_nz],
                               tl_fall[gr, s_nz]))
            cand_t[gr, pos] = t_nz
            cand_c[rows_f] = chg.sum(axis=1)
        if slow_any:
            s_rows = np.nonzero(slow)[0]
            # Finite slots form a prefix of each (sorted) row: clip the
            # lockstep walk to the widest slow row.
            m_s = int(valid_tl[s_rows].sum(axis=1).max())
            s_t, s_c = self._merge_slots_grouped(
                luts[s_rows], idx[s_rows], out_init[s_rows],
                tl_t[s_rows, :m_s], tl_rise[s_rows, :m_s],
                tl_fall[s_rows, :m_s], pin[s_rows, :m_s])
            cand_t[s_rows, :s_t.shape[1]] = s_t
            cand_c[s_rows] = s_c

        out_t, out_c = self._schedule(cand_t, cand_c)
        return out_t, out_c, out_init

    @staticmethod
    def _merge_slots_grouped(luts: np.ndarray, idx: np.ndarray,
                             out_init: np.ndarray, tl_t: np.ndarray,
                             tl_rise: np.ndarray, tl_fall: np.ndarray,
                             pin: np.ndarray
                             ) -> tuple[np.ndarray, np.ndarray]:
        """Lockstep slot walk for rows with simultaneous (grouped) events.

        The general pessimistic-late rule: merged events within GROUP_EPS of
        their group's first event form one group charged with the slowest
        toggling pin's delay of the final output polarity.
        """
        n, m_max = tl_t.shape
        rows = np.arange(n)
        tl_bit = np.int64(1) << pin.astype(np.int64)

        cur_idx = idx.astype(np.int64).copy()
        cur_out = out_init.copy()
        grp_open = np.zeros(n, dtype=bool)
        grp_t = np.zeros(n)
        grp_rise = np.zeros(n)
        grp_fall = np.zeros(n)
        cand_t = np.full((n, m_max), np.inf)
        cand_c = np.zeros(n, dtype=np.int64)

        def close(mask: np.ndarray) -> None:
            m = mask & grp_open
            if not m.any():
                return
            sub = rows[m]
            new_out = ((luts[sub] >> cur_idx[sub].astype(np.uint64))
                       & np.uint64(1)).astype(np.uint8)
            chg = new_out != cur_out[sub]
            subc = sub[chg]
            if subc.size:
                no = new_out[chg]
                delay = np.where(no == 1, grp_rise[subc], grp_fall[subc])
                cand_t[subc, cand_c[subc]] = grp_t[subc] + delay
                cand_c[subc] += 1
                cur_out[subc] = no
            grp_open[sub] = False

        for s in range(m_max):
            t_s = tl_t[:, s]
            valid = np.isfinite(t_s)
            if not valid.any():
                break
            extend = valid & grp_open & (t_s - grp_t <= GROUP_EPS)
            new_grp = valid & ~extend
            close(new_grp)
            cur_idx[valid] ^= tl_bit[valid, s]
            r_s = tl_rise[:, s]
            f_s = tl_fall[:, s]
            grp_t[new_grp] = t_s[new_grp]
            grp_rise[new_grp] = r_s[new_grp]
            grp_fall[new_grp] = f_s[new_grp]
            if extend.any():
                grp_rise[extend] = np.maximum(grp_rise[extend], r_s[extend])
                grp_fall[extend] = np.maximum(grp_fall[extend], f_s[extend])
            grp_open |= new_grp
        close(np.ones(n, dtype=bool))
        return cand_t, cand_c

    # ------------------------------------------------------------------
    # Fault-free sweep
    # ------------------------------------------------------------------
    @staticmethod
    def _unpack_bits(words: np.ndarray, width: int) -> np.ndarray:
        """``(rows, W)`` uint64 planes -> ``(rows, width)`` uint8 bits."""
        return np.unpackbits(words.view(np.uint8), axis=1,
                             bitorder="little")[:, :width]

    def base_sweep(self, patterns) -> None:
        """Compute the fault-free event store for every (gate, pattern)."""
        circuit = self.circuit
        p_n = len(patterns)
        self.p_n = p_n
        launch_m, width = self.bp.pack_vectors_words(
            [p.launch for p in patterns])
        capture_m, _ = self.bp.pack_vectors_words(
            [p.capture for p in patterns])
        const0 = np.asarray([g.index for g in circuit.gates
                             if g.kind == GateKind.CONST0], dtype=np.int64)
        if const0.size:
            # The waveform engines pin constant generators regardless of
            # the packed vector bits (pack_vectors_words only forces CONST1).
            launch_m[const0] = 0
            capture_m[const0] = 0
        sources = np.asarray(circuit.sources(), dtype=np.int64)
        toggles = launch_m[sources] ^ capture_m[sources]

        # Activity planes: OR-propagated source toggles (plus the virtual
        # constant row).  A clear bit proves the waveform is constant.
        act = np.zeros((self.g_n + 1, launch_m.shape[1]), dtype=np.uint64)
        act[sources] = toggles
        for _lvl, idxs in self.levels:
            act[idxs] = np.bitwise_or.reduce(act[self.fanin_pad[idxs]],
                                             axis=1)
        self.act_bits = self._unpack_bits(act, p_n)

        sim_m = self.bp.simulate_words(launch_m, width)
        init_bits = np.zeros((self.g_n + 1, p_n), dtype=np.uint8)
        init_bits[:self.g_n] = self._unpack_bits(sim_m, p_n)

        k0 = 4
        base = _WaveStore((self.g_n + 1) * p_n, k0)
        base.i = init_bits.reshape(-1)
        # Source events: one launch transition at t=0 where launch!=capture.
        tog_bits = self._unpack_bits(toggles, p_n)
        si, pi = np.nonzero(tog_bits)
        rows = sources[si] * p_n + pi
        base.t[rows, 0] = 0.0
        base.c[rows] = 1
        self.base = base

        for _lvl, idxs in self.levels:
            g_act = self.act_bits[idxs]
            gi, pii = np.nonzero(g_act)
            if not gi.size:
                continue
            g_arr = idxs[gi]
            out_t, out_c, _oi = self._eval_instances(g_arr, pii, None, None)
            if out_t.shape[1] > base.k:
                base.grow(out_t.shape[1])
            rows = g_arr * p_n + pii
            ko = out_t.shape[1]
            if ko:
                base.t[rows, :ko] = out_t
            base.c[rows] = out_c
            # out_init always equals the two-valued plane value: the gate
            # function of the fanin initial values.  (Checked in tests.)

    def _eval_instances(self, g_arr: np.ndarray, pat: np.ndarray,
                        inst: np.ndarray | None, ch: _ChangedStore | None
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Merge-evaluate gates ``g_arr`` for instances ``(g, pat[, inst])``.

        Fanin waveforms come from the fault-free store, overlaid with the
        changed store (binary search on ``src * NI + inst``) during the
        faulty sweep.
        """
        base = self.base
        p_n = self.p_n
        n = g_arr.size
        src = self.fanin_pad[g_arr]                      # (n, A)
        base_rows = src * p_n + pat[:, None]
        in_c = base.c[base_rows]
        in_i = base.i[base_rows]
        hit = None
        pos_c = None
        if ch is not None and ch.n:
            keys = src * np.int64(self.ni) + inst[:, None]
            pos = np.searchsorted(ch.keys, keys)
            pos_c = np.minimum(pos, ch.keys.size - 1)
            hit = ch.keys[pos_c] == keys
            if hit.any():
                in_c[hit] = ch.c[ch.rows[pos_c[hit]]]
            else:
                hit = None

        def run(sel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            # Gather only as many event slots as the widest fanin of the
            # selected rows actually holds — stores grow to the global
            # maximum, but a typical level only sees a handful of events
            # per waveform, and the merge kernel's argsort cost scales
            # with the gathered width.
            c_sub = in_c[sel]
            kg = max(int(c_sub.max()), 1) if c_sub.size else 1
            br = base_rows[sel]
            t_sub = base.t[:, :kg][br]
            if hit is not None:
                h = hit[sel]
                if h.any():
                    rs = ch.rows[pos_c[sel][h]]
                    kc = min(ch.k, kg)
                    over = np.full((rs.size, kg), np.inf)
                    over[:, :kc] = ch.t[rs][:, :kc]
                    t_sub[h] = over
            g_sub = g_arr[sel]
            return self._merge_eval(self.luts[g_sub], self.pin_rise[g_sub],
                                    self.pin_fall[g_sub], t_sub, c_sub,
                                    in_i[sel])

        # Width bucketing: large batches are dominated by a few wide rows —
        # splitting off the (typical) <=2-event bulk shrinks both the
        # gather width and the merge kernel's sort width for most rows.
        if n >= 512:
            km = in_c.max(axis=1)
            kg_all = int(km.max())
            if kg_all > 3:
                small = km <= 2
                ns = int(small.sum())
                if 256 <= ns < n - 64:
                    si = np.nonzero(small)[0]
                    bi = np.nonzero(~small)[0]
                    t1, c1, i1 = run(si)
                    t2, c2, i2 = run(bi)
                    k_out = max(t1.shape[1], t2.shape[1], 1)
                    out_t = np.full((n, k_out), np.inf)
                    out_c = np.empty(n, dtype=np.int64)
                    out_i = np.empty(n, dtype=np.uint8)
                    out_t[si, :t1.shape[1]] = t1
                    out_c[si] = c1
                    out_i[si] = i1
                    out_t[bi, :t2.shape[1]] = t2
                    out_c[bi] = c2
                    out_i[bi] = i2
                    return out_t, out_c, out_i
        return run(slice(None))

    # ------------------------------------------------------------------
    # Faulty sweep
    # ------------------------------------------------------------------
    def activated_instances(self, sg_e: np.ndarray, rising_e: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray]:
        """Exact per-(fault, pattern) activation from the fault-free store.

        A fault is activated when the waveform at its site signal has a
        transition of the faulted polarity: with alternating canonical
        events that is ``count >= 2``, or ``count == 1`` with the single
        event's value (``1 - init``) matching the polarity — the same
        predicate as ``Waveform.has_transition(rising=...)``.
        """
        base = self.base
        p_n = self.p_n
        # Per-eligible-fault site arrays, shared with inject_sites.
        self.sg_e = sg_e
        self.rising_e = rising_e
        sg, rising = sg_e, rising_e
        cnt = base.c.reshape(-1, p_n)[sg]
        ini = base.i.reshape(-1, p_n)[sg]
        want_init = np.where(rising, 0, 1).astype(np.uint8)[:, None]
        act = (cnt >= 2) | ((cnt == 1) & (ini == want_init))
        ei, pat = np.nonzero(act)
        return ei, pat

    def inject_sites(self, gate_e: np.ndarray, pin_e: np.ndarray,
                     delta_e: np.ndarray, ei: np.ndarray, pat: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Faulty site waveforms for every activated instance.

        Vectorizes ``WaveformSimulator._faulty_site_wave``: the site
        signal's transitions of the faulted polarity move by delta, the
        moved candidates are inertial-rescheduled, and input-pin faults
        additionally re-evaluate the site gate with the delayed pin.
        Returns ``(site_gate, times, counts)`` per instance.
        """
        base = self.base
        p_n = self.p_n
        sg_e = self.sg_e
        rising_e = self.rising_e

        sig_rows = sg_e[ei] * p_n + pat
        sc = base.c[sig_rows]
        ks = max(int(sc.max()), 1) if sc.size else 1
        st = base.t[:, :ks][sig_rows]
        si = base.i[sig_rows]
        d_rise = np.where(rising_e[ei], delta_e[ei], 0.0)
        d_fall = np.where(rising_e[ei], 0.0, delta_e[ei])
        # Event j's value is init ^ ((j+1)&1): a per-column parity.
        parity = ((np.arange(ks) + 1) & 1).astype(np.uint8)[None, :]
        vals = si[:, None] ^ parity
        moved = st + np.where(vals == 1, d_rise[:, None], d_fall[:, None])
        del_t, del_c = self._schedule(moved, sc)

        n_i = ei.size
        site_g = gate_e[ei]
        ko = max(del_t.shape[1], 1)
        out_t = np.full((n_i, ko), np.inf)
        out_c = np.zeros(n_i, dtype=np.int64)
        is_out = pin_e[ei] < 0
        if is_out.any():
            out_t[is_out, :del_t.shape[1]] = del_t[is_out]
            out_c[is_out] = del_c[is_out]
        m_in = ~is_out
        if m_in.any():
            g_in = site_g[m_in]
            src = self.fanin_pad[g_in]
            base_rows = src * p_n + pat[m_in][:, None]
            in_c = base.c[base_rows]
            sub = np.arange(n_i)[m_in]
            pin_rows = pin_e[ei][m_in]
            in_c[np.arange(sub.size), pin_rows] = del_c[m_in]
            kg = max(int(in_c.max()), 1, del_t.shape[1])
            in_t = base.t[:, :kg][base_rows]
            in_i = base.i[base_rows]
            pad = np.full((sub.size, kg), np.inf)
            pad[:, :del_t.shape[1]] = del_t[m_in]
            in_t[np.arange(sub.size), pin_rows] = pad
            ev_t, ev_c, _oi = self._merge_eval(
                self.luts[g_in], self.pin_rise[g_in], self.pin_fall[g_in],
                in_t, in_c, in_i)
            ke = ev_t.shape[1]
            if ke > out_t.shape[1]:
                grown = np.full((n_i, ke), np.inf)
                grown[:, :out_t.shape[1]] = out_t
                out_t = grown
            out_t[sub, :ke] = ev_t
            out_c[sub] = ev_c
        if out_t.shape[1] > base.k:
            base.grow(out_t.shape[1])
        return site_g, out_t, out_c

    def changed_mask(self, gate: np.ndarray, pat: np.ndarray,
                     new_t: np.ndarray, new_c: np.ndarray) -> np.ndarray:
        """Instances whose waveform differs (beyond EPS) from fault-free."""
        base = self.base
        rows = gate * self.p_n + pat
        b_t = base.t[rows]
        b_c = base.c[rows]
        k = min(new_t.shape[1], base.k)
        slot = np.arange(k)[None, :] < np.minimum(new_c, b_c)[:, None]
        ev_eq = ~slot | (np.abs(new_t[:, :k] - b_t[:, :k]) <= EPS)
        return (new_c != b_c) | ~ev_eq.all(axis=1)

    def faulty_sweep(self, site_g: np.ndarray, site_t: np.ndarray,
                     site_c: np.ndarray, ei: np.ndarray, pat: np.ndarray
                     ) -> _ChangedStore:
        """Global change-driven frontier propagation of all instances.

        Seeds the changed store with the perturbed site waveforms, then
        walks the levels once: candidates are the combinational consumers
        of changed entries, evaluated with the changed overlay; an
        EPS-equal result is dropped (the incremental engine's cutoff).
        """
        self.ni = ei.size
        base = self.base
        ch = _ChangedStore(base.k)
        n_lv = self.max_level + 2
        pend_g: list[list[np.ndarray]] = [[] for _ in range(n_lv)]
        pend_i: list[list[np.ndarray]] = [[] for _ in range(n_lv)]

        def push(gs: np.ndarray, insts: np.ndarray) -> None:
            start = self.fo_ptr[gs]
            cnt = self.fo_ptr[gs + 1] - start
            tot = int(cnt.sum())
            if not tot:
                return
            ragged = np.arange(tot) - np.repeat(np.cumsum(cnt) - cnt, cnt)
            cons = self.fo_gate[np.repeat(start, cnt) + ragged]
            ci = np.repeat(insts, cnt)
            lv = self.gate_level[cons]
            for L in np.unique(lv):
                m = lv == L
                pend_g[L].append(cons[m])
                pend_i[L].append(ci[m])

        inst_ids = np.arange(ei.size)
        seed_chg = self.changed_mask(site_g, pat, site_t, site_c)
        gs = site_g[seed_chg]
        insts = inst_ids[seed_chg]
        ch.grow_k(site_t.shape[1])
        ch.append(gs * np.int64(self.ni) + insts, gs, insts,
                  site_t[seed_chg], site_c[seed_chg])
        push(gs, insts)

        for L in range(n_lv):
            if not pend_g[L]:
                continue
            g_cat = np.concatenate(pend_g[L])
            i_cat = np.concatenate(pend_i[L])
            keys = g_cat * np.int64(self.ni) + i_cat
            keys.sort()
            if keys.size > 1:
                uniq = np.empty(keys.size, dtype=bool)
                uniq[0] = True
                np.not_equal(keys[1:], keys[:-1], out=uniq[1:])
                keys = keys[uniq]
            g_arr = keys // self.ni
            i_arr = keys % self.ni
            p_arr = pat[i_arr]
            out_t, out_c, _oi = self._eval_instances(g_arr, p_arr, i_arr, ch)
            if out_t.shape[1] > base.k:
                base.grow(out_t.shape[1])
            chg = self.changed_mask(g_arr, p_arr, out_t, out_c)
            if not chg.any():
                continue
            gs = g_arr[chg]
            insts = i_arr[chg]
            ch.grow_k(max(out_t.shape[1], 1))
            ch.append(keys[chg], gs, insts, out_t[chg], out_c[chg])
            push(gs, insts)
        return ch

    # ------------------------------------------------------------------
    # Detection-range extraction
    # ------------------------------------------------------------------
    def extract_pieces(self, b_t, b_c, f_t, f_c, horizon: float,
                       glitch_threshold: float
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized ``Waveform.diff_intervals`` + glitch filter.

        Samples the XOR of base/faulty signal parity at the merged event
        times (plus 0 and ``horizon`` — the exact sample set of the
        reference), turns differ-run boundaries in the time-sorted sample
        matrix into (open, close) piece pairs, normalizes them with the
        ``IntervalSet`` constructor's drop-then-merge rule and drops pieces
        shorter than the glitch threshold.  Returns flat ``(entry_row, lo,
        hi)`` arrays sorted by (row, lo) — canonical per entry.
        """
        ne = b_t.shape[0]
        samples = np.concatenate(
            [b_t, f_t, np.zeros((ne, 1)), np.full((ne, 1), horizon)], axis=1)
        valid = (samples > 0.0) & (samples < horizon)
        valid[:, -2:] = True  # 0 and horizon are always sampled
        probe = samples[:, :, None] + EPS
        cb = (b_t[:, None, :] <= probe).sum(axis=2)
        cf = (f_t[:, None, :] <= probe).sum(axis=2)
        differ = (((cb ^ cf) & 1) != 0) & valid

        key = np.where(valid, samples, np.inf)
        order = np.argsort(key, axis=1, kind="stable")
        ar = self._arange(ne)[:, None]
        s_t = samples[ar, order]
        s_d = differ[ar, order]
        s_v = valid[ar, order]
        # Invalid slots sort to the end (key inf) and never differ; giving
        # them the horizon time makes the first one close any still-open
        # piece exactly like the reference's final-close rule.  A virtual
        # trailing non-differ sample does the same for all-valid rows.
        s_t[~s_v] = horizon
        s_t = np.concatenate([s_t, np.full((ne, 1), horizon)], axis=1)
        s_d = np.concatenate([s_d, np.zeros((ne, 1), dtype=bool)], axis=1)

        # Differ-run boundaries: equal-time duplicate samples have equal
        # differ flags, so runs open/close at the first slot of each
        # boundary — the same times the reference's de-duplicated sweep
        # sees.  Opens and closes strictly alternate per row starting with
        # an open, so the k-th nonzero of each (in row-major order) pair up.
        d_prev = np.concatenate([np.zeros((ne, 1), dtype=bool), s_d[:, :-1]],
                                axis=1)
        ro, co = np.nonzero(s_d & ~d_prev)
        rc, cc = np.nonzero(~s_d & d_prev)
        row = ro
        lo = s_t[ro, co]
        hi = s_t[rc, cc]
        keep = hi - lo > EPS  # the constructor drops degenerate pieces
        if not keep.all():
            row = row[keep]
            lo = lo[keep]
            hi = hi[keep]
        row, lo, hi = _merge_pieces(row, lo, hi)
        if glitch_threshold > 0.0:
            keep = (hi - lo) + EPS >= glitch_threshold
            if not keep.all():
                row = row[keep]
                lo = lo[keep]
                hi = hi[keep]
        return row, lo, hi


def _merge_pieces(seg: np.ndarray, lo: np.ndarray, hi: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge pieces with gaps ``<= EPS`` within each segment (vectorized).

    ``seg`` must be non-decreasing with ``lo`` ascending inside each
    segment and every piece longer than EPS.  Reproduces the
    ``IntervalSet`` constructor's merge: a piece joins the current group
    when its ``lo`` is within EPS of the group's running-max ``hi`` (with
    sorted los the running max over the whole segment equals the current
    group's max — a new group's first piece always raises it).
    """
    n = seg.size
    if n <= 1:
        return seg, lo, hi
    seg_change = seg[1:] != seg[:-1]
    # Longest segment bounds the doubling passes of the prefix max.
    bnd = np.nonzero(seg_change)[0]
    if bnd.size:
        ends = np.concatenate([bnd, [n - 1]])
        starts = np.concatenate([[-1], bnd])
        max_len = int((ends - starts).max())
    else:
        max_len = n
    pm = hi.copy()
    step = 1
    while step < max_len:
        same = seg[step:] == seg[:-step]
        np.maximum(pm[step:], np.where(same, pm[:-step], -np.inf),
                   out=pm[step:])
        step *= 2
    new_start = np.empty(n, dtype=bool)
    new_start[0] = True
    new_start[1:] = seg_change | (lo[1:] > pm[:-1] + EPS)
    if new_start.all():
        return seg, lo, hi
    g_starts = np.nonzero(new_start)[0]
    return seg[g_starts], lo[g_starts], np.maximum.reduceat(hi, g_starts)


def _union_sets(inst: np.ndarray, lo: np.ndarray, hi: np.ndarray
                ) -> tuple[list[int], list[IntervalSet]]:
    """Per-instance :class:`IntervalSet` union of flat (inst, lo, hi) pieces.

    ``inst`` selects the owner of each canonical per-gate piece; pieces
    are lexsorted by (inst, lo) and merged with the constructor rule, so
    the result equals ``IntervalSet(all pieces of the instance)``.
    Returns (sorted unique instance ids, their interval sets).
    """
    if not inst.size:
        return [], []
    order = np.lexsort((lo, inst))
    u_inst, u_lo, u_hi = _merge_pieces(inst[order], lo[order], hi[order])
    first = np.empty(u_inst.size, dtype=bool)
    first[0] = True
    np.not_equal(u_inst[1:], u_inst[:-1], out=first[1:])
    starts = np.nonzero(first)[0].tolist()
    starts.append(u_inst.size)
    lo_l = u_lo.tolist()
    hi_l = u_hi.tolist()
    ids = u_inst[first].tolist()
    sets = [
        _interval_set_from_sorted(tuple(
            _interval_unchecked(lo_l[s], hi_l[s])
            for s in range(starts[j], starts[j + 1])))
        for j in range(len(ids))
    ]
    return ids, sets


def run_wordwave(data: "DetectionData", *, inertial: float,
                 glitch_threshold: float, timer=None) -> bool:
    """Fill ``data.ranges`` with the word-parallel engine.

    The caller has validated applicability via
    :func:`wordwave_fallback_reason` and created an empty
    :class:`~repro.faults.detection.DetectionData`.  Fault eligibility
    (site reaches an observation point) is decided on the cached plan's
    reachability bitmap — no per-fault cone sets are materialized.
    Results are bit-identical to ``engine="reference"``.

    Returns False (without touching ``data``) when a fault site sits on a
    non-combinational gate — the default universe never produces one, but
    custom site lists can; the caller then falls back to the incremental
    engine.
    """
    circuit = data.circuit
    faults = data.faults
    patterns = data.patterns
    if not faults or not len(patterns):
        return True

    t0 = _time.perf_counter()
    ww = _plan_for(circuit, inertial)
    sites = [f.site for f in faults]
    site_gate = np.asarray([s.gate for s in sites], dtype=np.int64)
    site_pin = np.asarray([s.pin for s in sites], dtype=np.int64)
    if not ww.is_comb[site_gate].all():
        return False
    delta = np.asarray([f.delta for f in faults])
    rising = np.asarray([f.slow_to_rise for f in faults], dtype=bool)
    # signal_gate(): the faulted pin's driver for input-pin faults, the
    # gate itself for output-pin faults — resolved on the padded fanin plan.
    signal = np.where(site_pin < 0, site_gate,
                      ww.fanin_pad[site_gate, np.maximum(site_pin, 0)])
    elig = np.nonzero(ww.obs_can[site_gate])[0]
    if not elig.size:
        return True

    old_err = np.seterr(invalid="ignore")  # inf-padding arithmetic
    try:
        _run_wordwave_body(data, ww, signal, site_gate, site_pin, delta,
                           rising, elig, glitch_threshold, timer, t0)
    finally:
        np.seterr(**old_err)
    return True


def _run_wordwave_body(data, ww, signal, site_gate, site_pin, delta, rising,
                       elig, glitch_threshold, timer, t0):
    from repro.faults.detection import FaultPatternRange

    patterns = data.patterns
    ww.base_sweep(patterns)
    if timer is not None:
        t1 = _time.perf_counter()
        timer.add("base_sim", t1 - t0)
        t0 = t1

    ei, pat = ww.activated_instances(signal[elig], rising[elig])
    if not ei.size:
        return
    site_g, site_t, site_c = ww.inject_sites(
        site_gate[elig], site_pin[elig], delta[elig], ei, pat)
    if timer is not None:
        t1 = _time.perf_counter()
        timer.add("site_inject", t1 - t0)
        t0 = t1

    ch = ww.faulty_sweep(site_g, site_t, site_c, ei, pat)
    if timer is not None:
        t1 = _time.perf_counter()
        timer.add("faulty_sim", t1 - t0)
        t0 = t1

    # Changed entries at observation gates carry every potential detection.
    e_gate = ch.gate[:ch.n]
    e_inst = ch.inst[:ch.n]
    sel = ww.is_obs[e_gate]
    e_gate = e_gate[sel]
    e_inst = e_inst[sel]
    e_rows = np.nonzero(sel)[0]
    if e_gate.size:
        base_rows = e_gate * ww.p_n + pat[e_inst]
        b_c = ww.base.c[base_rows]
        f_c = ch.c[e_rows]
        kb = max(int(b_c.max()), 1)
        kf = max(int(f_c.max()), 1)
        b_t = ww.base.t[:, :kb][base_rows]
        f_t = ch.t[:, :kf][e_rows]
        row, p_lo, p_hi = ww.extract_pieces(
            b_t, b_c, f_t, f_c, data.horizon, glitch_threshold)

        pc_inst = e_inst[row]
        ids_all, sets_all = _union_sets(pc_inst, p_lo, p_hi)
        monitored = data.monitored_gates
        is_mon = np.zeros(ww.g_n + 1, dtype=bool)
        if monitored:
            is_mon[np.fromiter(monitored, dtype=np.int64,
                               count=len(monitored))] = True
        mm = is_mon[e_gate[row]]
        ids_mon, sets_mon = _union_sets(pc_inst[mm], p_lo[mm], p_hi[mm])

        fi_l = elig[ei[np.asarray(ids_all, dtype=np.int64)]].tolist() \
            if ids_all else []
        pi_l = pat[np.asarray(ids_all, dtype=np.int64)].tolist() \
            if ids_all else []
        empty = IntervalSet.empty()
        ranges = data.ranges  # data is fresh: fill directly, no cache churn
        mp = 0
        n_mon = len(ids_mon)
        for j, inst_id in enumerate(ids_all):
            if mp < n_mon and ids_mon[mp] == inst_id:
                i_mon = sets_mon[mp]
                mp += 1
            else:
                i_mon = empty
            d = ranges.get(fi_l[j])
            if d is None:
                d = ranges[fi_l[j]] = {}
            d[pi_l[j]] = FaultPatternRange(sets_all[j], i_mon)
    if timer is not None:
        timer.add("intervals", _time.perf_counter() - t0)
