"""Output checks of the flow benchmark, all measured from outside.

Each check returns a list of human-readable problems (empty = pass), so a
caller can count failing operations and report why.
"""

from __future__ import annotations

import json
from typing import Callable


def derived_coverage(schedule, pairs_for_fault: Callable, configs,
                     clock) -> frozenset[int]:
    """Target faults the schedule's entries detect, re-derived from ranges.

    Recomputes detection from the per-(fault, pattern) ranges — never
    from ``ScheduleResult.covered``: a fault counts as covered when some
    entry applies a pattern whose flip-flop range, or monitor range
    shifted by the entry's delay configuration, contains the entry's
    period, and that period lies inside the FAST window.
    """
    by_pattern: dict[int, list] = {}
    for entry in schedule.entries:
        by_pattern.setdefault(entry.pattern, []).append(entry)
    delays = tuple(configs) if configs is not None else ()
    lo, hi = clock.t_min - 1e-9, clock.t_nom + 1e-9
    covered = set()
    for f in schedule.targets:
        for pattern, fpr in pairs_for_fault(f):
            if any(_detects(fpr, e, delays, lo, hi)
                   for e in by_pattern.get(pattern, ())):
                covered.add(f)
                break
    return frozenset(covered)


def _detects(fpr, entry, delays, lo, hi) -> bool:
    if not lo <= entry.period <= hi:
        return False
    if fpr.i_all.contains(entry.period):
        return True
    if entry.config < 0:
        return False
    return fpr.i_mon.shifted(delays[entry.config]).contains(entry.period)


def check_schedule(schedule, pairs_for_fault: Callable, configs,
                   clock) -> tuple[list[str], frozenset[int]]:
    """The re-derived covered set must equal the covered set claimed."""
    derived = derived_coverage(schedule, pairs_for_fault, configs, clock)
    problems = []
    if derived != schedule.covered:
        missing = len(schedule.covered - derived)
        extra = len(derived - schedule.covered)
        problems.append(f"schedule claims {len(schedule.covered)} covered "
                        f"targets, entries detect {len(derived)} "
                        f"({missing} claimed but undetected, {extra} "
                        f"detected but unclaimed)")
    if not schedule.covered <= schedule.targets:
        problems.append("schedule claims coverage outside its targets")
    return problems, derived


def check_flow_result(result) -> tuple[list[str], frozenset[int]]:
    """Check a FlowResult's proposed schedule against its detection data."""
    return check_schedule(result.schedules["prop"],
                          result.data.pairs_for_fault, result.configs,
                          result.clock)


def payload_rows(payload: dict) -> bytes:
    """Canonical bytes of the table rows a flow job returns."""
    rows = {k: payload.get(k) for k in ("table1", "table2")}
    return json.dumps(rows, sort_keys=True, separators=(",", ":")).encode()


def check_replay(fresh: dict, replay: dict, cache: str) -> list[str]:
    """A replayed job must be an all-hit copy of its fresh result."""
    problems = []
    if cache != "hit":
        problems.append(f"replay cache status {cache!r}, expected 'hit'")
    if "table1" not in replay or "table2" not in replay:
        problems.append("replay payload lacks table1/table2 rows")
    elif payload_rows(fresh) != payload_rows(replay):
        problems.append("replay rows differ from the fresh rows")
    return problems


def check_resched_state(state) -> tuple[list[str], frozenset[int]]:
    """Final incremental schedule: cost-equal to a cold re-solve, and its
    coverage re-derived from the state's shifted per-pattern ranges."""
    from repro.scheduling.resched import cold_schedule_result

    sched = state.schedule
    cold = cold_schedule_result(state)
    problems = []
    warm_cost = (sched.num_frequencies, len(sched.covered))
    cold_cost = (cold.num_frequencies, len(cold.covered))
    if warm_cost != cold_cost:
        problems.append(f"incremental cost {warm_cost} != cold cost "
                        f"{cold_cost}")

    def pairs(f):
        return sorted(state.pattern_ranges.get(f, {}).items())

    more, derived = check_schedule(sched, pairs, state.configs, state.clock)
    return problems + more, derived

