"""Exact optimum by brute-force enumeration of job-to-machine assignments.

Once the assignment is fixed, sequencing each machine by WSPT is optimal,
so enumerating assignments is an exact method. Machine symmetry is broken
by only visiting canonical assignments: scanning jobs in WSPT order,
machine labels must appear in first-use order (job 1 of the scan sits on
machine 1, and a job may open at most one new machine). Partial costs are
monotone, which allows pruning against the incumbent.

Intended for tiny instances only; this is the ground truth the rest of the
package is validated against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .instance import Instance, Schedule, evaluate_schedule

SIZE_GUARD = 10**8


class SizeLimitError(ValueError):
    """Instance exceeds the m**n enumeration guard."""


@dataclass(frozen=True)
class OracleResult:
    optimum: int
    schedule: Schedule
    all_optima: tuple[Schedule, ...] | None = None


def _canonical_schedule(inst: Instance, machines: list[list[int]]) -> Schedule:
    """Order machines by first job id, empty machines last."""
    key = lambda mach: mach[0] if mach else inst.n + 1
    ordered = sorted(machines, key=key)
    return Schedule(machines=tuple(tuple(mach) for mach in ordered))


def brute_force_optimal(inst: Instance, enumerate_all: bool = False) -> OracleResult:
    """Minimize total weighted completion time by exhaustive assignment.

    With ``enumerate_all`` the result also carries every optimal canonical
    assignment (machines sequenced by WSPT, relabeled canonically).

    Raises:
        SizeLimitError: when m**n exceeds SIZE_GUARD.
    """
    size = 1
    for _ in range(inst.n):  # stops past the guard, so m**n is never built
        size *= inst.m
        if size > SIZE_GUARD:
            raise SizeLimitError(
                f"m**n = {inst.m}**{inst.n} exceeds the enumeration guard {SIZE_GUARD:.0e}"
            )

    order = inst.wspt_ids
    jobs = [inst.job(j) for j in order]
    m = inst.m

    best_cost = None
    best_assignments: list[tuple[int, ...]] = []

    loads = [0] * m
    assign = [0] * inst.n

    def dfs(idx: int, used: int, cost: int) -> None:
        nonlocal best_cost
        if best_cost is not None:
            if enumerate_all:
                if cost > best_cost:
                    return
            elif cost >= best_cost:
                return
        if idx == inst.n:
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_assignments.clear()
            if cost == best_cost:
                best_assignments.append(tuple(assign[:]))
            return
        job = jobs[idx]
        # first-use canonical form: may reuse any open machine or open the next
        limit = min(used + 1, m)
        for k in range(limit):
            assign[idx] = k
            loads[k] += job.p
            dfs(idx + 1, max(used, k + 1), cost + job.w * loads[k])
            loads[k] -= job.p
        assign[idx] = 0

    if m == 1:
        # the one canonical assignment, found without a search n levels deep
        best_cost = sum(job.w * c for job, c in zip(jobs, accumulate(job.p for job in jobs)))
        best_assignments.append(tuple(assign))
    else:
        dfs(0, 0, 0)
    assert best_cost is not None

    def to_schedule(a: tuple[int, ...]) -> Schedule:
        machines: list[list[int]] = [[] for _ in range(m)]
        for idx, k in enumerate(a):
            machines[k].append(order[idx])  # WSPT scan order keeps machines sorted
        return _canonical_schedule(inst, machines)

    schedules = [to_schedule(a) for a in best_assignments]
    assert evaluate_schedule(inst, schedules[0]) == best_cost
    return OracleResult(
        optimum=best_cost,
        schedule=schedules[0],
        all_optima=tuple(schedules) if enumerate_all else None,
    )
