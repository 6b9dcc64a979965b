"""Exact optimum by branch and bound over job-to-machine assignments.

Once the assignment is fixed, sequencing each machine by WSPT is optimal,
so enumerating assignments is an exact method. Machine symmetry is broken
by only visiting canonical assignments: scanning jobs in WSPT order,
machine labels must appear in first-use order (job 1 of the scan sits on
machine 1, and a job may open at most one new machine).

Two prunes cut subtrees that cannot hold an assignment better than the
incumbent (or, with ``enumerate_all``, as good as it):

- a lower bound. The unplaced jobs are a suffix of the scan; each starts
  no earlier than the least open-machine load l (0 while a machine is
  unopened), and on m machines from time 0 they cost at least
  (2 SC + (m - 1) sum w_j p_j) / 2m, with SC their single-machine WSPT
  cost (Eastman, Even & Isaacs, Management Science 11(2), 1964). So a
  node costs at least cost + l * W + that bound, W the unplaced weight;
- a dominance table. Two nodes with the same multiset of open-machine
  loads have the same jobs left and the same completions, so a node that
  reaches a multiset no cheaper than an earlier node did (dearer, with
  ``enumerate_all``) is skipped. The table holds the least cost per load
  multiset and takes no new key past ``DOMINANCE_KEYS``.

The search visits the surviving nodes in the order of the plain
enumeration, so the first optimum found and every optimum, in order, are
those of the plain scan. An instance with m**n above ``SIZE_GUARD`` is
refused before any search. This is the ground truth the rest of the
package is validated against, on small instances.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

from .instance import Instance, ModelSizeError, Schedule, evaluate_schedule

SIZE_GUARD = 10**8
DOMINANCE_KEYS = 2**16  # keys the dominance table takes, which bounds its memory


class OracleResult(NamedTuple):
    optimum: int
    schedule: Schedule
    all_optima: tuple[Schedule, ...] | None = None


def _canonical_schedule(inst: Instance, machines: list[list[int]]) -> Schedule:
    """Order machines by first job id, empty machines last."""
    key = lambda mach: mach[0] if mach else inst.n + 1
    ordered = sorted(machines, key=key)
    return Schedule(machines=tuple(tuple(mach) for mach in ordered))


def brute_force_optimal(inst: Instance, enumerate_all: bool = False) -> OracleResult:
    """Minimize total weighted completion time over canonical assignments.

    With ``enumerate_all`` the result also carries every optimal canonical
    assignment (machines sequenced by WSPT, relabeled canonically).

    Raises:
        ModelSizeError: when m**n exceeds SIZE_GUARD.
    """
    size = 1
    for _ in range(inst.n):  # stops past the guard, so m**n is never built
        size *= inst.m
        if size > SIZE_GUARD:
            raise ModelSizeError(
                f"m**n = {inst.m}**{inst.n} exceeds the enumeration guard {SIZE_GUARD:.0e}"
            )

    order = inst.wspt_ids
    jobs = [inst.job(j) for j in order]

    n, m = inst.n, inst.m
    # Suffix sums over the scan: weight[idx] is the weight still to place at
    # node idx, bound[idx] the Eastman-Even-Isaacs bound on those jobs started
    # at time 0, rounded up since every cost is an integer.
    weight = [0] * (n + 1)
    bound = [0] * (n + 1)
    single = wp = 0
    for idx in range(n - 1, -1, -1):
        job = jobs[idx]
        weight[idx] = weight[idx + 1] + job.w
        single += job.p * weight[idx]  # single-machine WSPT cost of the suffix
        wp += job.w * job.p
        bound[idx] = -(-(2 * single + (m - 1) * wp) // (2 * m))
    # a node is searched only if a leaf below it could beat the incumbent,
    # or tie it when every optimum is wanted
    tie = 1 if enumerate_all else 0

    best_cost = None
    best_assignments: list[tuple[int, ...]] = []

    loads = [0] * m
    assign = [0] * n
    # least cost seen per multiset of open-machine loads; loads sum to the
    # placed processing time, so a key also fixes idx
    least: dict[tuple[int, ...], int] = {}

    def dfs(idx: int, used: int, cost: int) -> None:
        nonlocal best_cost
        if idx == n:
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_assignments.clear()
            best_assignments.append(tuple(assign))  # it beats or, under enumerate_all, ties
            return
        key = tuple(sorted(loads[:used]))
        seen = least.get(key)
        if seen is None:
            if len(least) < DOMINANCE_KEYS:
                least[key] = cost
        elif cost >= seen + tie:
            return  # an earlier node reached the same loads no dearer
        else:
            least[key] = cost
        job = jobs[idx]
        p, w = job.p, job.w
        rest_weight, rest_bound = weight[idx + 1], bound[idx + 1]
        # first-use canonical form: may reuse any open machine or open the next
        for k in range(min(used + 1, m)):
            loads[k] += p
            child = cost + w * loads[k]
            opened = max(used, k + 1)
            floor = child + rest_bound
            if opened == m:  # otherwise an unopened machine is free at time 0
                floor += min(loads) * rest_weight
            if best_cost is None or floor < best_cost + tie:
                assign[idx] = k
                dfs(idx + 1, opened, child)
            loads[k] -= p
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
