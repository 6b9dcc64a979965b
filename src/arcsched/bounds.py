"""Horizon bounds and start-time windows.

The planning horizon T is an upper bound on the last completion time in at
least one optimal schedule; T_prime is a lower bound on the completion
time of the last job of every machine in at least one optimal schedule.
Both shrink the flow networks. Per-job start windows [a_j, b_j] come from
a dominance argument: when w_k >= w_j and p_k <= p_j, some optimal
schedule starts k no later than j.

All arithmetic is exact (integers and fractions); floor/ceil never go
through floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .instance import Instance, JobType


class InfeasibleWindowError(ValueError):
    """A job's start window came out empty (a_j > b_j)."""


class Horizon(NamedTuple):
    T: int
    T_prime: int
    H_min: Fraction
    H_max: Fraction


class TimeWindows(NamedTuple):
    """Earliest/latest start per job id (1-based lookup via dicts)."""

    a: dict[int, int]
    b: dict[int, int]


def _ceil_div(num: int, den: int) -> int:
    return -((-num) // den)


def h_bounds(inst: Instance) -> tuple[Fraction, Fraction]:
    """Completion interval of the last job on any machine, exact rationals."""
    total = Fraction(inst.total_p)
    spread = Fraction(inst.m - 1, inst.m) * inst.p_max
    return total / inst.m - spread, total / inst.m + spread


def horizon_T(inst: Instance) -> int:
    """T = floor(sum(p)/m + (m-1)/m * p_max), at least p_max as sum(p) >= p_max.
    The ti, pti and flow builders take a T so and do not check it."""
    return (inst.total_p + (inst.m - 1) * inst.p_max) // inst.m


def horizon_Tprime(inst: Instance) -> int:
    """T' = ceil((sum(p) - sum of the m-1 largest p) / m).

    With more machines than jobs the subtracted sum truncates at the n
    available terms; the result is then clamped to 1, which stays valid
    because a machine that runs at all completes at >= 1 and an idle
    machine is carried by the (0, T) loss arc.
    """
    ps = sorted((j.p for j in inst.jobs), reverse=True)
    k = min(inst.m - 1, inst.n)
    remaining = inst.total_p - sum(ps[:k])
    return max(1, _ceil_div(remaining, inst.m))


def horizon(inst: Instance) -> Horizon:
    h_min, h_max = h_bounds(inst)
    return Horizon(T=horizon_T(inst), T_prime=horizon_Tprime(inst), H_min=h_min, H_max=h_max)


def time_windows(inst: Instance, T: int) -> TimeWindows:
    """Start window [a_j, b_j] for every job, for horizon T.

    For job j, consider P_j = {k < j : w_k >= w_j, p_k <= p_j} (jobs that
    start no later than j in some optimal schedule) and
    L_j = {k > j : w_k <= w_j, p_k >= p_j} (jobs j starts no later than).

    a_j = 0 when |P_j| < m, else ceil(rho_j / m) with rho_j the sum of the
    |P_j| - m + 1 smallest processing times in P_j.
    b_j = T - ceil((sum_{k in L_j} p_k + p_j) / m) when L_j is nonempty,
    else ceil((sum(p) - p_j) / m); in both cases b_j is clamped to T - p_j
    so the job always fits the horizon.

    Raises:
        InfeasibleWindowError: if some window ends up with a_j > b_j.
    """
    a: dict[int, int] = {}
    b: dict[int, int] = {}
    total = inst.total_p
    for job in inst.jobs:
        preds = [k for k in inst.jobs if k.id < job.id and k.w >= job.w and k.p <= job.p]
        succs = [k for k in inst.jobs if k.id > job.id and k.w <= job.w and k.p >= job.p]

        if len(preds) < inst.m:
            aj = 0
        else:
            smallest = sorted(k.p for k in preds)[: len(preds) - inst.m + 1]
            aj = _ceil_div(sum(smallest), inst.m)

        if succs:
            bj = T - _ceil_div(sum(k.p for k in succs) + job.p, inst.m)
        else:
            bj = _ceil_div(total - job.p, inst.m)
        bj = min(bj, T - job.p)

        if aj > bj:
            raise InfeasibleWindowError(f"job {job.id}: empty start window [{aj}, {bj}]")
        a[job.id] = aj
        b[job.id] = bj
    return TimeWindows(a=a, b=b)


def type_time_windows(types: list[JobType], tw: TimeWindows) -> list[tuple[int, int]]:
    """Per-type window: min of member a, max of member b, in type order."""
    return [(min(tw.a[j] for j in t.members), max(tw.b[j] for j in t.members)) for t in types]
