"""Iterated local search with GRASP construction and randomized VND.

Every machine is kept in WSPT order at all times: intra-machine search is
unnecessary (resorting is optimal for a fixed assignment), so the
neighborhoods only move jobs between machines and each move is followed
by a per-machine WSPT resort. A run keeps one state of rank lists; moves
replace lists and never edit one, so a shallow copy of the machine list
is a snapshot to roll a rejected candidate back to.

Neighborhoods: shift (move one job), swap(1,1) (exchange one job each
way), swap(2,1) (two jobs against one). The descent draws a random
neighborhood, takes its best neighbor, and restarts the neighborhood list
on strict improvement.

Moves are priced without building neighbors. Each scan first takes, per
machine with ranks b, prefix sums P[i] of p over b[:i] and suffix sums
S[i] of w over b[i:]. Removing the job r at position i then changes the
machine's cost by -(w_r (P[i] + p_r) + p_r S[i+1]), and inserting r at
q = bisect_right(b, r) by w_r (P[q] + p_r) + p_r S[q]. When one job x
leaves a machine that another job z enters, z's insertion is corrected
by -p_x w_z if x precedes z in WSPT order and by -p_z w_x otherwise; a
swap pays that correction once on each machine, -2 p_lo w_hi in total.
In swap(2,1) the two jobs x < y that leave machine a meet again on
machine b, so the cross term p_x w_y enters twice: once for the
removal from a and once for the insertion into b. All deltas are exact
integers, equal to recomputing both machines. Empty machines price every
move alike, so a scan covers only the m' <= min(m, n + 1) machines that
hold a job or are the first empty one: O(n) for the sums, O(n m' log n)
for shift, O(n^2) for swap(1,1), and O(n^2) Python steps for swap(2,1),
each a vector add and min over the n/m' jobs of the receiving machine.
Only the winning move's rank lists are built.

The scan order and the first-strictly-best tie-break are fixed, so a
seed and an iteration budget determine the whole search: the chosen
moves, the generator draws and the resulting schedule.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import add

from .instance import Instance, Schedule
from .rng import SplitMix64

SHIFT, SWAP11, SWAP21 = 0, 1, 2
_ALL_NEIGHBORHOODS = (SHIFT, SWAP11, SWAP21)
RESTART_AFTER = 50  # non-improving perturbations before a fresh construction


@dataclass(frozen=True)
class IlsConfig:
    seed: int
    iterations: int = 1000
    time_limit: float | None = None
    alpha: float = 0.3
    strength: int = 2

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iteration budget must be >= 1")
        if not (0 <= self.alpha <= 1):
            raise ValueError("alpha must be within [0, 1]")
        if self.strength < 1:
            raise ValueError("perturbation strength must be >= 1")
        if self.time_limit is not None and not (math.isfinite(self.time_limit) and self.time_limit > 0):
            raise ValueError("time budget must be positive and finite")


@dataclass(frozen=True)
class IlsResult:
    schedule: Schedule
    value: int
    iterations: int


class _Work:
    """Search state: machines as ascending lists of WSPT ranks."""

    __slots__ = ("p", "w", "ids", "machines")

    def __init__(self, inst: Instance):
        self.ids = inst.wspt_ids
        self.p = [inst.job(j).p for j in self.ids]
        self.w = [inst.job(j).w for j in self.ids]
        self.machines: list[list[int]] = [[] for _ in range(inst.m)]

    def to_schedule(self) -> Schedule:
        return Schedule(machines=tuple(tuple(self.ids[r] for r in ranks) for ranks in self.machines))

    def value(self) -> int:
        """Total weighted completion time of the state."""
        total = 0
        for ranks in self.machines:
            t = 0
            for r in ranks:
                t += self.p[r]
                total += self.w[r] * t
        return total


def _grasp_construct(work: _Work, rng: SplitMix64, alpha: float) -> None:
    """Greedy randomized construction over the WSPT-ordered jobs.

    Each job goes to a machine drawn uniformly from those whose load is
    within alpha * (max load - min load) of the minimum. With alpha = 0
    the pick is the least-loaded machine, ties to the lowest index, and
    the generator is not consulted. Machines end WSPT-sorted.
    """
    work.machines = [[] for _ in work.machines]
    loads = [0] * len(work.machines)
    for r in range(len(work.ids)):
        lo, hi = min(loads), max(loads)
        if alpha == 0:
            k = loads.index(lo)
        else:
            threshold = lo + alpha * (hi - lo)
            candidates = [i for i, load in enumerate(loads) if load <= threshold]
            k = candidates[rng.below(len(candidates))]
        work.machines[k].append(r)  # ranks arrive in order, so each list stays ascending
        loads[k] += work.p[r]


def _best_move(work: _Work, neighborhood: int) -> tuple[int, int, int, list[int], list[int]] | None:
    """Best (most negative delta) move in a neighborhood, or None if empty.

    Returns (delta, ka, kb, new_ranks_a, new_ranks_b). Candidates are
    scanned in a fixed order and the first strictly best one wins.
    """
    p, w, machines = work.p, work.w, work.machines
    empty = next((k for k, ranks in enumerate(machines) if not ranks), None)
    scan = [(k, ranks) for k, ranks in enumerate(machines) if ranks or k == empty]
    prefix, suffix, removal = {}, {}, {}
    for k, ranks in scan:
        P = list(accumulate((p[r] for r in ranks), initial=0))
        S = list(accumulate((w[r] for r in reversed(ranks)), initial=0))[::-1]
        prefix[k] = P
        suffix[k] = S
        removal[k] = [-(w[r] * (P[i] + p[r]) + p[r] * S[i + 1]) for i, r in enumerate(ranks)]

    def insertion(k: int, r: int) -> int:
        q = bisect_right(machines[k], r)
        return w[r] * (prefix[k][q] + p[r]) + p[r] * suffix[k][q]

    def pair_tables(ka: int, kb: int) -> tuple[list[int], list[list[int]], list[list[int]]]:
        """Parts of the swap deltas between machines ka (ranks a) and kb (ranks b).

        C[i] prices a[i] leaving ka for kb, F[u] prices b[u] leaving kb
        for ka, and G[i][u] = -2 p_lo w_hi corrects the pair a[i], b[u].
        Returns C, H with H[i][u] = F[u] + G[i][u], and G: a swap(1,1)
        costs C[i] + H[i][u], a swap(2,1) of a[i], a[j] against b[u]
        costs C[i] + C[j] + 2 p_a[i] w_a[j] + H[i][u] + G[j][u].
        """
        a, b = machines[ka], machines[kb]
        C = [removal[ka][i] + insertion(kb, x) for i, x in enumerate(a)]
        F = [removal[kb][u] + insertion(ka, y) for u, y in enumerate(b)]
        G = [[-2 * p[x] * w[y] if x < y else -2 * p[y] * w[x] for y in b] for x in a]
        return C, [list(map(add, F, row)) for row in G], G

    best: tuple[int, int, int, tuple[int, ...], tuple[int, ...]] | None = None
    if neighborhood == SHIFT:
        for ka, a in scan:
            for i, r in enumerate(a):
                for kb, _ in scan:
                    if kb == ka:
                        continue
                    delta = removal[ka][i] + insertion(kb, r)
                    if best is None or delta < best[0]:
                        best = (delta, ka, kb, (i,), ())
    elif neighborhood == SWAP11:
        for x, (ka, a) in enumerate(scan):
            for kb, b in scan[x + 1 :]:
                if not a or not b:
                    continue
                C, H, _ = pair_tables(ka, kb)
                for i, row in enumerate(H):
                    low = min(row)
                    if best is None or C[i] + low < best[0]:
                        best = (C[i] + low, ka, kb, (i,), (row.index(low),))
    elif neighborhood == SWAP21:
        for ka, a in scan:
            if len(a) < 2:
                continue
            for kb, b in scan:
                if kb == ka or not b:
                    continue
                C, H, G = pair_tables(ka, kb)
                for i in range(len(a)):
                    for j in range(i + 1, len(a)):
                        low = min(map(add, H[i], G[j]))
                        delta = C[i] + C[j] + 2 * p[a[i]] * w[a[j]] + low
                        if best is None or delta < best[0]:
                            u = list(map(add, H[i], G[j])).index(low)
                            best = (delta, ka, kb, (i, j), (u,))
    else:
        raise ValueError(f"unknown neighborhood {neighborhood}")
    if best is None:
        return None
    delta, ka, kb, out_a, out_b = best
    a, b = machines[ka], machines[kb]
    new_a = sorted([r for i, r in enumerate(a) if i not in out_a] + [b[u] for u in out_b])
    new_b = sorted([r for u, r in enumerate(b) if u not in out_b] + [a[i] for i in out_a])
    return delta, ka, kb, new_a, new_b


def _rvnd(work: _Work, rng: SplitMix64) -> None:
    """Randomized variable neighborhood descent; never worsens the state."""
    pending = list(_ALL_NEIGHBORHOODS)
    while pending:
        idx = rng.below(len(pending))
        best = _best_move(work, pending[idx])
        if best is not None and best[0] < 0:
            _, ka, kb, new_a, new_b = best
            work.machines[ka] = new_a
            work.machines[kb] = new_b
            pending = list(_ALL_NEIGHBORHOODS)
        else:
            pending.pop(idx)


def _perturb(work: _Work, rng: SplitMix64, strength: int) -> None:
    """Apply ``strength`` random job moves, each machine kept WSPT-sorted.

    With a single machine there is nowhere to move, so the state is left
    as it is and the generator is not consulted.
    """
    n, m = len(work.ids), len(work.machines)
    if m == 1:
        return
    for _ in range(strength):
        r = rng.below(n)
        ka = next(k for k, ranks in enumerate(work.machines) if r in ranks)
        kb = rng.below(m - 1)
        if kb >= ka:
            kb += 1
        work.machines[ka] = [x for x in work.machines[ka] if x != r]
        work.machines[kb] = sorted([*work.machines[kb], r])


def ils(inst: Instance, cfg: IlsConfig, monitor=None) -> IlsResult:
    """Multi-start search: construct, descend, then perturb and descend.

    The incumbent accepts strict improvements only; after
    ``RESTART_AFTER`` non-improving perturbations the incumbent is
    replaced by a fresh construction. Deterministic for a fixed seed and
    iteration budget; a wall-clock budget cuts the loop early and breaks
    that guarantee. ``monitor(iteration, best_value)`` is invoked once per
    iteration when given.
    """
    rng = SplitMix64(cfg.seed)
    t0 = time.monotonic()

    def out_of_time() -> bool:
        return cfg.time_limit is not None and time.monotonic() - t0 >= cfg.time_limit

    work = _Work(inst)
    best, best_value = None, math.inf
    stale = RESTART_AFTER  # the first iteration constructs
    for iterations in range(1, cfg.iterations + 1):
        if stale >= RESTART_AFTER:
            _grasp_construct(work, rng, cfg.alpha)
            _rvnd(work, rng)
            current_value = work.value()
            stale = 0
        else:
            current = work.machines[:]
            _perturb(work, rng, cfg.strength)
            _rvnd(work, rng)
            value = work.value()
            if value < current_value:
                current_value = value
                stale = 0
            else:
                work.machines = current
                stale += 1
        if current_value < best_value:
            best, best_value = work.to_schedule(), current_value
        if monitor is not None:
            monitor(iterations, best_value)
        if out_of_time():
            break
    return IlsResult(schedule=best, value=best_value, iterations=iterations)
