"""Iterated local search with GRASP construction and randomized VND.

Every machine is kept in WSPT order at all times: intra-machine search is
unnecessary (resorting is optimal for a fixed assignment), so the
neighborhoods only move jobs between machines and each move is followed
by a per-machine WSPT resort. A run keeps one state of rank lists; moves
replace lists and never edit one.

Neighborhoods: shift (move one job), swap(1,1) (exchange one job each
way), swap(2,1) (two jobs against one). The descent draws a random
neighborhood, takes its best neighbor, and restarts the neighborhood list
on strict improvement.

Moves are priced without building neighbors. Per machine with ranks b the
state keeps prefix sums P[i] of p over b[:i] and suffix sums S[i] of w
over b[i:]. Removing the job r at position i then changes the machine's
cost by -(w_r (P[i] + p_r) + p_r S[i+1]), and inserting r at
q = bisect_right(b, r) by w_r (P[q] + p_r) + p_r S[q]. When one job x
leaves a machine that another job z enters, z's insertion is corrected
by -p_x w_z if x precedes z in WSPT order and by -p_z w_x otherwise; a
swap pays that correction once on each machine, -2 p_lo w_hi in total.
In swap(2,1) the two jobs x < y that leave machine a meet again on
machine b, so the cross term p_x w_y enters twice: once for the
removal from a and once for the insertion into b. All deltas are exact
integers, equal to recomputing both machines.

Per machine pair lo < hi holding a and b the state keeps C[i], the price
of a[i] leaving lo for hi, and F[u], the price of b[u] leaving hi for lo:
C and F are the shift prices both ways. With G[i][u] = -2 p_lo w_hi and
H[i][u] = F[u] + G[i][u], a swap(1,1) costs C[i] + H[i][u], a swap(2,1)
of a[i], a[j] against b[u] costs C[i] + C[j] + 2 p_a[i] w_a[j] + H[i][u]
+ G[j][u], and the other direction reads the transposes of G and of
C + G. So one set of tables serves all four move kinds of a pair, and the
pair keeps its first strictly best move per neighborhood. A pair's
tables hold for any lists equal to those they were built from: a scan
takes a pair from the last scan, or from the ILS snapshot, whose two
lists equal the machines' current ones, and builds rows and tables for
the other pairs only. A move replaces two lists, so a scan after it
reprices only the pairs that touch those two machines. A rejected
candidate rolls back to the snapshot's lists and pairs, and a descent
that returns to the snapshot's lists, as most ILS iterations do, finds
the snapshot's pairs as it goes. Moves never edit a list, as the kept
rows hold the list objects. The global best is taken over the pairs'
bests by the key of a full scan's order, (delta, ka, i, kb) for shift
and (delta, ka, kb, positions) for the swaps, so the first strictly best
move still wins.

A scanned pair is kept until a move changes one of its lists, and its
tables G and H until it has priced all three neighborhoods; check_size
prices both before a search. A pair's tables take O(|a| |b|) memory and
no table spans all n jobs.

Empty machines price every move alike, so a scan covers only the m' <=
min(m, n + 1) machines that hold a job or are the first empty one. The
state keeps the set of occupied machines, so no step of an iteration
walks all m lists. Per repriced pair a scan costs O(|a| log |b|) for the
shift prices, O(|a| |b|) for swap(1,1) and O(|a|^2 |b|) vector steps for
swap(2,1). Only the winning move's rank lists are built.

The scan order and the first-strictly-best tie-break are fixed, so a
seed and an iteration budget determine the whole search: the chosen
moves, the generator draws and the resulting schedule.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right, insort
from itertools import accumulate, count, repeat
from operator import add, mul
from typing import NamedTuple

from .instance import BYTES_PER, Instance, Schedule, approx, check_bytes
from .rng import SplitMix64

SHIFT, SWAP11, SWAP21 = 0, 1, 2
_ALL_NEIGHBORHOODS = (SHIFT, SWAP11, SWAP21)
RESTART_AFTER = 50  # non-improving perturbations before a fresh construction
_UNPRICED = object()  # a neighborhood a pair has not priced yet


def check_size(inst: Instance) -> None:
    """Refuse (ModelSizeError) an instance whose kept pricing state would pass
    the model guard: its swap tables or its min(m, n + 1)^2 machine pairs."""
    if inst.m > 1:
        entries = (inst.n // 2) * ((inst.n + 1) // 2)
        check_bytes(entries * BYTES_PER["swap-table entry"],
                    f"n = {inst.n} jobs: the swap tables, {approx(entries)} job pairs per machine pair, need")
        scanned = min(inst.m, inst.n + 1)
        check_bytes(scanned**2 * BYTES_PER["machine pair"], f"{scanned} scanned machines: their machine pairs need")


class IlsConfig:
    def __init__(self, seed: int, iterations: int = 1000, time_limit: float | None = None,
                 alpha: float = 0.3, strength: int = 2):
        if iterations < 1:
            raise ValueError("iteration budget must be >= 1")
        if not (0 <= alpha <= 1):
            raise ValueError("alpha must be within [0, 1]")
        if strength < 1:
            raise ValueError("perturbation strength must be >= 1")
        if time_limit is not None and not (math.isfinite(time_limit) and time_limit > 0):
            raise ValueError("time budget must be positive and finite")
        self.seed = seed
        self.iterations = iterations
        self.time_limit = time_limit
        self.alpha = alpha
        self.strength = strength


class IlsResult(NamedTuple):
    schedule: Schedule
    value: int
    iterations: int


class _Row:
    """One machine's ranks, the p and w of its jobs, their prefix sums P of
    p, suffix sums S of w, and removal prices R."""

    __slots__ = ("ranks", "p", "w", "P", "S", "R")

    def __init__(self, ranks: list[int], p: list[int], w: list[int]):
        self.ranks = ranks
        self.p = ps = [p[r] for r in ranks]
        self.w = ws = [w[r] for r in ranks]
        self.P = P = list(accumulate(ps, initial=0))
        self.S = S = list(accumulate(reversed(ws), initial=0))[::-1]
        self.R = [-(wr * (P[i] + pr) + pr * S[i + 1]) for i, (pr, wr) in enumerate(zip(ps, ws))]

    def receive(self, src: _Row) -> list[int]:
        """Price of each job of ``src`` leaving it alone for this machine."""
        P, S = self.P, self.S
        places = map(bisect_right, repeat(self.ranks), src.ranks)
        return [R + wr * (P[q] + pr) + pr * S[q] for R, pr, wr, q in zip(src.R, src.p, src.w, places)]


def _swap21(C: list[int], H: list[list[int]], G: list, p_out: list[int], w_out: list[int]) -> tuple[int, ...]:
    """First strictly best (delta, i, j, u) of a swap(2,1) that sends jobs i < j
    of one machine (at least two) against job u of the other, from that
    direction's C, H and G."""
    best = None
    for i in range(len(C) - 1):
        # low[j - i - 1] = min over u of H[i][u] + G[j][u], for each j > i
        low = map(min, map(map, repeat(add), repeat(H[i]), G[i + 1 :]))
        cost = list(map(add, map(add, C[i + 1 :], map(mul, w_out[i + 1 :], repeat(2 * p_out[i]))), low))
        delta = C[i] + min(cost)
        if best is None or delta < best[0]:
            best = (delta, i, i + 1 + cost.index(delta - C[i]))
    delta, i, j = best
    row = list(map(add, H[i], G[j]))
    return delta, i, j, row.index(min(row))


class _Pair:
    """Move prices between machines lo < hi while they hold lists equal to
    the ranks of rows ``ra`` and ``rb``: the shift prices C and F, the swap
    tables G and H, and per neighborhood the first strictly best move as its
    scan key (None when there is none). The prices are dropped once every
    neighborhood is priced."""

    __slots__ = ("lo", "hi", "ra", "rb", "C", "F", "G", "H", "moves")

    def __init__(self, lo: int, hi: int, ra: _Row, rb: _Row):
        self.lo, self.hi, self.ra, self.rb = lo, hi, ra, rb
        self.C = C = rb.receive(ra)
        self.F = F = ra.receive(rb)
        self.G = self.H = None
        shift = [(min(out), k, out.index(min(out)), to) for out, k, to in ((C, lo, hi), (F, hi, lo)) if out]
        self.moves = [min(shift, default=None), _UNPRICED, _UNPRICED]

    def best(self, neighborhood: int) -> tuple | None:
        """Scan key of this pair's first strictly best move of ``neighborhood``."""
        move = self.moves[neighborhood]
        if move is _UNPRICED:
            move = self.moves[neighborhood] = self._swap(neighborhood) if self.C and self.F else None
            if _UNPRICED not in self.moves:
                self.C = self.F = self.G = self.H = None
        return move

    def _swap(self, neighborhood: int) -> tuple:
        ra, rb, lo, hi, C, F = self.ra, self.rb, self.lo, self.hi, self.C, self.F
        if self.G is None:
            b, pb, wb = rb.ranks, rb.p, rb.w
            self.G = G = []
            for x, px, wx in zip(ra.ranks, ra.p, ra.w):  # b's jobs before x in WSPT order, then those after it
                q = bisect_right(b, x)
                row = list(map(mul, pb[:q], repeat(-2 * wx)))
                row += map(mul, wb[q:], repeat(-2 * px))
                G.append(row)
            self.H = [list(map(add, F, row)) for row in G]
        G, H = self.G, self.H
        if neighborhood == SWAP11:
            low = list(map(min, H))
            cost = list(map(add, C, low))
            i = cost.index(min(cost))
            return cost[i], lo, hi, i, H[i].index(low[i])
        moves = []
        if len(C) > 1:
            delta, *at = _swap21(C, H, G, ra.p, ra.w)
            moves.append((delta, lo, hi, *at))
        if len(F) > 1:
            Gt = list(zip(*G))
            Ht = [list(map(add, C, col)) for col in Gt]
            delta, *at = _swap21(F, Ht, Gt, rb.p, rb.w)
            moves.append((delta, hi, lo, *at))
        return min(moves, default=None)


class _Work:
    """Search state: machines as ascending lists of WSPT ranks, the set of
    occupied machines, and the pricing tables of the scanned machine pairs."""

    __slots__ = ("p", "w", "ids", "machines", "occupied", "_pairs", "_saved")

    def __init__(self, inst: Instance):
        self.ids = inst.wspt_ids
        self.p = [inst.job(j).p for j in self.ids]
        self.w = [inst.job(j).w for j in self.ids]
        self.machines = [[] for _ in range(inst.m)]
        self.occupied = set()
        self._pairs = {}  # the last scan's, by (lo, hi)
        self._saved = ({}, {})  # the snapshot's lists and pairs

    def put(self, k: int, ranks: list[int]) -> None:
        """Replace machine k's list; the old list is never edited."""
        self.machines[k] = ranks
        if ranks:
            self.occupied.add(k)
        else:
            self.occupied.discard(k)

    def scan(self) -> list[int]:
        """The occupied machines and the first empty one, in index order."""
        scan = sorted(self.occupied)
        empty = next(k for k in count() if k not in self.occupied)  # at most n
        if empty < len(self.machines):
            insort(scan, empty)
        return scan

    def assign(self, lists: dict[int, list[int]]) -> None:
        """Machine k gets lists[k], every other machine none."""
        for k in self.occupied.difference(lists):
            self.machines[k] = []
        for k, ranks in lists.items():
            self.machines[k] = ranks
        self.occupied = {k for k, ranks in lists.items() if ranks}

    def save(self) -> None:
        """Snapshot the scanned machines' lists and the last scan's pairs."""
        self._saved = ({k: self.machines[k] for k in self.scan()}, self._pairs)

    def restore(self) -> None:
        """Roll back to the last snapshot, its pairs as the last scan's."""
        lists, self._pairs = self._saved
        self.assign(lists)

    def best(self, neighborhood: int) -> tuple | None:
        """Key of the first strictly best move of ``neighborhood``; reprices
        the pairs whose lists differ from those of every cached pair."""
        p, w, machines, saved_pairs = self.p, self.w, self.machines, self._saved[1]
        scan = self.scan()
        best, rows, pairs = None, {}, {}
        for x, lo in enumerate(scan):
            a = machines[lo]
            for hi in scan[x + 1 :]:
                b = machines[hi]
                for known in (self._pairs, saved_pairs):
                    pair = known.get((lo, hi))
                    if pair is not None and pair.ra.ranks == a and pair.rb.ranks == b:
                        break
                else:
                    for k in (lo, hi):
                        if k not in rows:
                            rows[k] = _Row(machines[k], p, w)
                    pair = _Pair(lo, hi, rows[lo], rows[hi])
                pairs[lo, hi] = pair
                move = pair.best(neighborhood)
                if move is not None and (best is None or move < best):
                    best = move
        self._pairs = pairs
        return best

    def to_schedule(self) -> Schedule:
        return Schedule(machines=tuple(tuple(self.ids[r] for r in ranks) for ranks in self.machines))

    def value(self) -> int:
        """Total weighted completion time of the state."""
        total = 0
        for k in self.occupied:
            t = 0
            for r in self.machines[k]:
                t += self.p[r]
                total += self.w[r] * t
        return total


def _grasp_construct(work: _Work, rng: SplitMix64, alpha: float) -> None:
    """Greedy randomized construction over the WSPT-ordered jobs.

    Each job goes to a machine drawn uniformly from those whose load is
    within alpha * (max load - min load) of the minimum, counted in index
    order. With alpha = 0 the pick is the least-loaded machine, ties to the
    lowest index, and the generator is not consulted. Machines end
    WSPT-sorted. Only the machines given a job are visited: every other
    one has load 0, so they are counted, not walked.
    """
    m = len(work.machines)
    loads: dict[int, int] = {}  # machine -> load, for the machines given a job
    lists: dict[int, list[int]] = {}
    busy: list[int] = []  # their indices, ascending
    for r in range(len(work.ids)):
        idle = m - len(busy)
        lo = 0 if idle else min(loads.values())
        if alpha == 0:
            k = next(k for k in count() if k not in loads) if idle else min(busy, key=loads.__getitem__)
        else:
            threshold = lo + alpha * (max(loads.values(), default=0) - lo)
            t = rng.below(idle + sum(loads[k] <= threshold for k in busy))
            k = _nth_below(busy, loads, threshold, t)
        if k not in loads:
            insort(busy, k)
            loads[k], lists[k] = 0, []
        lists[k].append(r)  # ranks arrive in order, so each list stays ascending
        loads[k] += work.p[r]
    work.assign(lists)


def _nth_below(busy: list[int], loads: dict[int, int], threshold: float, t: int) -> int:
    """Index of the t-th machine (from 0, in index order) with load <= threshold;
    the machines not in ``busy`` have load 0."""
    after = -1
    for k in busy:
        gap = k - after - 1  # idle machines between two busy ones
        if t < gap:
            return after + 1 + t
        t -= gap
        if loads[k] <= threshold:
            if t == 0:
                return k
            t -= 1
        after = k
    return after + 1 + t


def _best_move(work: _Work, neighborhood: int) -> tuple[int, int, int, list[int], list[int]] | None:
    """Best (most negative delta) move in a neighborhood, or None if empty.

    Returns (delta, ka, kb, new_ranks_a, new_ranks_b). Candidates are
    scanned in a fixed order and the first strictly best one wins.
    """
    if neighborhood not in _ALL_NEIGHBORHOODS:
        raise ValueError(f"unknown neighborhood {neighborhood}")
    best = work.best(neighborhood)
    if best is None:
        return None
    if neighborhood == SHIFT:
        delta, ka, i, kb = best
        out_a, out_b = (i,), ()
    elif neighborhood == SWAP11:
        delta, ka, kb, i, u = best
        out_a, out_b = (i,), (u,)
    else:
        delta, ka, kb, i, j, u = best
        out_a, out_b = (i, j), (u,)
    a, b = work.machines[ka], work.machines[kb]
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
            work.put(ka, new_a)
            work.put(kb, new_b)
            pending = list(_ALL_NEIGHBORHOODS)
        else:
            pending.pop(idx)


def _perturb(work: _Work, rng: SplitMix64, strength: int) -> None:
    """Apply ``strength`` random job moves, each machine kept WSPT-sorted.

    With a single machine there is nowhere to move, so the state is left
    as it is and the generator is not consulted.
    """
    machines = work.machines
    n, m = len(work.ids), len(machines)
    if m == 1:
        return
    for _ in range(strength):
        r = rng.below(n)
        ka = next(k for k in work.occupied if r in machines[k])
        kb = rng.below(m - 1)
        if kb >= ka:
            kb += 1
        work.put(ka, [x for x in machines[ka] if x != r])
        work.put(kb, sorted([*machines[kb], r]))


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
            work.save()
            _perturb(work, rng, cfg.strength)
            _rvnd(work, rng)
            value = work.value()
            if value < current_value:
                current_value = value
                stale = 0
            else:
                work.restore()
                stale += 1
        if current_value < best_value:
            best, best_value = work.to_schedule(), current_value
        if monitor is not None:
            monitor(iterations, best_value)
        if out_of_time():
            break
    return IlsResult(schedule=best, value=best_value, iterations=iterations)
