import copy
import functools
import math
from bisect import insort

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcsched import heuristic
from arcsched.heuristic import (
    SHIFT,
    SWAP11,
    SWAP21,
    IlsConfig,
    _best_move,
    _grasp_construct,
    _perturb,
    _rvnd,
    _Work,
    ils,
)
from arcsched.instance import (
    Schedule,
    evaluate_schedule,
    generate_instance,
    make_instance,
)
from arcsched.oracle import brute_force_optimal
from arcsched.rng import SplitMix64


def state(inst, machines) -> _Work:
    """A search state that holds ``machines``, job ids per machine."""
    work = _Work(inst)
    work.assign({k: sorted(inst.wspt_ranks[j] for j in machine) for k, machine in enumerate(machines)})
    return work


def construct(inst, rng, alpha) -> _Work:
    work = _Work(inst)
    _grasp_construct(work, rng, alpha)
    return work


def machines_wspt_sorted(inst, sched) -> bool:
    rank = inst.wspt_ranks
    return all(
        all(rank[a] < rank[b] for a, b in zip(machine, machine[1:]))
        for machine in sched.machines
    )


class TestGraspConstruct:
    def test_alpha_zero_is_greedy_on_fig(self, demo):
        sched = construct(demo, SplitMix64(1), alpha=0).to_schedule()
        assert sched == Schedule(machines=((1, 3, 4), (2,)))
        assert evaluate_schedule(demo, sched) == 67

    def test_alpha_zero_ignores_rng_state(self, demo):
        a = construct(demo, SplitMix64(1), alpha=0).to_schedule()
        b = construct(demo, SplitMix64(999), alpha=0).to_schedule()
        assert a == b

    def test_machines_always_wspt_sorted(self):
        for seed in range(20):
            inst = generate_instance(n=12, m=3, p_max=10, w_max=10, seed=seed)
            sched = construct(inst, SplitMix64(seed), alpha=0.5).to_schedule()
            assert machines_wspt_sorted(inst, sched)

    def test_partition_complete(self):
        inst = generate_instance(n=15, m=4, p_max=10, w_max=10, seed=8)
        sched = construct(inst, SplitMix64(3), alpha=1.0).to_schedule()
        assert sorted(j for mach in sched.machines for j in mach) == list(range(1, 16))


def reference_construct(p, m, rng, alpha):
    """The construction as a walk over all m loads per job."""
    machines, loads = [[] for _ in range(m)], [0] * m
    for r in range(len(p)):
        lo, hi = min(loads), max(loads)
        if alpha == 0:
            k = loads.index(lo)
        else:
            threshold = lo + alpha * (hi - lo)
            candidates = [i for i, load in enumerate(loads) if load <= threshold]
            k = candidates[rng.below(len(candidates))]
        machines[k].append(r)
        loads[k] += p[r]
    return machines


class TestConstructMatchesFullWalk:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 12),
        st.lists(st.integers(1, 20), min_size=1, max_size=15),
        st.sampled_from([0, 0.3, 0.5, 1.0]),
        st.integers(0, 2**32),
    )
    def test_same_machines_and_draws(self, m, ps, alpha, seed):
        inst = make_instance(m, [(p, 1) for p in ps])
        work, rng, ref_rng = _Work(inst), SplitMix64(seed), SplitMix64(seed)
        _grasp_construct(work, rng, alpha)
        assert work.machines == reference_construct(work.p, m, ref_rng, alpha)
        assert rng.next_u64() == ref_rng.next_u64()


class TestRvnd:
    def test_demo_reaches_optimum_from_weak_start(self, demo):
        work = state(demo, ((1, 2), (3, 4)))  # value 73
        _rvnd(work, SplitMix64(5))
        assert evaluate_schedule(demo, work.to_schedule()) == 67

    def test_never_worsens(self):
        for seed in range(100):
            inst = generate_instance(n=9, m=3, p_max=10, w_max=10, seed=seed)
            rng = SplitMix64(seed)
            work = construct(inst, rng, alpha=1.0)
            start = work.to_schedule()
            _rvnd(work, rng)
            out = work.to_schedule()
            assert evaluate_schedule(inst, out) <= evaluate_schedule(inst, start)
            assert machines_wspt_sorted(inst, out)

    def test_optimal_input_stays_optimal(self):
        for seed in range(15):
            inst = generate_instance(n=7, m=2, p_max=10, w_max=10, seed=seed)
            opt = brute_force_optimal(inst)
            work = state(inst, opt.schedule.machines)
            _rvnd(work, SplitMix64(seed))
            assert evaluate_schedule(inst, work.to_schedule()) == opt.optimum

    def test_idempotent_at_local_optimum(self):
        inst = generate_instance(n=10, m=3, p_max=10, w_max=10, seed=42)
        rng = SplitMix64(7)
        work = construct(inst, rng, alpha=0.3)
        _rvnd(work, rng)
        once = work.to_schedule()
        _rvnd(work, SplitMix64(8))
        assert evaluate_schedule(inst, work.to_schedule()) == evaluate_schedule(inst, once)


class TestPerturb:
    def test_single_machine_identity(self):
        inst = make_instance(1, [(2, 3), (4, 1), (1, 5)])
        sched = Schedule(machines=((3, 1, 2),))
        work, rng = state(inst, sched.machines), SplitMix64(0)
        _perturb(work, rng, strength=3)
        assert work.to_schedule() == sched
        assert rng.next_u64() == SplitMix64(0).next_u64()  # no draw

    def test_valid_schedule_and_lower_bound(self, demo):
        opt = Schedule(machines=((1, 3, 4), (2,)))
        for seed in range(50):
            work = state(demo, opt.machines)
            _perturb(work, SplitMix64(seed), strength=1)
            out = work.to_schedule()
            assert sorted(j for mach in out.machines for j in mach) == [1, 2, 3, 4]
            assert machines_wspt_sorted(demo, out)
            assert evaluate_schedule(demo, out) >= 67

    def test_deterministic(self, demo):
        opt = Schedule(machines=((1, 3, 4), (2,)))
        a, b = state(demo, opt.machines), state(demo, opt.machines)
        _perturb(a, SplitMix64(11), strength=3)
        _perturb(b, SplitMix64(11), strength=3)
        assert a.to_schedule() == b.to_schedule()

    def test_lists_never_edited_in_place(self):
        # ils rolls a rejected candidate back to a shallow copy of the machines
        for seed in range(30):
            inst = generate_instance(n=10, m=3, p_max=10, w_max=10, seed=seed)
            rng = SplitMix64(seed)
            work = construct(inst, rng, alpha=1.0)
            snapshot = work.machines[:]
            contents = [list(ranks) for ranks in snapshot]
            _perturb(work, rng, strength=3)
            _rvnd(work, rng)
            assert [list(ranks) for ranks in snapshot] == contents


class TestIls:
    def test_demo_budget_100(self, demo):
        for seed in (1, 2, 3):
            result = ils(demo, IlsConfig(seed=seed, iterations=100))
            assert result.value == 67
            assert result.iterations == 100

    def test_single_machine_equals_wspt(self):
        inst = generate_instance(n=12, m=1, p_max=10, w_max=10, seed=6)
        result = ils(inst, IlsConfig(seed=1, iterations=5))
        wspt_sched = Schedule(machines=(inst.wspt_ids,))
        assert result.value == evaluate_schedule(inst, wspt_sched)

    def test_deterministic_given_seed_and_budget(self, demo):
        a = ils(demo, IlsConfig(seed=33, iterations=50))
        b = ils(demo, IlsConfig(seed=33, iterations=50))
        assert a == b

    def test_best_value_non_increasing(self):
        inst = generate_instance(n=10, m=3, p_max=12, w_max=12, seed=17)
        trace = []
        ils(inst, IlsConfig(seed=5, iterations=200), monitor=lambda it, v: trace.append(v))
        assert len(trace) == 200
        assert all(a >= b for a, b in zip(trace, trace[1:]))

    def test_value_never_beats_oracle(self):
        for seed in range(10):
            inst = generate_instance(n=8, m=2, p_max=10, w_max=10, seed=seed)
            opt = brute_force_optimal(inst).optimum
            result = ils(inst, IlsConfig(seed=seed, iterations=50))
            assert result.value >= opt

    def test_result_schedule_matches_value(self):
        inst = generate_instance(n=9, m=3, p_max=10, w_max=10, seed=23)
        result = ils(inst, IlsConfig(seed=9, iterations=100))
        assert evaluate_schedule(inst, result.schedule) == result.value
        assert machines_wspt_sorted(inst, result.schedule)

    def test_time_budget_stops_early(self):
        inst = generate_instance(n=30, m=4, p_max=20, w_max=20, seed=3)
        result = ils(inst, IlsConfig(seed=1, iterations=10**9, time_limit=0.2))
        assert result.iterations < 10**9


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            IlsConfig(seed=1, iterations=0)
        with pytest.raises(ValueError):
            IlsConfig(seed=1, alpha=1.5)
        with pytest.raises(ValueError):
            IlsConfig(seed=1, strength=0)
        with pytest.raises(ValueError):
            IlsConfig(seed=1, time_limit=0)

    @pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_time(self, budget):
        with pytest.raises(ValueError):
            IlsConfig(seed=1, time_limit=budget)


# Recorded with the list-copy move evaluation that the prefix-sum deltas
# replaced: the search must take exactly the same moves and draws.
# (n, m, p_max, w_max, instance seed, ILS seed, iterations, alpha),
# the monitor's best value per iteration, the final schedule.
GOLDEN_ILS = [
    (
        (50, 4, 100, 100, 1, 1, 16, 0.3),
        [572615] * 16,
        (
            (50, 45, 42, 14, 1, 17, 49, 20, 4, 33, 12, 13, 31),
            (36, 22, 3, 43, 11, 7, 23, 21, 34, 46, 26, 41, 28, 48),
            (47, 27, 6, 19, 9, 16, 30, 32, 24, 8, 29, 44),
            (15, 5, 18, 39, 10, 25, 38, 37, 2, 35, 40),
        ),
    ),
    (
        (50, 4, 100, 100, 2, 2, 16, 0.3),
        [523563] * 8 + [523558] * 8,
        (
            (15, 5, 27, 43, 17, 2, 4, 13, 47, 36, 42, 30, 32, 34, 19),
            (33, 50, 37, 35, 1, 3, 24, 7, 23, 18, 8),
            (11, 25, 49, 40, 45, 39, 12, 48, 29, 41, 28, 20),
            (22, 46, 9, 26, 6, 14, 44, 16, 10, 31, 38, 21),
        ),
    ),
    (
        (20, 8, 50, 50, 3, 3, 40, 0.3),
        [18108] * 8 + [18107] * 32,
        (
            (5, 20, 14),
            (10, 8, 2),
            (17, 16, 9),
            (13, 18),
            (3, 6),
            (1, 19, 7),
            (15, 12),
            (4, 11),
        ),
    ),
    (
        (30, 2, 50, 50, 4, 4, 30, 0.3),
        [118998] * 30,
        (
            (22, 5, 1, 19, 3, 21, 30, 18, 6, 26, 17, 27, 24, 9, 20, 16),
            (23, 15, 13, 14, 7, 28, 8, 29, 2, 4, 25, 12, 10, 11),
        ),
    ),
    (
        (15, 1, 50, 50, 5, 5, 5, 0.3),
        [44294] * 5,
        (
            (11, 13, 12, 10, 3, 1, 15, 5, 8, 9, 7, 4, 2, 6, 14),
        ),
    ),
    (
        (25, 3, 50, 50, 6, 6, 30, 0.0),
        [40891] * 22 + [40887] * 8,
        (
            (5, 6, 13, 14, 4, 25, 1, 21, 24),
            (19, 23, 2, 16, 17, 11, 10, 12),
            (7, 3, 22, 9, 20, 18, 8, 15),
        ),
    ),
]

# The same instances under an accept-all walk: descend from a construction,
# then perturb (strength 2) and descend ``steps`` times, recording every
# local optimum's value. Unlike the incumbent, the walk moves on each step,
# so it locks the perturbation draws too.
# (n, m, p_max, w_max, instance seed, rng seed, steps), values, final schedule.
GOLDEN_WALK = [
    (
        (50, 4, 100, 100, 1, 1, 12),
        [
            572615, 572615, 572615, 572615, 572615, 572615, 572615, 572615, 572615, 572615,
            572615, 572615, 572615
        ],
        (
            (50, 45, 42, 14, 1, 17, 49, 20, 4, 33, 12, 13, 31),
            (36, 22, 3, 43, 11, 7, 23, 21, 34, 46, 26, 41, 28, 48),
            (47, 27, 6, 19, 9, 16, 30, 32, 24, 8, 29, 44),
            (15, 5, 18, 39, 10, 25, 38, 37, 2, 35, 40),
        ),
    ),
    (
        (50, 4, 100, 100, 2, 2, 12),
        [
            523563, 523563, 523563, 523563, 523563, 523563, 523563, 523563, 523558, 523558,
            523558, 523558, 523558
        ],
        (
            (15, 5, 27, 43, 17, 2, 4, 13, 47, 36, 42, 30, 32, 34, 19),
            (22, 50, 37, 35, 1, 3, 24, 7, 23, 18, 8),
            (11, 25, 49, 40, 45, 39, 12, 48, 29, 41, 28, 20),
            (33, 46, 9, 26, 6, 14, 44, 16, 10, 31, 38, 21),
        ),
    ),
    (
        (20, 8, 50, 50, 3, 3, 30),
        [
            18108, 18108, 18108, 18108, 18117, 18117, 18116, 18108, 18108, 18107, 18107, 18107,
            18107, 18108, 18108, 18108, 18108, 18107, 18108, 18108, 18108, 18108, 18108, 18108,
            18108, 18108, 18108, 18108, 18108, 18108, 18108
        ],
        (
            (13, 18),
            (17, 16, 2),
            (3, 6),
            (4, 8, 14),
            (15, 12),
            (5, 20, 9),
            (1, 19, 7),
            (10, 11),
        ),
    ),
    (
        (30, 2, 50, 50, 4, 4, 20),
        [
            118998, 118998, 118998, 119018, 119018, 119018, 119018, 119018, 119018, 119018,
            119018, 119018, 119018, 119018, 119018, 119006, 119006, 119006, 119006, 119006,
            119018
        ],
        (
            (5, 1, 19, 3, 21, 30, 18, 6, 26, 17, 4, 25, 9, 12, 16),
            (22, 23, 15, 13, 14, 7, 28, 8, 29, 2, 27, 24, 20, 10, 11),
        ),
    ),
]


class TestGoldenTrajectories:
    @pytest.mark.parametrize("case, trajectory, machines", GOLDEN_ILS)
    def test_ils(self, case, trajectory, machines):
        n, m, p_max, w_max, inst_seed, seed, iterations, alpha = case
        inst = generate_instance(n=n, m=m, p_max=p_max, w_max=w_max, seed=inst_seed)
        trace = []
        result = ils(inst, IlsConfig(seed=seed, iterations=iterations, alpha=alpha),
                     monitor=lambda it, value: trace.append(value))
        assert trace == trajectory
        assert result.schedule == Schedule(machines=machines)
        assert result.value == trajectory[-1]

    @pytest.mark.parametrize("case, values, machines", GOLDEN_WALK)
    def test_walk(self, case, values, machines):
        n, m, p_max, w_max, inst_seed, seed, steps = case
        inst = generate_instance(n=n, m=m, p_max=p_max, w_max=w_max, seed=inst_seed)
        rng = SplitMix64(seed)
        work = construct(inst, rng, 0.3)
        _rvnd(work, rng)
        walk = [evaluate_schedule(inst, work.to_schedule())]
        for _ in range(steps):
            _perturb(work, rng, 2)
            _rvnd(work, rng)
            walk.append(evaluate_schedule(inst, work.to_schedule()))
        assert walk == values
        assert work.to_schedule() == Schedule(machines=machines)


def reference_best_move(p, w, machines, neighborhood):
    """Brute force: build every neighbor and recompute both machines.

    Scans in the search's order and keeps the first strictly best move.
    """

    def cost(ranks):
        t = total = 0
        for r in ranks:
            t += p[r]
            total += w[r] * t
        return total

    best = None

    def consider(ka, kb, new_a, new_b):
        nonlocal best
        delta = cost(new_a) + cost(new_b) - cost(machines[ka]) - cost(machines[kb])
        if best is None or delta < best[0]:
            best = (delta, ka, kb, new_a, new_b)

    m = len(machines)
    if neighborhood == SHIFT:
        for ka, a in enumerate(machines):
            for i, r in enumerate(a):
                for kb in range(m):
                    if kb != ka:
                        new_b = list(machines[kb])
                        insort(new_b, r)
                        consider(ka, kb, a[:i] + a[i + 1 :], new_b)
    elif neighborhood == SWAP11:
        for ka in range(m):
            for kb in range(ka + 1, m):
                a, b = machines[ka], machines[kb]
                for i, ra in enumerate(a):
                    for u, rb in enumerate(b):
                        new_a = a[:i] + a[i + 1 :]
                        insort(new_a, rb)
                        new_b = b[:u] + b[u + 1 :]
                        insort(new_b, ra)
                        consider(ka, kb, new_a, new_b)
    else:
        for ka, a in enumerate(machines):
            for kb, b in enumerate(machines):
                if kb == ka or len(a) < 2 or not b:
                    continue
                for i in range(len(a)):
                    for j in range(i + 1, len(a)):
                        for u, rb in enumerate(b):
                            new_a = a[:i] + a[i + 1 : j] + a[j + 1 :]
                            insort(new_a, rb)
                            new_b = b[:u] + b[u + 1 :]
                            insort(new_b, a[i])
                            insort(new_b, a[j])
                            consider(ka, kb, new_a, new_b)
    return best


@st.composite
def search_states(draw):
    """A random instance and a random assignment, machines WSPT-sorted.

    Small n against up to eight machines leaves several empty machines and
    single-job machines in most draws, so the scan's first-empty shortcut
    meets the brute force; p, w within [1, 2] make tied deltas common,
    which exercises the first-best tie-break.
    """
    m = draw(st.integers(1, 8))
    top = draw(st.sampled_from([2, 30]))
    values = st.integers(1, top)
    jobs = draw(st.lists(st.tuples(values, values), min_size=1, max_size=11))
    owner = draw(st.lists(st.integers(0, m - 1), min_size=len(jobs), max_size=len(jobs)))
    inst = make_instance(m, jobs)
    return state(inst, [[j for j in range(1, inst.n + 1) if owner[j - 1] == k] for k in range(m)])


class TestBestMove:
    @settings(max_examples=300, deadline=None)
    @given(search_states())
    def test_matches_brute_force(self, work):
        before = [list(ranks) for ranks in work.machines]
        for neighborhood in (SHIFT, SWAP11, SWAP21):
            want = reference_best_move(work.p, work.w, before, neighborhood)
            assert _best_move(work, neighborhood) == want
            assert work.machines == before

    @settings(max_examples=100, deadline=None)
    @given(search_states())
    def test_value_matches_schedule(self, work):
        # job r + 1 of this instance is the job of WSPT rank r
        inst = make_instance(len(work.machines), list(zip(work.p, work.w)))
        sched = Schedule(machines=tuple(tuple(r + 1 for r in ranks) for ranks in work.machines))
        assert work.value() == evaluate_schedule(inst, sched)

    def test_unknown_neighborhood(self, demo):
        with pytest.raises(ValueError):
            _best_move(_Work(demo), 3)


def fresh(work: _Work) -> _Work:
    """A new state that holds copies of ``work``'s machines and no table."""
    # job r + 1 of this instance is the job of WSPT rank r
    other = _Work(make_instance(len(work.machines), list(zip(work.p, work.w))))
    other.assign({k: list(ranks) for k, ranks in enumerate(work.machines)})
    return other


class _NoWalk(list):
    """Machine lists that fail the test when something walks all of them."""

    def __iter__(self):
        raise AssertionError("walked all m machine lists")


@functools.cache
def descended(n: int, m: int) -> tuple:
    """A seeded instance, its machine lists after a construction and a first
    descent, and the generator after them (at m = 300 that descent takes
    seconds, so the two rollbacks share it)."""
    inst = generate_instance(n=n, m=m, p_max=50, w_max=50, seed=2)
    rng = SplitMix64(3)
    work = construct(inst, rng, 0.3)
    _rvnd(work, rng)
    return inst, tuple(map(tuple, work.machines)), rng


class TestCachedTables:
    @settings(max_examples=300, deadline=None)
    @given(
        search_states(),
        st.lists(st.sampled_from(["construct", "descent", "perturb", "save", "restore"]), max_size=10),
        st.integers(0, 2**32),
    )
    def test_walk_matches_a_fresh_state(self, work, steps, seed):
        rng = SplitMix64(seed)
        saved = None
        for step in ["descent", *steps]:
            if step == "construct":
                _grasp_construct(work, rng, 0.5)
                saved = None  # a new state has no snapshot
            elif step == "descent":
                _rvnd(work, rng)
            elif step == "perturb":
                _perturb(work, rng, 2)
            elif step == "save":
                work.save()
                saved = [list(ranks) for ranks in work.machines]
            elif saved is not None:
                work.restore()
                assert work.machines == saved
            assert work.occupied == {k for k, ranks in enumerate(work.machines) if ranks}
            other = fresh(work)
            assert work.value() == other.value()
            for neighborhood in (SHIFT, SWAP11, SWAP21):
                assert _best_move(work, neighborhood) == _best_move(other, neighborhood)

    @pytest.mark.parametrize(
        "rollback, n, m",  # 5 and 241 scanned machines
        [("restore", 30, 4), ("put", 30, 4), ("restore", 240, 300), ("put", 240, 300)],
        ids=["restore", "put", "restore-m300", "put-m300"],
    )
    def test_rollback_keeps_the_tables(self, rollback, n, m, monkeypatch):
        inst, lists, rng = descended(n, m)
        work, rng = _Work(inst), copy.copy(rng)
        work.assign(dict(enumerate(map(list, lists))))
        for neighborhood in (SHIFT, SWAP11, SWAP21):  # as the descent's last three scans
            _best_move(work, neighborhood)
        work.save()
        _perturb(work, rng, 2)
        _rvnd(work, rng)
        work.restore()
        work.save()  # a snapshot of the restored state, with no scan in between
        before = [list(ranks) for ranks in work.machines]
        _perturb(work, rng, 2)
        _rvnd(work, rng)
        if rollback == "restore":
            work.restore()
        else:  # new list objects, equal to the snapshot's
            for k, ranks in enumerate(before):
                work.put(k, list(ranks))
        assert work.machines == before

        def rebuilt(*args):
            raise AssertionError("a table was rebuilt after the rollback")

        monkeypatch.setattr(heuristic, "_Row", rebuilt)
        monkeypatch.setattr(heuristic, "_Pair", rebuilt)
        for neighborhood in (SHIFT, SWAP11, SWAP21):
            _best_move(work, neighborhood)

    def test_iteration_does_not_walk_all_machines(self):
        inst = make_instance(10**5, [(3, 1), (2, 5), (4, 4), (1, 1)])
        rng = SplitMix64(1)
        work = construct(inst, rng, 0.3)
        work.machines = _NoWalk(work.machines)
        for _ in range(20):
            work.save()
            _perturb(work, rng, 2)
            _rvnd(work, rng)
            assert work.value() > 0
            work.restore()
