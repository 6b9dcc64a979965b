from itertools import product

import pytest

from arcsched.instance import (
    Schedule,
    evaluate_schedule,
    generate_instance,
    make_instance,
    sort_machine_wspt,
)
from arcsched.oracle import SizeLimitError, brute_force_optimal
from arcsched.rng import SplitMix64


def exhaustive_optimum(inst) -> int:
    """Independent oracle: raw m^n scan without pruning or symmetry."""
    best = None
    for assign in product(range(inst.m), repeat=inst.n):
        machines = [[] for _ in range(inst.m)]
        for j, k in zip(range(1, inst.n + 1), assign):
            machines[k].append(j)
        sched = Schedule(machines=tuple(sort_machine_wspt(inst, mm) for mm in machines))
        value = evaluate_schedule(inst, sched)
        if best is None or value < best:
            best = value
    return best


class TestOptimum:
    def test_four_job_example(self, demo):
        assert brute_force_optimal(demo).optimum == 67

    def test_single_job(self):
        inst = make_instance(3, [(4, 5)])
        assert brute_force_optimal(inst).optimum == 20

    def test_two_jobs_two_machines_separate(self):
        inst = make_instance(2, [(3, 2), (5, 4)])
        assert brute_force_optimal(inst).optimum == 3 * 2 + 5 * 4

    def test_matches_raw_enumeration(self):
        for seed in range(25):
            inst = generate_instance(n=6, m=2 + seed % 2, p_max=12, w_max=12, seed=seed)
            assert brute_force_optimal(inst).optimum == exhaustive_optimum(inst)

    def test_returned_schedule_attains_optimum(self):
        for seed in range(10):
            inst = generate_instance(n=7, m=3, p_max=15, w_max=15, seed=seed)
            result = brute_force_optimal(inst)
            assert evaluate_schedule(inst, result.schedule) == result.optimum


class TestGuard:
    def test_oversize_refused(self):
        inst = generate_instance(n=30, m=2, p_max=5, w_max=5, seed=1)
        with pytest.raises(SizeLimitError, match="guard"):
            brute_force_optimal(inst)

    def test_guard_message_names_bound(self):
        inst = generate_instance(n=30, m=2, p_max=5, w_max=5, seed=1)
        with pytest.raises(SizeLimitError, match="2\\*\\*30"):
            brute_force_optimal(inst)

    def test_verdict_at_the_bound(self):
        # m**n = 1e8 is enumerated, one more job is refused
        for m, n in ((10, 8), (10**4, 2)):
            accepted = generate_instance(n=n, m=m, p_max=5, w_max=5, seed=1)
            result = brute_force_optimal(accepted)
            assert evaluate_schedule(accepted, result.schedule) == result.optimum
            refused = generate_instance(n=n + 1, m=m, p_max=5, w_max=5, seed=1)
            with pytest.raises(SizeLimitError, match=f"{m}\\*\\*{n + 1}"):
                brute_force_optimal(refused)


class TestEnumerateAll:
    def test_all_optima_evaluate_to_optimum(self):
        for seed in range(10):
            inst = generate_instance(n=7, m=2, p_max=6, w_max=6, seed=seed)
            result = brute_force_optimal(inst, enumerate_all=True)
            assert result.all_optima
            for sched in result.all_optima:
                assert evaluate_schedule(inst, sched) == result.optimum

    def test_canonical_assignments_distinct(self):
        inst = generate_instance(n=7, m=2, p_max=4, w_max=4, seed=3)
        result = brute_force_optimal(inst, enumerate_all=True)
        assert len(set(result.all_optima)) == len(result.all_optima)

    def test_identical_jobs_symmetric_optima(self):
        inst = make_instance(2, [(2, 2), (2, 2)])
        result = brute_force_optimal(inst, enumerate_all=True)
        # one job per machine, canonicalized: a single distinct assignment
        assert result.optimum == 8
        assert result.all_optima == (Schedule(machines=((1,), (2,))),)


class TestInvariances:
    def test_job_reindexing_invariance(self):
        for seed in range(10):
            inst = generate_instance(n=7, m=2, p_max=10, w_max=10, seed=seed)
            rev = make_instance(2, [(j.p, j.w) for j in reversed(inst.jobs)])
            assert brute_force_optimal(inst).optimum == brute_force_optimal(rev).optimum

    def test_optimum_lower_bounds_random_schedules(self):
        rng = SplitMix64(77)
        for seed in range(5):
            inst = generate_instance(n=8, m=2, p_max=10, w_max=10, seed=seed)
            opt = brute_force_optimal(inst).optimum
            for _ in range(200):
                machines = [[] for _ in range(inst.m)]
                for j in range(1, inst.n + 1):
                    machines[rng.below(inst.m)].append(j)
                sched = Schedule(machines=tuple(sort_machine_wspt(inst, mm) for mm in machines))
                assert evaluate_schedule(inst, sched) >= opt
