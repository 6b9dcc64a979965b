from fractions import Fraction

import pytest

from arcsched.bounds import (
    InfeasibleWindowError,
    h_bounds,
    horizon,
    horizon_T,
    horizon_Tprime,
    time_windows,
    type_time_windows,
)
from arcsched.instance import generate_instance, group_job_types, make_instance
from arcsched.oracle import brute_force_optimal


class TestHBounds:
    def test_four_job_example(self, demo):
        assert h_bounds(demo) == (Fraction(7, 2), Fraction(17, 2))

    def test_single_machine_collapses(self):
        inst = make_instance(1, [(2, 1), (5, 1)])
        assert h_bounds(inst) == (7, 7)

    def test_three_equal_jobs(self):
        inst = make_instance(2, [(3, 1), (3, 1), (3, 1)])
        assert h_bounds(inst) == (3, 6)


class TestHorizonT:
    def test_four_job_example(self, demo):
        assert horizon_T(demo) == 8

    def test_single_machine_total(self):
        inst = make_instance(1, [(2, 1), (5, 1)])
        assert horizon_T(inst) == 7

    def test_three_equal_jobs(self):
        inst = make_instance(2, [(3, 1), (3, 1), (3, 1)])
        assert horizon_T(inst) == 6


class TestHorizonTprime:
    def test_four_job_example(self, demo):
        assert horizon_Tprime(demo) == 4

    def test_single_machine_total(self):
        inst = make_instance(1, [(2, 1), (5, 1)])
        assert horizon_Tprime(inst) == 7

    def test_three_equal_jobs(self):
        inst = make_instance(2, [(3, 1), (3, 1), (3, 1)])
        assert horizon_Tprime(inst) == 3

    def test_more_machines_than_jobs_clamps_to_one(self):
        inst = make_instance(5, [(4, 2), (6, 3)])
        assert horizon_Tprime(inst) == 1

    def test_tprime_within_bounds_on_random_instances(self):
        # T' <= T, T' >= ceil(H_min) and T >= p_max, which the ti, pti and
        # flow builders take without a check: 1000 seeded draws, then 200
        # with m > n and 200 with p up to 10**6
        draws = [(3 + seed % 12, 1 + seed % 4, 1 + seed % 20) for seed in range(1000)]
        draws += [(1 + seed % 6, 2 + seed % 6 + seed % 9, 1 + seed % 20) for seed in range(200)]
        draws += [(1 + seed % 12, 1 + seed % 15, 10 ** (1 + seed % 6)) for seed in range(200)]
        for seed, (n, m, p_max) in enumerate(draws):
            inst = generate_instance(n=n, m=m, p_max=p_max, w_max=10, seed=seed)
            hor = horizon(inst)
            assert hor.T >= inst.p_max
            assert hor.T_prime <= hor.T
            assert hor.T_prime >= -((-hor.H_min.numerator) // hor.H_min.denominator)
            assert hor.T == hor.H_max.numerator // hor.H_max.denominator

    def test_adding_a_job_never_decreases_T(self):
        for seed in range(50):
            inst = generate_instance(n=8, m=3, p_max=15, w_max=10, seed=seed)
            bigger = make_instance(3, [(j.p, j.w) for j in inst.jobs] + [(4, 2)])
            assert horizon_T(bigger) >= horizon_T(inst)


class TestTimeWindows:
    def test_demo_job1(self, demo):
        tw = time_windows(demo, horizon_T(demo))
        assert tw.a[1] == 0
        assert tw.b[1] == 5  # T - ceil((p4 + p1)/m) = 8 - 3

    def test_demo_job2_fallback_clamped(self, demo):
        # empty successor set: fallback gives ceil((12-5)/2) = 4, then the
        # horizon clamp T - p_2 = 3 applies
        tw = time_windows(demo, horizon_T(demo))
        assert tw.a[2] == 0
        assert tw.b[2] == 3

    def test_identical_chain_on_one_machine(self, single_machine_triple):
        tw = time_windows(single_machine_triple, horizon_T(single_machine_triple))
        assert tw.a[3] == 4
        assert (tw.a[1], tw.b[1]) == (0, 0)
        assert (tw.a[2], tw.b[2]) == (2, 2)

    def test_windows_never_negative(self):
        for seed in range(100):
            inst = generate_instance(n=10, m=2, p_max=20, w_max=20, seed=seed)
            tw = time_windows(inst, horizon_T(inst))
            T = horizon_T(inst)
            for j in range(1, 11):
                assert 0 <= tw.a[j] <= tw.b[j]
                assert tw.b[j] + inst.job(j).p <= T


class TestTypeWindows:
    def test_singleton_types_unchanged(self, demo):
        types = group_job_types(demo)
        tw = time_windows(demo, horizon_T(demo))
        windows = type_time_windows(types, tw)
        for t, (a, b) in zip(types, windows):
            j = t.members[0]
            assert (a, b) == (tw.a[j], tw.b[j])

    def test_min_max_merge(self):
        inst = make_instance(2, [(2, 3), (2, 3), (1, 9), (9, 1)])
        types = group_job_types(inst)
        tw = time_windows(inst, horizon_T(inst))
        windows = type_time_windows(types, tw)
        merged = next(w for t, w in zip(types, windows) if t.d == 2)
        members = next(t.members for t in types if t.d == 2)
        assert merged == (min(tw.a[j] for j in members), max(tw.b[j] for j in members))


class TestWindowSafety:
    def test_some_optimum_respects_windows_and_completion_range(self):
        # exhaustive optima on desk-size instances: at least one optimal
        # schedule starts every job inside its window and finishes every
        # machine within [T', T]
        for seed in range(30):
            inst = generate_instance(n=6 + seed % 4, m=2 + seed % 2, p_max=20, w_max=20, seed=seed)
            hor = horizon(inst)
            tw = time_windows(inst, hor.T)
            result = brute_force_optimal(inst, enumerate_all=True)
            found = False
            for sched in result.all_optima:
                ok = True
                for machine in sched.machines:
                    t = 0
                    for j in machine:
                        if not (tw.a[j] <= t <= tw.b[j]):
                            ok = False
                        t += inst.job(j).p
                    if not (hor.T_prime <= t <= hor.T):
                        ok = False
                if ok:
                    found = True
                    break
            assert found, f"seed {seed}: no optimal schedule fits windows and [T', T]"


def test_infeasible_window_raises():
    # adversarial: one heavy-short job dominated by many, horizon forced small
    inst = make_instance(1, [(2, 5), (2, 5), (2, 5)])
    with pytest.raises(InfeasibleWindowError, match="job"):
        time_windows(inst, 4)  # true horizon is 6; T=4 squeezes job 3 out
