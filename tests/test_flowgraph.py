from itertools import combinations

import pytest

from arcsched.bounds import horizon, time_windows, type_time_windows
from arcsched.flowgraph import (
    Arc,
    FlowGraph,
    InfeasibleHorizonError,
    build_eaf_graph,
    decompose_flow,
    graph_stats,
    normal_patterns,
    reduction_pct,
    to_dot,
)
from arcsched.instance import generate_instance, group_job_types, make_instance, wspt_order
from arcsched.rng import SplitMix64

from conftest import straight_network


def subset_sums(parts: list[int], T: int) -> set[int]:
    """Independent oracle: enumerate all subsets directly."""
    sums = set()
    for r in range(len(parts) + 1):
        for combo in combinations(parts, r):
            if sum(combo) <= T:
                sums.add(sum(combo))
    return sums


class TestNormalPatterns:
    def test_demo_all_points_reachable(self, demo):
        points = normal_patterns([(j.p, 1) for j in demo.jobs], 8)
        assert points == list(range(9))

    def test_single_part(self):
        assert normal_patterns([(3, 1)], 3) == [0, 3]

    def test_two_parts(self):
        assert normal_patterns([(2, 1), (5, 1)], 7) == [0, 2, 5, 7]

    def test_multiplicity_expansion(self):
        assert normal_patterns([(2, 3)], 7) == [0, 2, 4, 6]

    def test_matches_subset_enumeration(self):
        rng = SplitMix64(13)
        for _ in range(100):
            n = 1 + rng.below(15)
            parts = [1 + rng.below(9) for _ in range(n)]
            T = 1 + rng.below(1 + sum(parts))
            got = normal_patterns([(p, 1) for p in parts], T)
            assert got == sorted(subset_sums(parts, T))


class TestAfGraph:
    def test_demo_counts(self, demo):
        g, _ = straight_network(demo, 8)
        stats = graph_stats(g)
        assert stats.node_count == 9
        assert stats.job_arc_count == 11
        assert stats.loss_arc_count == 8

    def test_demo_strict_figure_loss_count(self, demo):
        g, _ = straight_network(demo, 8, strict_figure=True)
        assert graph_stats(g).loss_arc_count == 7
        assert all(a.tail >= 1 for a in g.loss_arcs())

    def test_single_job(self):
        inst = make_instance(1, [(3, 1)])
        g, _ = straight_network(inst, 3)
        assert g.nodes == (0, 3)
        assert [(a.tail, a.head, a.label) for a in g.job_arcs()] == [(0, 3, 1)]
        assert [(a.tail, a.head) for a in g.loss_arcs()] == [(0, 3)]

    def test_horizon_too_small(self, demo):
        with pytest.raises(InfeasibleHorizonError):
            straight_network(demo, 4)

    def test_every_job_has_an_arc(self):
        for seed in range(20):
            inst = generate_instance(n=10, m=2, p_max=12, w_max=12, seed=seed)
            g, types = straight_network(inst)
            jobs = {types[a.label - 1].members[0] for a in g.job_arcs()}
            assert jobs == set(range(1, 11))

    def test_tails_reachable_by_earlier_wspt_jobs(self):
        # replay the construction: each arc of job j must start at a sum of
        # processing times of jobs strictly before j in WSPT order
        for seed in range(10):
            inst = generate_instance(n=9, m=2, p_max=10, w_max=10, seed=seed)
            T = horizon(inst).T
            g, types = straight_network(inst, T)
            order = wspt_order(inst)
            reachable = {0}
            arcs_by_job = {}
            for a in g.job_arcs():
                arcs_by_job.setdefault(types[a.label - 1].members[0], set()).add(a.tail)
            for j in order:
                p = inst.job(j).p
                assert arcs_by_job[j] == {t for t in reachable if t + p <= T}
                reachable |= {t + p for t in reachable if t + p <= T}

    def test_no_duplicate_arcs_and_tail_lt_head(self):
        inst = generate_instance(n=10, m=3, p_max=8, w_max=8, seed=4)
        g, _ = straight_network(inst)
        triples = [(a.tail, a.head, a.label) for a in g.arcs]
        assert len(triples) == len(set(triples))
        assert all(a.tail < a.head for a in g.arcs)
        assert 0 in g.nodes and g.T in g.nodes


def eaf_pipeline(inst, strict_figure=False):
    hor = horizon(inst)
    types = group_job_types(inst)
    tw = time_windows(inst, hor.T)
    windows = type_time_windows(types, tw)
    return build_eaf_graph(inst, hor, types, windows, strict_figure=strict_figure), types, hor


class TestEafGraph:
    def test_demo_job_arcs(self, demo):
        g, types, _ = eaf_pipeline(demo)
        by_label = {}
        for a in g.job_arcs():
            by_label.setdefault(a.label, []).append((a.tail, a.head))
        # singleton types in WSPT order mirror the job ids here
        assert by_label[1] == [(0, 2)]
        assert by_label[2] == [(0, 5), (2, 7)]
        assert by_label[3] == [(0, 1), (2, 3), (5, 6)]
        assert by_label[4] == [(0, 4), (1, 5), (2, 6), (3, 7)]

    def test_demo_loss_arcs(self, demo):
        g, _, hor = eaf_pipeline(demo)
        tails = sorted(a.tail for a in g.loss_arcs())
        assert tails == [0, 4, 5, 6, 7]  # [T', T) plus the 0 escape

    def test_demo_strict_drops_zero_escape(self, demo):
        g, _, _ = eaf_pipeline(demo, strict_figure=True)
        assert sorted(a.tail for a in g.loss_arcs()) == [4, 5, 6, 7]

    def test_identical_jobs_chain(self, single_machine_triple):
        g, types, _ = eaf_pipeline(single_machine_triple)
        assert len(types) == 1 and types[0].d == 3
        assert g.nodes == (0, 2, 4, 6)
        assert [(a.tail, a.head, a.capacity) for a in g.job_arcs()] == [
            (0, 2, 3),
            (2, 4, 3),
            (4, 6, 3),
        ]

    def test_eaf_never_larger_than_af(self):
        for seed in range(50):
            inst = generate_instance(n=12, m=2 + seed % 3, p_max=15, w_max=15, seed=seed)
            af = graph_stats(straight_network(inst)[0])
            eaf = graph_stats(eaf_pipeline(inst)[0])
            assert eaf.variable_count <= af.variable_count
            assert set(eaf_pipeline(inst)[0].nodes) <= set(
                straight_network(inst)[0].nodes
            ) | {horizon(inst).T}


class TestStats:
    def test_single_job_graph(self):
        inst = make_instance(1, [(3, 1)])
        stats = graph_stats(straight_network(inst, 3)[0])
        assert (stats.node_count, stats.job_arc_count, stats.loss_arc_count) == (2, 1, 1)
        assert stats.variable_count == 2

    def test_reduction_formula(self):
        assert reduction_pct(3.0, 1.8) == pytest.approx(40.0)


class TestDot:
    def test_single_arc_contract(self):
        inst = make_instance(1, [(3, 1)])
        text = to_dot(straight_network(inst, 3)[0])
        assert '0 -> 3 [label="j1"]' in text

    def test_demo_statement_counts(self, demo):
        text = to_dot(straight_network(demo, 8)[0])
        lines = text.splitlines()
        edges = [l for l in lines if "->" in l]
        nodes = [l for l in lines if l.strip().rstrip(";").isdigit()]
        assert len(nodes) == 9
        assert len(edges) == 19

    def test_deterministic(self, demo):
        a = to_dot(straight_network(demo, 8)[0])
        b = to_dot(straight_network(demo, 8)[0])
        assert a == b


class TestDecompose:
    def demo_flow(self, g):
        # labels are WSPT ranks; on the demo they equal the job ids
        def arc(t, h, label, kind):
            return next(
                a for a in g.arcs if (a.tail, a.head, a.label, a.kind) == (t, h, label, kind)
            )

        return {
            arc(0, 2, 1, "job"): 1,
            arc(2, 3, 3, "job"): 1,
            arc(3, 7, 4, "job"): 1,
            arc(7, 8, 0, "loss"): 1,
            arc(0, 5, 2, "job"): 1,
            arc(5, 8, 0, "loss"): 1,
        }

    def test_demo_paths(self, demo):
        g, types = straight_network(demo, 8)
        paths = decompose_flow(g, self.demo_flow(g), 2, types)
        assert paths == [[1, 3, 4], [2]]

    def test_two_identical_jobs_capacity_two(self):
        inst = make_instance(2, [(2, 1), (2, 1)])
        g, types, hor = eaf_pipeline(inst)
        arc = next(a for a in g.job_arcs() if a.tail == 0)
        loss = next(a for a in g.loss_arcs() if a.tail == 2)
        paths = decompose_flow(g, {arc: 2, loss: 2}, 2, types=types)
        assert paths == [[1], [2]]

    def test_idle_machine_via_zero_loss_arc(self):
        inst = make_instance(1, [(3, 1)])
        g, types = straight_network(inst, 3)
        loss = next(a for a in g.loss_arcs() if a.tail == 0)
        job = next(iter(g.job_arcs()))
        # flow of value 1: only the loss arc carries it
        assert decompose_flow(g, {loss: 1}, 1, types) == [[]]
        assert decompose_flow(g, {job: 1}, 1, types) == [[1]]

    def test_conservation_violation_rejected(self, demo):
        g, types = straight_network(demo, 8)
        flow = self.demo_flow(g)
        bad = dict(flow)
        first = next(iter(bad))
        del bad[first]
        with pytest.raises(ValueError, match="conserve"):
            decompose_flow(g, bad, 2, types)

    def test_capacity_violation_rejected(self, demo):
        g, types = straight_network(demo, 8)
        flow = self.demo_flow(g)
        job_arc = next(a for a in flow if a.kind == "job")
        flow[job_arc] = 2
        with pytest.raises(ValueError, match="outside"):
            decompose_flow(g, flow, 2, types)


class TestFlowRoundTrip:
    """schedule -> flow -> paths preserves everything the flow encodes:
    per-job start times (up to identical-job relabeling) and the multiset
    of machine completion times. Machine grouping itself is not always
    recoverable: two paths crossing at a node can be spliced without
    changing the flow."""

    def starts_by_type(self, inst, machines):
        triples = []
        for machine in machines:
            t = 0
            for j in machine:
                job = inst.job(j)
                triples.append((job.p, job.w, t))
                t += job.p
        return sorted(triples)

    def completions(self, inst, machines):
        return sorted(sum(inst.job(j).p for j in machine) for machine in machines)

    def test_af_round_trip_on_oracle_optima(self):
        from arcsched.milp import schedule_to_assignment, valuation_to_flow
        from arcsched.oracle import brute_force_optimal

        for seed in range(15):
            inst = generate_instance(n=7 + seed % 3, m=2 + seed % 2, p_max=10, w_max=10, seed=seed)
            g, types = straight_network(inst)
            result = brute_force_optimal(inst, enumerate_all=True)
            for sched in result.all_optima:
                if max(sum(inst.job(j).p for j in mm) for mm in sched.machines) > g.T:
                    continue
                valuation = schedule_to_assignment(inst, sched, "eaf", graph=g, types=types)
                paths = decompose_flow(g, valuation_to_flow(g, valuation), inst.m, types)
                assert sorted(j for path in paths for j in path) == list(range(1, inst.n + 1))
                assert self.starts_by_type(inst, paths) == self.starts_by_type(inst, sched.machines)
                assert self.completions(inst, paths) == self.completions(inst, sched.machines)

    def test_eaf_round_trip_on_oracle_schedule(self):
        from arcsched.milp import MappingError, schedule_to_assignment, valuation_to_flow
        from arcsched.oracle import brute_force_optimal

        checked = 0
        for seed in range(15):
            inst = generate_instance(n=8, m=2, p_max=6, w_max=6, seed=seed)
            g, types, _ = eaf_pipeline(inst)
            result = brute_force_optimal(inst, enumerate_all=True)
            for sched in result.all_optima:
                try:
                    valuation = schedule_to_assignment(inst, sched, "eaf", graph=g, types=types)
                except MappingError:
                    continue  # windows only guarantee some optimum survives
                paths = decompose_flow(g, valuation_to_flow(g, valuation), inst.m, types=types)
                assert sorted(j for path in paths for j in path) == list(range(1, inst.n + 1))
                assert self.starts_by_type(inst, paths) == self.starts_by_type(inst, sched.machines)
                assert self.completions(inst, paths) == self.completions(inst, sched.machines)
                checked += 1
                break
        assert checked >= 10
