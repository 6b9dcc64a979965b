from argparse import Namespace
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcsched import milp
from arcsched.bounds import horizon, time_windows, type_time_windows
from arcsched.cli import _flow_network
from arcsched.flowgraph import (
    LOSS,
    build_eaf_graph,
    decompose_flow,
    reduction_pct,
    write_dot,
)
from arcsched.instance import generate_instance, group_job_types, make_instance, singleton_types
from arcsched.rng import SplitMix64

from conftest import arc_labels, reachable_points, straight_network, straight_points, written


def subset_sums(parts: list[int], T: int) -> set[int]:
    """Independent oracle: enumerate all subsets directly."""
    sums = set()
    for r in range(len(parts) + 1):
        for combo in combinations(parts, r):
            if sum(combo) <= T:
                sums.add(sum(combo))
    return sums


def arcs(g) -> list[tuple[int, int, int]]:
    """(tail, head, label) per arc, in arc order."""
    return list(zip(g.tail, g.head, arc_labels(g)))


def job_arcs(g) -> list[tuple[int, int, int]]:
    return [a for a in arcs(g) if a[2] != LOSS]


def loss_tails(g) -> list[int]:
    return [t for t, _, k in arcs(g) if k == LOSS]


def flow_of(g, units: dict[tuple[int, int, int], int]) -> list[int]:
    """Flow per arc: ``units[(tail, head, label)]`` on that arc, 0 elsewhere."""
    flow = [0] * len(g.arcs)
    for arc, v in units.items():
        flow[arcs(g).index(arc)] = v
    return flow


class TestNormalPatterns:
    """The points a network reaches are the normal patterns: sums of
    q_j * p_j <= T with q_j at most the multiplicity of j."""

    def test_demo_all_points_reachable(self, demo):
        assert reachable_points(straight_network(demo, 8)) == list(range(9))

    def test_single_part(self):
        assert straight_points([3], 3) == [0, 3]

    def test_two_parts(self):
        assert straight_points([2, 5], 7) == [0, 2, 5, 7]

    def test_multiplicity_expansion(self):
        # one type of three copies with a full window
        inst = make_instance(1, [(2, 1)] * 3)
        types = group_job_types(inst)
        assert [t.d for t in types] == [3]
        g = build_eaf_graph(inst, 7, types, [(0, 7 - 2)], 0)
        assert reachable_points(g) == [0, 2, 4, 6]

    def test_matches_subset_enumeration(self):
        rng = SplitMix64(13)
        for _ in range(100):
            n = 1 + rng.below(15)
            parts = [1 + rng.below(9) for _ in range(n)]
            T = 1 + rng.below(1 + sum(parts))
            assert straight_points(parts, T) == sorted(subset_sums(parts, T))


class TestAfGraph:
    def test_demo_counts(self, demo):
        g = straight_network(demo, 8)
        assert len(g.nodes) == 9
        assert len(job_arcs(g)) == 11
        assert len(loss_tails(g)) == 8

    def test_demo_strict_figure_loss_count(self, demo):
        g = straight_network(demo, 8, strict_figure=True)
        assert len(loss_tails(g)) == 7
        assert all(t >= 1 for t in loss_tails(g))

    def test_single_job(self):
        inst = make_instance(1, [(3, 1)])
        g = straight_network(inst, 3)
        assert g.nodes == (0, 3)
        assert job_arcs(g) == [(0, 3, 1)]
        assert [(t, h) for t, h, k in arcs(g) if k == LOSS] == [(0, 3)]

    def test_every_job_has_an_arc(self):
        for seed in range(20):
            inst = generate_instance(n=10, m=2, p_max=12, w_max=12, seed=seed)
            g = straight_network(inst)
            jobs = {g.types[k - 1].members[0] for _, _, k in job_arcs(g)}
            assert jobs == set(range(1, 11))

    def test_tails_reachable_by_earlier_wspt_jobs(self):
        # replay the construction: each arc of job j must start at a sum of
        # processing times of jobs strictly before j in WSPT order
        for seed in range(10):
            inst = generate_instance(n=9, m=2, p_max=10, w_max=10, seed=seed)
            T = horizon(inst).T
            g = straight_network(inst, T)
            order = inst.wspt_ids
            reachable = {0}
            arcs_by_job = {}
            for t, _, k in job_arcs(g):
                arcs_by_job.setdefault(g.types[k - 1].members[0], set()).add(t)
            for j in order:
                p = inst.job(j).p
                assert arcs_by_job[j] == {t for t in reachable if t + p <= T}
                reachable |= {t + p for t in reachable if t + p <= T}

    def test_no_duplicate_arcs_and_tail_lt_head(self):
        inst = generate_instance(n=10, m=3, p_max=8, w_max=8, seed=4)
        g = straight_network(inst)
        triples = arcs(g)
        assert len(triples) == len(set(triples))
        assert all(t < h for t, h, _ in triples)
        assert 0 in g.nodes and g.T in g.nodes


FLAGS = ("no_types", "no_windows", "no_tprime", "strict_figure")


class TestArcOrder:
    """The arc order the FlowGraph docstring states, which ``write_dot`` and
    ``decompose_flow`` rely on, over every reduction switch; and arc i is
    variable i of the model built from the graph, which the CLI decode
    relies on."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        m=st.integers(1, 4),
        p_max=st.integers(1, 10),
        w_max=st.integers(1, 10),
    )
    def test_order_and_shape(self, seed, n, m, p_max, w_max):
        inst = generate_instance(n=n, m=m, p_max=p_max, w_max=w_max, seed=seed)
        hor = horizon(inst)
        for form, switches in product(("af", "eaf"), product((False, True), repeat=len(FLAGS))):
            args = Namespace(**dict(zip(FLAGS, switches)))
            g = _flow_network(inst, form, args)
            types = singleton_types(inst) if form == "af" or args.no_types else group_job_types(inst)
            assert g.types == tuple(types)
            # job arcs by label, then by tail; loss arcs last, by tail; and
            # strictly increasing, so no (tail, label) repeats
            keys = [(k == LOSS, k, t) for t, _, k in arcs(g)]
            assert keys == sorted(set(keys))
            for t, h, k in arcs(g):
                assert t < h
                assert h == (g.T if k == LOSS else t + types[k - 1].p)
            assert g.m == inst.m
            t_prime = 0 if form == "af" or args.no_tprime else hor.T_prime
            want = [t for t in reachable_points(g) if max(t_prime, 1) <= t < g.T]
            assert loss_tails(g) == (want if args.strict_figure else [0, *want])
            model = milp.build_eaf_model(g)
            assert model.num_vars == len(g.arcs)
            # one block per label in arc order, bounded by d_k, the loss block by m
            assert [(len(b), b.ub) for b in model.blocks] == [
                *((len(run), jt.d) for run, jt in zip(g.runs[1:], types)),
                (len(g.runs[LOSS]), inst.m),
            ]
            for name, (t, h, k) in zip(model.names(), arcs(g)):
                assert name == (f"L_{t}" if k == LOSS else f"x_{t}_{h}_{k}")

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        m=st.integers(1, 4),
        p_max=st.integers(1, 10),
        w_max=st.integers(1, 10),
    )
    def test_runs_and_arc_lookup(self, seed, n, m, p_max, w_max):
        # the runs of labels 1..K, then LOSS, tile the arc positions in
        # order, and arc(t, k) is the first arc a linear scan finds with
        # tail t and label k
        inst = generate_instance(n=n, m=m, p_max=p_max, w_max=w_max, seed=seed)
        for form, switches in product(("af", "eaf"), product((False, True), repeat=len(FLAGS))):
            g = _flow_network(inst, form, Namespace(**dict(zip(FLAGS, switches))))
            scan: dict[tuple[int, int], int] = {}
            for i, (t, _, k) in enumerate(arcs(g)):
                scan.setdefault((t, k), i)
            assert len(g.runs) == len(g.types) + 1
            assert [i for run in (*g.runs[1:], g.runs[LOSS]) for i in run] == list(g.arcs)
            for k in range(len(g.runs)):
                for t in range(g.T + 1):
                    assert g.arc(t, k) == scan.get((t, k))


def eaf_pipeline(inst, strict_figure=False):
    hor = horizon(inst)
    types = group_job_types(inst)
    tw = time_windows(inst, hor.T)
    windows = type_time_windows(types, tw)
    return build_eaf_graph(inst, hor.T, types, windows, hor.T_prime, strict_figure=strict_figure)


class TestEafGraph:
    def test_demo_job_arcs(self, demo):
        g = eaf_pipeline(demo)
        by_label = {}
        for t, h, k in job_arcs(g):
            by_label.setdefault(k, []).append((t, h))
        # singleton types in WSPT order mirror the job ids here
        assert by_label[1] == [(0, 2)]
        assert by_label[2] == [(0, 5), (2, 7)]
        assert by_label[3] == [(0, 1), (2, 3), (5, 6)]
        assert by_label[4] == [(0, 4), (1, 5), (2, 6), (3, 7)]

    def test_demo_loss_arcs(self, demo):
        g = eaf_pipeline(demo)
        tails = sorted(loss_tails(g))
        assert tails == [0, 4, 5, 6, 7]  # [T', T) plus the 0 escape

    def test_demo_strict_drops_zero_escape(self, demo):
        g = eaf_pipeline(demo, strict_figure=True)
        assert sorted(loss_tails(g)) == [4, 5, 6, 7]

    def test_identical_jobs_chain(self, single_machine_triple):
        g = eaf_pipeline(single_machine_triple)
        assert len(g.types) == 1 and g.types[0].d == 3
        assert g.nodes == (0, 2, 4, 6)
        assert [(t, h, g.types[k - 1].d) for t, h, k in job_arcs(g)] == [
            (0, 2, 3),
            (2, 4, 3),
            (4, 6, 3),
        ]

    def test_eaf_never_larger_than_af(self):
        for seed in range(50):
            inst = generate_instance(n=12, m=2 + seed % 3, p_max=15, w_max=15, seed=seed)
            af = straight_network(inst)
            eaf = eaf_pipeline(inst)
            assert len(eaf.arcs) <= len(af.arcs)
            assert set(eaf.nodes) <= set(af.nodes) | {horizon(inst).T}


class TestStats:
    def test_single_job_graph(self):
        inst = make_instance(1, [(3, 1)])
        g = straight_network(inst, 3)
        losses = len(loss_tails(g))
        assert (len(g.nodes), len(g.arcs) - losses, losses) == (2, 1, 1)
        assert len(g.arcs) == 2

    def test_reduction_formula(self):
        assert reduction_pct(3.0, 1.8) == pytest.approx(40.0)


class TestDot:
    def test_single_arc_contract(self):
        inst = make_instance(1, [(3, 1)])
        text = written(write_dot, straight_network(inst, 3))
        assert '0 -> 3 [label="j1"]' in text

    def test_demo_statement_counts(self, demo):
        text = written(write_dot, straight_network(demo, 8))
        lines = text.splitlines()
        edges = [l for l in lines if "->" in l]
        nodes = [l for l in lines if l.strip().rstrip(";").isdigit()]
        assert len(nodes) == 9
        assert len(edges) == 19

    def test_deterministic(self, demo):
        a = written(write_dot, straight_network(demo, 8))
        b = written(write_dot, straight_network(demo, 8))
        assert a == b


class TestDecompose:
    def demo_flow(self, g):
        # labels are WSPT ranks; on the demo they equal the job ids
        return flow_of(g, {(0, 2, 1): 1, (2, 3, 3): 1, (3, 7, 4): 1, (7, 8, 0): 1, (0, 5, 2): 1, (5, 8, 0): 1})

    def test_demo_paths(self, demo):
        g = straight_network(demo, 8)
        paths = decompose_flow(g, self.demo_flow(g))
        assert paths == [[1, 3, 4], [2]]

    def test_two_identical_jobs_capacity_two(self):
        inst = make_instance(2, [(2, 1), (2, 1)])
        g = eaf_pipeline(inst)
        paths = decompose_flow(g, flow_of(g, {(0, 2, 1): 2, (2, g.T, LOSS): 2}))
        assert paths == [[1], [2]]

    def test_idle_machine_via_zero_loss_arc(self):
        inst = make_instance(1, [(3, 1)])
        g = straight_network(inst, 3)
        # flow of value 1: only the loss arc carries it
        assert decompose_flow(g, flow_of(g, {(0, 3, LOSS): 1})) == [[]]
        assert decompose_flow(g, flow_of(g, {(0, 3, 1): 1})) == [[1]]

    def test_surplus_copy_adds_no_job(self, demo):
        # demand rows are >= d: job 3 covered twice, the second time as idle
        g = straight_network(demo, 8)
        flow = flow_of(g, {(0, 2, 1): 1, (2, 7, 2): 1, (7, 8, 3): 1, (0, 1, 3): 1, (1, 5, 4): 1, (5, 8, 0): 1})
        assert decompose_flow(g, flow) == [[1, 2, 3], [4]]


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
        from arcsched.milp import schedule_to_assignment
        from arcsched.oracle import brute_force_optimal

        for seed in range(15):
            inst = generate_instance(n=7 + seed % 3, m=2 + seed % 2, p_max=10, w_max=10, seed=seed)
            g = straight_network(inst)
            result = brute_force_optimal(inst, enumerate_all=True)
            for sched in result.all_optima:
                if max(sum(inst.job(j).p for j in mm) for mm in sched.machines) > g.T:
                    continue
                paths = decompose_flow(g, schedule_to_assignment(inst, sched, g.T, g))
                assert sorted(j for path in paths for j in path) == list(range(1, inst.n + 1))
                assert self.starts_by_type(inst, paths) == self.starts_by_type(inst, sched.machines)
                assert self.completions(inst, paths) == self.completions(inst, sched.machines)

    def test_eaf_round_trip_on_oracle_schedule(self):
        from arcsched.milp import MappingError, schedule_to_assignment
        from arcsched.oracle import brute_force_optimal

        checked = 0
        for seed in range(15):
            inst = generate_instance(n=8, m=2, p_max=6, w_max=6, seed=seed)
            g = eaf_pipeline(inst)
            result = brute_force_optimal(inst, enumerate_all=True)
            for sched in result.all_optima:
                try:
                    flow = schedule_to_assignment(inst, sched, g.T, g)
                except MappingError:
                    continue  # windows only guarantee some optimum survives
                paths = decompose_flow(g, flow)
                assert sorted(j for path in paths for j in path) == list(range(1, inst.n + 1))
                assert self.starts_by_type(inst, paths) == self.starts_by_type(inst, sched.machines)
                assert self.completions(inst, paths) == self.completions(inst, sched.machines)
                checked += 1
                break
        assert checked >= 10
