"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with plain ``pytest tests/test_acceptance.py`` (the lines bypass
capture); the whole suite is budgeted for desk-scale hardware.
"""

import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

from arcsched.bounds import horizon, horizon_T, horizon_Tprime, time_windows, type_time_windows
from arcsched.flowgraph import LOSS, build_eaf_graph
from arcsched.heuristic import IlsConfig, ils
from arcsched.instance import (
    Schedule,
    generate_instance,
    group_job_types,
    parse_instance,
    write_instance,
)
from arcsched.milp import (
    MappingError,
    build_eaf_model,
    build_ti,
    check_feasible,
    schedule_to_assignment,
    write_lp,
    write_mps,
)
from arcsched.oracle import brute_force_optimal
from arcsched.rng import SplitMix64

from conftest import DEMO_TEXT, arc_labels, straight_network, straight_points, written

DEMO_OPT = Schedule(machines=((1, 3, 4), (2,)))


@pytest.fixture
def report(capsys):
    def _report(cid: str, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"\nACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} ({detail})")
        assert ok, f"criterion {cid}: {detail}"

    return _report


@pytest.fixture
def demo():
    return parse_instance(DEMO_TEXT)


def eaf_network(inst):
    hor = horizon(inst)
    types = group_job_types(inst)
    windows = type_time_windows(types, time_windows(inst, hor.T))
    return build_eaf_graph(inst, hor.T, types, windows, hor.T_prime)


def test_criterion_1_golden_network(demo, report):
    best_ms = min(_timed_af_build(demo) for _ in range(10))
    g = straight_network(demo, 8)
    nodes, loss = len(g.nodes), arc_labels(g).count(LOSS)
    job_arcs = len(g.arcs) - loss
    strict_loss = arc_labels(straight_network(demo, 8, strict_figure=True)).count(LOSS)
    ok = nodes == 9 and job_arcs == 11 and loss == 8 and strict_loss == 7 and best_ms < 1.0
    report(
        "1 golden-network",
        ok,
        f"nodes={nodes} job_arcs={job_arcs} loss={loss}/{strict_loss} build={best_ms:.3f}ms",
    )


def _timed_af_build(demo) -> float:
    t0 = time.perf_counter()
    straight_network(demo, 8)
    return (time.perf_counter() - t0) * 1000.0


def test_criterion_2_optimum_reproduction(demo, report, tmp_path):
    oracle_value = brute_force_optimal(demo).optimum
    ils_value = ils(demo, IlsConfig(seed=1, iterations=100)).value

    mapped = {}
    T = horizon_T(demo)
    mapped["ti"] = check_feasible(
        build_ti(demo, T), schedule_to_assignment(demo, DEMO_OPT, T, None)
    )
    g = straight_network(demo, T)
    mapped["af"] = check_feasible(build_eaf_model(g), schedule_to_assignment(demo, DEMO_OPT, T, g))
    ge = eaf_network(demo)
    mapped["eaf"] = check_feasible(build_eaf_model(ge), schedule_to_assignment(demo, DEMO_OPT, ge.T, ge))

    external_value, external_note = _external_solve(tmp_path)

    ok = (
        oracle_value == 67
        and ils_value == 67
        and all(r.feasible and r.objective == 67 for r in mapped.values())
        and external_value in (67, None)
    )
    report(
        "2 optimum-67",
        ok,
        f"oracle={oracle_value} ils={ils_value} "
        f"mapped={[str(mapped[k].objective) for k in ('ti', 'af', 'eaf')]} "
        f"external={external_note}",
    )


def _external_solve(tmp_path):
    """Drive the solve-external path with the configured solver, or the
    bundled LP shim when scipy is importable; skip otherwise."""
    import os

    from arcsched.cli import main

    solver_cmd = os.environ.get("ARCSCHED_SOLVER_CMD")
    if solver_cmd is None:
        try:
            import scipy  # noqa: F401
        except ImportError:
            return None, "not configured"
        shim = Path(__file__).parent / "lp_shim.py"
        solver_cmd = f"{sys.executable} {shim} {{model}} {{solution}}"
    demo_file = tmp_path / "demo.txt"
    demo_file.write_text(DEMO_TEXT, encoding="utf-8")
    out = tmp_path / "sched.txt"
    code = main(["solve-external", "--in", str(demo_file), "--form", "eaf",
                 "--solver-cmd", solver_cmd, "--out", str(out)])
    if code != 0:
        return -1, f"exit {code}"
    inst = parse_instance(DEMO_TEXT)
    from arcsched.instance import evaluate_schedule, parse_schedule

    value = evaluate_schedule(inst, parse_schedule(out.read_text(encoding="utf-8")))
    return value, str(value)


def test_criterion_3_bound_formulas(demo, report):
    T, Tp = horizon_T(demo), horizon_Tprime(demo)
    report("3 bounds", T == 8 and Tp == 4, f"T={T} T_prime={Tp}")


def test_criterion_4_equivalence_surrogate(report):
    t0 = time.perf_counter()
    failures = []
    for i in range(50):
        inst = generate_instance(n=6 + i % 4, m=2 + i % 2, p_max=20, w_max=20, seed=1000 + i)
        result = brute_force_optimal(inst, enumerate_all=True)
        T = horizon(inst).T
        models = {"ti": (build_ti(inst, T), None)}
        g = straight_network(inst, T)
        models["af"] = (build_eaf_model(g), g)
        ge = eaf_network(inst)
        models["eaf"] = (build_eaf_model(ge), ge)
        for kind, (model, graph) in models.items():
            best = None
            for sched in result.all_optima:
                try:
                    valuation = schedule_to_assignment(inst, sched, T, graph)
                except MappingError:
                    continue
                rep = check_feasible(model, valuation)
                if rep.feasible and (best is None or rep.objective < best):
                    best = rep.objective
                if best == result.optimum:
                    break
            if best != result.optimum:
                failures.append((1000 + i, kind, best, result.optimum))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    report("4 equivalence-surrogate", ok, f"failures={failures[:3]} elapsed={elapsed:.1f}s")


def test_criterion_5_variable_count_reproduction(report):
    def counts(n, seed):
        inst = generate_instance(n=n, m=2, p_max=20, w_max=20, seed=seed)
        T = horizon(inst).T
        n_ti = build_ti(inst, T).num_vars
        n_af = build_eaf_model(straight_network(inst, T)).num_vars
        n_eaf = build_eaf_model(eaf_network(inst)).num_vars
        return n_ti, n_af, n_eaf

    rows30 = [counts(30, 3000 + i) for i in range(10)]
    ordering_ok = all(eaf <= af <= ti for ti, af, eaf in rows30)
    mean30 = [sum(r[k] for r in rows30) / 10 for k in range(3)]
    targets = (4800.0, 3000.0, 1800.0)
    within = all(abs(mean - t) <= 0.25 * t for mean, t in zip(mean30, targets))

    rows100 = [counts(100, 4000 + i) for i in range(10)]
    ordering_ok &= all(eaf <= af <= ti for ti, af, eaf in rows100)
    red = [100.0 * (1 - af / ti) for ti, af, _ in rows100]
    mean_red = sum(red) / len(red)
    red_ok = abs(mean_red - 39.5) <= 8.0

    ok = ordering_ok and within and red_ok
    report(
        "5 table-reproduction",
        ok,
        f"mean30={[f'{v:.0f}' for v in mean30]} vs {targets} "
        f"af_vs_ti_at_100={mean_red:.1f}% (39.5+-8)",
    )


def test_criterion_6_normal_pattern_oracle(report):
    def subset_sums(parts, T):
        sums = set()
        for r in range(len(parts) + 1):
            for combo in combinations(parts, r):
                if sum(combo) <= T:
                    sums.add(sum(combo))
        return sorted(sums)

    rng = SplitMix64(600)
    mismatches = 0
    for _ in range(100):
        n = 1 + rng.below(15)
        parts = [1 + rng.below(10) for _ in range(n)]
        T = 1 + rng.below(1 + sum(parts))
        if straight_points(parts, T) != subset_sums(parts, T):
            mismatches += 1
    report("6 normal-patterns", mismatches == 0, f"mismatches={mismatches}/100")


def test_criterion_7_heuristic_quality(report):
    hits = 0
    gaps = []
    for i in range(50):
        inst = generate_instance(n=6 + i % 5, m=2 + i % 2, p_max=20, w_max=20, seed=2000 + i)
        opt = brute_force_optimal(inst).optimum
        value = ils(inst, IlsConfig(seed=i, iterations=1000)).value
        gaps.append(100.0 * (value - opt) / opt)
        if value == opt:
            hits += 1
    mean_gap = sum(gaps) / len(gaps)
    ok = hits >= 45 and mean_gap <= 1.0
    report("7 heuristic-quality", ok, f"optimal={hits}/50 mean_gap={mean_gap:.3f}%")


def test_criterion_8_determinism_and_round_trip(report):
    demo = parse_instance(DEMO_TEXT)
    T = horizon_T(demo)
    emission_ok = (
        written(write_lp, build_ti(demo, T)) == written(write_lp, build_ti(demo, T))
        and written(write_mps, build_ti(demo, T)) == written(write_mps, build_ti(demo, T))
        and write_instance(demo) == DEMO_TEXT
    )
    round_trip_ok = True
    for seed in range(100):
        inst = generate_instance(n=20, m=3, p_max=20, w_max=20, seed=seed)
        text = write_instance(inst)
        if parse_instance(text) != inst or write_instance(generate_instance(
            n=20, m=3, p_max=20, w_max=20, seed=seed
        )) != text:
            round_trip_ok = False
            break
    ok = emission_ok and round_trip_ok
    report("8 determinism", ok, f"emission={emission_ok} round_trip={round_trip_ok}")
