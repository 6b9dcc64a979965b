"""The oracle's optimum, checked three ways.

``exhaustive_optimum`` scans all m**n assignments with no pruning or
symmetry breaking. ``ref_brute_force`` below is a copy of the oracle as it
was before its lower bound and dominance table, a depth-first scan of
canonical assignments cut only against the incumbent: the branch and
bound must return the same optimum, schedule and ordered ``all_optima``.
The edge shapes run through ``solve-exact`` itself.
"""

import contextlib
import io
import tempfile
from itertools import accumulate, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcsched import oracle
from arcsched.cli import main
from arcsched.instance import (
    Instance,
    ModelSizeError,
    Schedule,
    evaluate_schedule,
    generate_instance,
    make_instance,
    parse_schedule,
    sort_machine_wspt,
    write_instance,
)
from arcsched.oracle import SIZE_GUARD, OracleResult, brute_force_optimal
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
        with pytest.raises(ModelSizeError, match="guard"):
            brute_force_optimal(inst)

    def test_guard_message_names_bound(self):
        inst = generate_instance(n=30, m=2, p_max=5, w_max=5, seed=1)
        with pytest.raises(ModelSizeError, match="2\\*\\*30"):
            brute_force_optimal(inst)

    def test_verdict_at_the_bound(self):
        # m**n = 1e8 is enumerated, one more job is refused
        for m, n in ((10, 8), (10**4, 2)):
            accepted = generate_instance(n=n, m=m, p_max=5, w_max=5, seed=1)
            result = brute_force_optimal(accepted)
            assert evaluate_schedule(accepted, result.schedule) == result.optimum
            refused = generate_instance(n=n + 1, m=m, p_max=5, w_max=5, seed=1)
            with pytest.raises(ModelSizeError, match=f"{m}\\*\\*{n + 1}"):
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


# ---------------------------------------------------------------------------
# reference: the oracle before its lower bound and dominance table


def ref_canonical_schedule(inst: Instance, machines: list[list[int]]) -> Schedule:
    """Order machines by first job id, empty machines last."""
    key = lambda mach: mach[0] if mach else inst.n + 1
    ordered = sorted(machines, key=key)
    return Schedule(machines=tuple(tuple(mach) for mach in ordered))


def ref_brute_force(inst: Instance, enumerate_all: bool = False) -> OracleResult:
    """Minimize total weighted completion time by exhaustive assignment.

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
    m = inst.m

    best_cost = None
    best_assignments: list[tuple[int, ...]] = []

    loads = [0] * m
    assign = [0] * inst.n

    def dfs(idx: int, used: int, cost: int) -> None:
        nonlocal best_cost
        if best_cost is not None:
            if enumerate_all:
                if cost > best_cost:
                    return
            elif cost >= best_cost:
                return
        if idx == inst.n:
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_assignments.clear()
            if cost == best_cost:
                best_assignments.append(tuple(assign[:]))
            return
        job = jobs[idx]
        # first-use canonical form: may reuse any open machine or open the next
        limit = min(used + 1, m)
        for k in range(limit):
            assign[idx] = k
            loads[k] += job.p
            dfs(idx + 1, max(used, k + 1), cost + job.w * loads[k])
            loads[k] -= job.p
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
        return ref_canonical_schedule(inst, machines)

    schedules = [to_schedule(a) for a in best_assignments]
    assert evaluate_schedule(inst, schedules[0]) == best_cost
    return OracleResult(
        optimum=best_cost,
        schedule=schedules[0],
        all_optima=tuple(schedules) if enumerate_all else None,
    )


# every (n, m) with n <= 12, m <= 5 and m**n at most this; n=10, m=4 is
# the first left out, to keep the three runs of the grid to a few seconds
GRID_SIZE = 10**6


def grid() -> list[Instance]:
    cases = []
    for n in range(1, 13):
        for m in range(1, 6):
            if m**n > GRID_SIZE:
                continue
            for top in (3, 100):  # many ties, then few
                cases.append(generate_instance(n=n, m=m, p_max=top, w_max=top, seed=100 * n + m))
            cases.append(make_instance(m, [(2, 3)] * n))
    return cases


@pytest.fixture(scope="module")
def reference() -> list[tuple[Instance, OracleResult, OracleResult]]:
    return [(inst, ref_brute_force(inst), ref_brute_force(inst, enumerate_all=True)) for inst in grid()]


class TestReferenceEquality:
    def test_grid_covers_the_edge_shapes(self):
        cases = grid()
        assert any(inst.m > inst.n for inst in cases)
        assert any(inst.n == 12 for inst in cases)
        assert {inst.m for inst in cases} == {1, 2, 3, 4, 5}

    # the default table, no table (the bound alone) and a table that
    # fills at once and then only lowers the costs it holds
    @pytest.mark.parametrize("keys", [oracle.DOMINANCE_KEYS, 0, 4], ids=["default", "bound-only", "over-cap"])
    def test_same_result_as_the_plain_scan(self, reference, monkeypatch, keys):
        monkeypatch.setattr(oracle, "DOMINANCE_KEYS", keys)
        for inst, first, every in reference:
            assert brute_force_optimal(inst) == first, inst
            assert brute_force_optimal(inst, enumerate_all=True) == every, inst

    def test_same_refusal(self):
        inst = generate_instance(n=12, m=5, p_max=3, w_max=3, seed=1)
        messages = []
        for solve in (ref_brute_force, brute_force_optimal):
            with pytest.raises(ModelSizeError) as info:
                solve(inst)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


# ---------------------------------------------------------------------------
# solve-exact on the edge shapes


@st.composite
def edge_instances(draw) -> Instance:
    shape = draw(st.sampled_from(["one-job", "more-machines", "all-equal", "unit-p", "one-machine", "huge-p"]))
    small = st.integers(1, 50)
    if shape == "one-job":
        return make_instance(draw(st.integers(1, 50)), [(draw(small), draw(small))])
    if shape == "more-machines":
        n = draw(st.integers(1, 6))
        return make_instance(draw(st.integers(n + 1, 12)), draw(st.lists(st.tuples(small, small), min_size=n, max_size=n)))
    if shape == "all-equal":  # up to n = 40: m = 2 and 3 pass the guard, then are refused
        return make_instance(draw(st.integers(1, 3)), [(draw(small), draw(small))] * draw(st.integers(1, 40)))
    if shape == "unit-p":
        return make_instance(draw(st.integers(1, 4)), [(1, w) for w in draw(st.lists(small, min_size=1, max_size=12))])
    if shape == "one-machine":
        return make_instance(1, draw(st.lists(st.tuples(small, small), min_size=1, max_size=300)))
    huge = st.integers(10**12, 10**18)
    return make_instance(draw(st.integers(1, 3)), draw(st.lists(st.tuples(huge, small), min_size=1, max_size=8)))


class TestSolveExactEdgeShapes:
    @given(inst=edge_instances(), every=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_exits_cleanly_with_the_optimum(self, inst, every):
        small = inst.m**inst.n <= 10**4
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "i.txt", Path(tmp) / "s.txt"
            path.write_text(write_instance(inst), encoding="utf-8")
            argv = ["solve-exact", "--in", str(path), "--out", str(out)]
            if every and small:  # the optima of a large all-equal instance number in the millions
                argv.append("--all-optima")
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            assert code == (0 if inst.m**inst.n <= SIZE_GUARD else 5)
            if code == 5:
                assert (stdout.getvalue(), stderr.getvalue()[:9]) == ("", "refused: ")
                return
            fields = dict(line.split(": ", 1) for line in stdout.getvalue().splitlines())
            objective = int(fields["objective"])
            assert evaluate_schedule(inst, parse_schedule(out.read_text(encoding="utf-8"))) == objective
        if small:
            assert objective == exhaustive_optimum(inst)
