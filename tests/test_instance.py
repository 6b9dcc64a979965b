import re
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcsched.instance import (
    Instance,
    Job,
    ParseError,
    Schedule,
    ValidationError,
    approx,
    evaluate_schedule,
    generate_instance,
    group_job_types,
    make_instance,
    parse_instance,
    parse_schedule,
    write_instance,
    write_schedule,
)

from conftest import DEMO_TEXT


def precedes(a: Job, b: Job) -> bool:
    """Reference WSPT rule by integer cross-multiplication: a higher w/p
    comes first, equal ratios by the smaller id."""
    lhs, rhs = a.w * b.p, b.w * a.p
    return lhs > rhs or (lhs == rhs and a.id < b.id)


def reference_order(jobs: list[Job]) -> list[Job]:
    """Each job's position is the number of jobs that precede it."""
    return sorted(jobs, key=lambda a: sum(precedes(b, a) for b in jobs))


class TestParse:
    def test_four_job_file(self, demo):
        assert demo.n == 4 and demo.m == 2
        assert [(j.p, j.w) for j in demo.jobs] == [(2, 4), (5, 7), (1, 1), (4, 3)]

    def test_smallest_instance(self):
        inst = parse_instance("1 1\n3 5\n")
        assert (inst.n, inst.m) == (1, 1)
        assert (inst.jobs[0].p, inst.jobs[0].w) == (3, 5)

    def test_zero_processing_time_rejected(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_instance("2 1\n2 4\n0 3\n")

    def test_comments_and_blank_lines_skipped(self):
        inst = parse_instance("# header\n\n2 1\n# jobs\n2 4\n\n1 1\n")
        assert inst.n == 2

    def test_malformed_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_instance("4\n1 1\n")

    def test_wrong_record_count(self):
        with pytest.raises(ParseError, match="expected 3 job lines"):
            parse_instance("3 1\n1 1\n2 2\n")

    def test_non_integer_token(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_instance("1 1\nfoo 1\n")

    def test_extra_values_on_job_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_instance("1 1\n1 2 3\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "line 1: missing header 'n m'"),
            ("0 2\n", "line 1: n and m must be >= 1, got n=0 m=2"),
            ("1 1\n3 0\n", "line 2: weight must be >= 1, got 0"),
            # int() reads 1_0 as 10 and takes other scripts' digits
            ("1 1\n1_0 1\n", "line 2: expected integer, got '1_0'"),
            ("1 1\n3 \uff11\n", "line 2: expected integer, got '\uff11'"),
            ("+-1 1\n1 1\n", "line 1: expected integer, got '+-1'"),
        ],
        ids=["empty", "no-jobs", "zero-weight", "underscore", "fullwidth-digit", "two-signs"],
    )
    def test_refused(self, text, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_instance(text)


class TestWrite:
    def test_demo_round_trip_bytes(self, demo):
        assert write_instance(demo) == DEMO_TEXT

    def test_single_job(self):
        inst = make_instance(1, [(3, 5)])
        assert write_instance(inst) == "1 1\n3 5\n"

    def test_round_trip_on_seeded_instances(self):
        for seed in range(100):
            inst = generate_instance(n=12, m=3, p_max=20, w_max=20, seed=seed)
            assert parse_instance(write_instance(inst)) == inst


class TestGenerate:
    def test_deterministic(self):
        a = generate_instance(30, 2, 20, 20, seed=99)
        b = generate_instance(30, 2, 20, 20, seed=99)
        assert write_instance(a) == write_instance(b)

    def test_full_value_coverage_at_large_n(self):
        inst = generate_instance(10000, 2, 20, 20, seed=7)
        assert {j.p for j in inst.jobs} == set(range(1, 21))
        assert {j.w for j in inst.jobs} == set(range(1, 21))

    def test_degenerate_range(self):
        inst = generate_instance(5, 2, 1, 1, seed=0)
        assert all((j.p, j.w) == (1, 1) for j in inst.jobs)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_instance(0, 1, 1, 1, seed=0)
        with pytest.raises(ValueError):
            generate_instance(1, 1, 0, 1, seed=0)


class TestWsptOrder:
    def test_demo_order(self, demo):
        assert list(demo.wspt_ids) == [1, 2, 3, 4]

    def test_tie_broken_by_smaller_id(self):
        inst = make_instance(1, [(2, 4), (1, 2)])
        assert list(inst.wspt_ids) == [1, 2]

    def test_higher_ratio_first(self):
        inst = make_instance(1, [(1, 1), (2, 4)])
        assert list(inst.wspt_ids) == [2, 1]

    def test_stable_total_order(self):
        inst = generate_instance(40, 2, 10, 10, seed=3)
        assert list(inst.wspt_ids) == list(inst.wspt_ids)

    def test_reversed_input_same_pw_sequence_up_to_ties(self):
        # distinct (p, w) pairs with equal w/p may swap under the id
        # tie-break, so equal-ratio runs compare as multisets
        def ratio_runs(inst):
            pw = [(inst.job(j).p, inst.job(j).w) for j in inst.wspt_ids]
            runs, current = [], [pw[0]]
            for prev, cur in zip(pw, pw[1:]):
                if prev[1] * cur[0] == cur[1] * prev[0]:
                    current.append(cur)
                else:
                    runs.append(sorted(current))
                    current = [cur]
            runs.append(sorted(current))
            return runs

        inst = generate_instance(15, 2, 10, 10, seed=5)
        rev = make_instance(2, [(j.p, j.w) for j in reversed(inst.jobs)])
        assert ratio_runs(inst) == ratio_runs(rev)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=14))
    def test_order_and_types_match_pairwise_reference(self, pw):
        # p, w in [1, 3] make equal ratios and equal (p, w) pairs common
        inst = make_instance(2, pw)
        assert list(inst.wspt_ids) == [j.id for j in reference_order(list(inst.jobs))]

        groups: dict[tuple[int, int], list[int]] = {}
        for job in inst.jobs:
            groups.setdefault((job.p, job.w), []).append(job.id)
        # a type ranks as a job with its (p, w) and its smallest member id
        reps = [Job(min(ids), p, w) for (p, w), ids in groups.items()]
        expected = [(t.p, t.w, tuple(sorted(groups[(t.p, t.w)]))) for t in reference_order(reps)]
        assert [(t.p, t.w, t.members) for t in group_job_types(inst)] == expected
        assert all(t.d == len(t.members) for t in group_job_types(inst))

    def test_cached_order_keeps_eq_and_hash(self):
        text = write_instance(generate_instance(20, 2, 3, 3, seed=4))
        read, fresh = parse_instance(text), parse_instance(text)
        assert read.wspt_ids is read.wspt_ids  # sorted once, then cached
        assert "wspt_ids" in vars(read) and "wspt_ids" not in vars(fresh)
        assert read.wspt_ranks is read.wspt_ranks
        assert [read.wspt_ranks[j] for j in read.wspt_ids] == list(range(read.n))
        assert read == fresh
        assert hash(read) == hash(fresh)
        assert repr(read) == repr(fresh)

    def test_single_machine_wspt_is_optimal(self):
        # exhaustive check of the sequencing rule on one machine
        for seed in range(8):
            inst = generate_instance(6, 1, 9, 9, seed=seed)
            best = min(
                evaluate_schedule(inst, Schedule(machines=(perm,)))
                for perm in permutations(range(1, 7))
            )
            wspt_val = evaluate_schedule(inst, Schedule(machines=(inst.wspt_ids,)))
            assert wspt_val == best


class TestJobTypes:
    def test_all_distinct(self, demo):
        types = group_job_types(demo)
        assert len(types) == 4
        assert all(t.d == 1 for t in types)

    def test_forced_merge(self):
        inst = make_instance(1, [(2, 4), (2, 4), (5, 7)])
        types = group_job_types(inst)
        assert [(t.p, t.w, t.d, t.members) for t in types] == [
            (2, 4, 2, (1, 2)),
            (5, 7, 1, (3,)),
        ]

    @pytest.mark.parametrize(
        "pw, expected",
        [
            ([(2, 2), (1, 1), (1, 1), (2, 2)], [(2, 2, (1, 4)), (1, 1, (2, 3))]),
            ([(1, 1), (2, 2), (2, 2), (1, 1)], [(1, 1, (1, 4)), (2, 2, (2, 3))]),
            ([(3, 6), (1, 1), (2, 2), (4, 8)], [(3, 6, (1,)), (4, 8, (4,)), (1, 1, (2,)), (2, 2, (3,))]),
        ],
    )
    def test_equal_ratio_types_by_smallest_member(self, pw, expected):
        types = group_job_types(make_instance(2, pw))
        assert [(t.p, t.w, t.members) for t in types] == expected

    def test_ten_copies(self):
        inst = make_instance(2, [(3, 3)] * 10)
        types = group_job_types(inst)
        assert len(types) == 1 and types[0].d == 10

    def test_members_reproduce_multiset(self):
        inst = generate_instance(30, 2, 5, 5, seed=11)
        types = group_job_types(inst)
        expanded = sorted((t.p, t.w) for t in types for _ in t.members)
        assert expanded == sorted((j.p, j.w) for j in inst.jobs)
        assert sum(t.d for t in types) == inst.n

    def test_types_in_wspt_order(self):
        inst = generate_instance(30, 2, 5, 5, seed=11)
        types = group_job_types(inst)
        for a, b in zip(types, types[1:]):
            assert a.w * b.p >= b.w * a.p


class TestEvaluate:
    def test_demo_optimal_value(self, demo):
        assert evaluate_schedule(demo, Schedule(machines=((1, 3, 4), (2,)))) == 67

    def test_two_job_arithmetic(self):
        inst = make_instance(1, [(2, 4), (1, 1)])
        assert evaluate_schedule(inst, Schedule(machines=((1, 2),))) == 4 * 2 + 1 * 3

    def test_demo_alternative_split(self, demo):
        assert evaluate_schedule(demo, Schedule(machines=((1, 2), (3, 4)))) == 73

    def test_duplicate_job_rejected(self, demo):
        with pytest.raises(ValidationError):
            evaluate_schedule(demo, Schedule(machines=((1, 1, 3, 4), (2,))))

    def test_missing_job_rejected(self, demo):
        with pytest.raises(ValidationError):
            evaluate_schedule(demo, Schedule(machines=((1, 3), (2,))))

    def test_machine_permutation_invariance(self, demo):
        a = evaluate_schedule(demo, Schedule(machines=((1, 3, 4), (2,))))
        b = evaluate_schedule(demo, Schedule(machines=((2,), (1, 3, 4))))
        assert a == b


class TestScheduleFile:
    def test_round_trip(self, demo):
        sched = Schedule(machines=((1, 3, 4), (2,)))
        text = write_schedule(demo, sched)
        assert text.splitlines()[0] == "objective 67"
        assert parse_schedule(text) == sched

    def test_empty_machine_line(self):
        inst = make_instance(2, [(3, 5)])
        sched = Schedule(machines=((1,), ()))
        text = write_schedule(inst, sched)
        assert "machine 2:" in text.splitlines()[2]
        assert parse_schedule(text) == sched

    def test_bad_line(self):
        with pytest.raises(ParseError):
            parse_schedule("objective 1\nnot a machine line\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("objective 1\nmachine 1: a\n", "line 2: job ids must be integers"),
            ("machine 1: 1\n", "schedule text needs an 'objective' line and machine lines"),
            ("objective 1\nmachine 1: 1_0\n", "line 2: job ids must be integers"),
            ("objective 1\nmachine 1: \uff11\n", "line 2: job ids must be integers"),
            # without its colon the line's jobs would be read as an empty machine
            ("objective 1\nmachine 1: 1\nmachine 2 2 3\n", "line 3: expected 'machine k: ...', got 'machine 2 2 3'"),
        ],
        ids=["non-integer-id", "no-objective", "underscore", "fullwidth-digit", "no-colon"],
    )
    def test_refused(self, text, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_schedule(text)


# comment lines, some that would read as data, and blank lines
COMMENTS = st.lists(st.sampled_from(["# note", "#", "  # 3 4", "#machine 1: 2", "# objective 9", ""]), max_size=2)


def with_comments(data, text: str) -> str:
    """``text`` with drawn comment and blank lines before, between and after its lines."""
    lines = []
    for line in [*text.splitlines(), None]:
        lines += data.draw(COMMENTS)
        if line is not None:
            lines.append(line)
    return "\n".join(lines) + "\n"


INSTANCES = st.builds(
    make_instance,
    st.integers(1, 6),
    st.lists(st.tuples(st.integers(1, 10**6), st.integers(1, 10**6)), min_size=1, max_size=10),
)


class TestRoundTrips:
    @settings(max_examples=100, deadline=None)
    @given(inst=INSTANCES, data=st.data())
    def test_instance_text_round_trip(self, inst, data):
        text = write_instance(inst)
        assert parse_instance(text) == inst
        assert parse_instance(with_comments(data, text)) == inst

    @settings(max_examples=100, deadline=None)
    @given(inst=INSTANCES, data=st.data())
    def test_schedule_text_round_trip(self, inst, data):
        # every job on a drawn machine, in a drawn order; m > n leaves machines empty
        order = data.draw(st.permutations(range(1, inst.n + 1)))
        where = data.draw(st.lists(st.integers(0, inst.m - 1), min_size=inst.n, max_size=inst.n))
        sched = Schedule(machines=tuple(tuple(j for j, k in zip(order, where) if k == i) for i in range(inst.m)))
        text = write_schedule(inst, sched)
        assert parse_schedule(text) == sched
        assert parse_schedule(with_comments(data, text)) == sched


class TestInvariants:
    def test_instance_rejects_bad_ids(self):
        with pytest.raises(ValidationError):
            Instance(n=2, m=1, jobs=(Job(1, 1, 1), Job(3, 1, 1)))

    def test_instance_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            make_instance(1, [(1, 0)])


class TestApprox:
    """Three significant digits as float formatting writes them, for
    numbers past the float range too."""

    @settings(max_examples=500)
    @given(st.integers(0, 2**53))
    def test_matches_float_formatting(self, value):
        # below 2**53 the float is exact, so both round the same number
        assert approx(value) == format(float(value), ".3g")

    @pytest.mark.parametrize(
        "num, den, text",
        [(6_500_000_000, 10**9, "6.5"), (6 * 10**9, 10**9, "6"), (1, 10**9, "1e-09"),
         (123, 10**5, "0.00123"), (999_500, 1, "1e+06"), (17_900_000, 1, "1.79e+07"),
         (3195, 10**9, "3.19e-06")],  # an exact half of the third digit, which the float rounds below
    )
    def test_fractions(self, num, den, text):
        assert approx(num, den) == text == format(num / den, ".3g")

    def test_past_the_float_range(self):
        assert approx(10**400) == "1e+400"
        assert approx(367 * 10**400, 10**9) == "3.67e+393"
        assert approx(2 * 10**5000 - 1) == "2e+5000"  # more digits than str() converts
        assert approx(2**1024) == "1.8e+308"  # the first power of two past the largest float
