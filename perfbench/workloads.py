"""Seeded inputs, command lists and output checks of the three workloads.

Instances are drawn from the workload seed by stratified sampling: each of
p and w takes one value from each of n equal slices of [1, top], in a
seeded random order. Every value is still uniform on [1, top], but the
sums of p and w barely move between seeds. Model sizes grow with the
square of the sum of p (ti nonzeros are about sum p_j (T - p_j)), so plain
uniform draws would spread run times by more than the benchmark's bounds.

Why these workloads:
- emit: ``arcsched model`` for every formulation. Nearly all the time is
  model build plus LP/MPS text; MPS text is more than half of an af or eaf
  MPS command. ti at n=50 sets the peak RSS. The heuristic never runs.
- search: ``arcsched solve-heur`` with a fixed iteration budget. ILS does
  over 95% of the work and no model is built; the fixed budget keeps the
  trajectory, and so the best objective, deterministic.
- verify: the same layers in read mode (schedule-to-valuation mapping,
  exact Fraction checks, flow decomposition), the brute-force oracle, the
  external-solver round trip, and one command the oracle must refuse.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from outputs import (
    count_dot,
    count_lp,
    count_mps,
    list_schedule,
    read_schedule,
    schedule_value,
    stdout_fields,
    write_instance,
    write_schedule,
)

SOLVER_CMD = "python3 tests/lp_shim.py {model} {solution}"

# search: eight n=50, m=4 instances, 16 ILS iterations each, about 2.2 s a
# run on a 2-core host. An ILS run's work (the number of neighbourhood
# scans its descents make) differs by about 10% between instances, so
# several runs average it out. n=100 is left out: there the first descent
# alone differs by 24% in work between instances (3-12 s), which spread
# wall_s over ten seeds by more than its 25% bound.
SEARCH_ITERS = 16
SEARCH_LABELS = [f"h50{c}" for c in "abcdefgh"]


@dataclass
class Result:
    """One command's outcome within a pass."""

    key: str
    rc: int
    wall_s: float
    rss_kb: int
    stdout: str
    stderr: str
    outcome: str = "ok"  # ok | refusal | fail
    ref_s: float = 0.0  # wall_s at the reference host speed, see run.py
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    info: dict = field(default_factory=dict)


@dataclass
class Command:
    key: str
    argv: list[str]  # after ``arcsched``; "{out}" is the pass's output dir
    outputs: list[str]  # files under {out} whose digests must repeat
    check: Callable[[Result, Path], None]
    refusal: bool = False  # expected to exit 5


@dataclass
class Workload:
    name: str
    commands: list[Command]
    warmup: list[list[str]]
    pass_s: float  # nominal seconds per pass on a 2-core host
    # checks across the commands of one pass; appends to Result.problems
    cross_check: Callable[[dict[str, Result]], None] = lambda results: None


@dataclass(frozen=True)
class Shape:
    n: int
    m: int
    top: int  # p and w are drawn from [1, top]


def stratified_jobs(seed: int, label: str, shape: Shape) -> list[tuple[int, int]]:
    rng = random.Random(f"arcsched-bench/{seed}/{label}")

    def column() -> list[int]:
        values = [1 + int((k + rng.random()) * shape.top / shape.n) for k in range(shape.n)]
        rng.shuffle(values)
        return values

    return list(zip(column(), column()))


def _instances(in_dir: Path, seed: int, shapes: dict[str, Shape]) -> dict:
    jobs = {}
    for label, shape in shapes.items():
        jobs[label] = stratified_jobs(seed, label, shape)
        write_instance(in_dir / f"{label}.txt", shape.m, jobs[label])
    return jobs


def _int_field(res: Result, key: str) -> int | None:
    value = stdout_fields(res.stdout).get(key)
    if value is None or not value.lstrip("-").isdigit():
        res.problems.append(f"report has no integer {key!r}")
        return None
    return int(value)


def _check_schedule(res: Result, path: Path, m: int, jobs, want: int | None) -> None:
    """The schedule file partitions the jobs, its objective line is right,
    and it equals ``want`` (the objective the CLI reported)."""
    try:
        stated, machines = read_schedule(path)
        value = schedule_value(m, jobs, machines)
    except (OSError, ValueError) as exc:
        res.problems.append(f"schedule {path.name}: {exc}")
        return
    if stated != value:
        res.problems.append(f"schedule {path.name} states {stated}, evaluates to {value}")
    if want is not None and want != value:
        res.problems.append(f"reported objective {want}, schedule evaluates to {value}")


# ---------------------------------------------------------------------------
# emit


def _model_check(label: str, fmt: str, dot: bool, counted: dict):
    """Check a model command; ``counted`` caches file counts by digest, as
    later passes write the same files (run.py checks that they do)."""

    def check(res: Result, out: Path) -> None:
        variables = _int_field(res, "variables")
        path = out / f"{label}.{fmt}"
        digest = res.digests.get(path.name)
        if digest not in counted:
            try:
                counted[digest] = count_mps(path) if fmt == "mps" else count_lp(path)
            except OSError as exc:
                res.problems.append(f"cannot read {path.name}: {exc}")
                return
        columns, nnz = counted[digest]
        # the objective constant is carried by one extra fixed column, ONE
        if variables is not None and columns not in (variables, variables + 1):
            res.problems.append(f"report says {variables} variables, {path.name} has {columns}")
        res.info.update(model=label.split("_")[0], columns=columns, nnz=nnz, fmt=fmt)
        if dot:
            nodes, arcs = count_dot(out / f"{label}.dot")
            reported = [_int_field(res, key) for key in ("nodes", "job_arcs", "loss_arcs")]
            if None not in reported and (nodes, arcs) != (reported[0], reported[1] + reported[2]):
                res.problems.append(f"DOT has {nodes} nodes and {arcs} arcs; report says {reported}")

    return check


def emit(in_dir: Path, seed: int) -> Workload:
    _instances(in_dir, seed, {
        "e100": Shape(100, 2, 100),
        "e50": Shape(50, 2, 100),
        "e30": Shape(30, 2, 20),
    })
    plan = [  # (instance, form, format, with DOT)
        ("e100", "af", "lp", False),
        ("e100", "af", "mps", False),
        ("e100", "eaf", "lp", True),
        ("e100", "eaf", "mps", False),
        ("e50", "ti", "lp", False),
        ("e30", "pti", "lp", False),
        ("e30", "pti", "mps", False),
        ("e100", "ciqp", "lp", False),
    ]
    commands = []
    counted: dict = {}
    for inst, form, fmt, dot in plan:
        label = f"{form}_{inst}"
        argv = ["model", "--in", str(in_dir / f"{inst}.txt"), "--form", form,
                "--format", fmt, "--out", f"{{out}}/{label}.{fmt}"]
        outputs = [f"{label}.{fmt}"]
        if dot:
            argv += ["--dot", f"{{out}}/{label}.dot"]
            outputs.append(f"{label}.dot")
        commands.append(Command(f"model {form} {inst} {fmt}", argv, outputs, _model_check(label, fmt, dot, counted)))
    return Workload("emit", commands, [["bounds", "--in", str(in_dir / "e30.txt")]], pass_s=16)


def model_totals(results: list[Result]) -> tuple[int, int]:
    """Variables and nonzeros over the distinct emitted models; a model
    written as MPS is counted from the MPS file, else from its LP file."""
    per_model = {}
    for res in results:
        if "model" in res.info and (res.info["fmt"] == "mps" or res.info["model"] not in per_model):
            per_model[res.info["model"]] = (res.info["columns"], res.info["nnz"])
    return sum(c for c, _ in per_model.values()), sum(z for _, z in per_model.values())


# ---------------------------------------------------------------------------
# search


def search(in_dir: Path, seed: int) -> Workload:
    shape = Shape(50, 4, 100)
    jobs = _instances(in_dir, seed, {label: shape for label in SEARCH_LABELS})
    commands = []
    for label in SEARCH_LABELS:
        def check(res: Result, out: Path, label=label) -> None:
            objective = _int_field(res, "objective")
            done = _int_field(res, "iterations")
            if done is not None and done != SEARCH_ITERS:
                res.problems.append(f"ran {done} iterations, budget {SEARCH_ITERS}")
            _check_schedule(res, out / f"{label}.sched", shape.m, jobs[label], objective)
            res.info.update(objective=objective, iterations=done)

        argv = ["solve-heur", "--in", str(in_dir / f"{label}.txt"), "--seed", str(seed),
                "--iters", str(SEARCH_ITERS), "--out", f"{{out}}/{label}.sched"]
        commands.append(Command(f"solve-heur {label}", argv, [f"{label}.sched"], check))
    return Workload("search", commands, [["bounds", "--in", str(in_dir / "h50a.txt")]], pass_s=19)


# ---------------------------------------------------------------------------
# verify


def verify(in_dir: Path, seed: int) -> Workload:
    shapes = {
        "v100": Shape(100, 2, 100),
        "v50": Shape(50, 2, 20),
        "x20": Shape(20, 2, 20),
        # the oracle's pruning makes its time at this shape vary by 40%
        # between instances; one such instance keeps that a small share
        "x16": Shape(16, 3, 20),
        "g30": Shape(30, 2, 20),  # 2**30 assignments: beyond the oracle's guard
        "w4": Shape(4, 2, 5),  # warm-up only
    }
    jobs = _instances(in_dir, seed, shapes)
    greedy = {}
    for label in ("v100", "v50"):
        machines = list_schedule(shapes[label].m, jobs[label])
        write_schedule(in_dir / f"{label}.sched", shapes[label].m, jobs[label], machines)
        greedy[label] = schedule_value(shapes[label].m, jobs[label], machines)

    def check_cmd(label: str, form: str) -> Command:
        def check(res: Result, out: Path) -> None:
            fields = stdout_fields(res.stdout)
            if fields.get("feasible") != "True":
                res.problems.append(f"schedule reported infeasible: {fields.get('violated', '')}")
            objective = _int_field(res, "objective")
            if objective is not None and objective != greedy[label]:
                res.problems.append(f"check objective {objective}, schedule value {greedy[label]}")

        argv = ["check", "--in", str(in_dir / f"{label}.txt"), "--sched", str(in_dir / f"{label}.sched"), "--form", form]
        return Command(f"check {form} {label}", argv, [], check)

    def exact_cmd(label: str) -> Command:
        def check(res: Result, out: Path) -> None:
            objective = _int_field(res, "objective")
            _check_schedule(res, out / f"exact_{label}.sched", shapes[label].m, jobs[label], objective)
            res.info["optimum"] = objective

        argv = ["solve-exact", "--in", str(in_dir / f"{label}.txt"), "--out", f"{{out}}/exact_{label}.sched"]
        return Command(f"solve-exact {label}", argv, [f"exact_{label}.sched"], check)

    def external_cmd(form: str) -> Command:
        def check(res: Result, out: Path) -> None:
            objective = _int_field(res, "objective")
            solver = _int_field(res, "solver_objective")
            if None not in (objective, solver) and objective != solver:
                res.problems.append(f"decoded objective {objective}, solver objective {solver}")
            _check_schedule(res, out / f"ext_{form}.sched", shapes["x20"].m, jobs["x20"], objective)
            res.info["optimum"] = objective

        argv = ["solve-external", "--in", str(in_dir / "x20.txt"), "--form", form,
                "--solver-cmd", SOLVER_CMD, "--out", f"{{out}}/ext_{form}.sched"]
        return Command(f"solve-external {form} x20", argv, [f"ext_{form}.sched"], check)

    def guard_check(res: Result, out: Path) -> None:
        if not res.stderr.startswith("refused:"):
            res.problems.append("exit 5 without a 'refused:' message")

    commands = [
        check_cmd("v100", "eaf"),
        check_cmd("v100", "af"),
        check_cmd("v50", "ti"),
        exact_cmd("x20"),
        exact_cmd("x16"),
        *(external_cmd(form) for form in ("eaf", "af", "ti")),
        Command("solve-exact g30", ["solve-exact", "--in", str(in_dir / "g30.txt"), "--out", "{out}/exact_g30.sched"],
                [], guard_check, refusal=True),
    ]

    def cross_check(results: dict[str, Result]) -> None:
        exact = results["solve-exact x20"].info.get("optimum")
        for form in ("eaf", "af", "ti"):
            res = results[f"solve-external {form} x20"]
            got = res.info.get("optimum")
            if exact is None or got != exact:
                res.problems.append(f"objective {got}, oracle optimum {exact}")

    warmup = [
        ["bounds", "--in", str(in_dir / "w4.txt")],
        ["solve-external", "--in", str(in_dir / "w4.txt"), "--form", "eaf", "--solver-cmd", SOLVER_CMD],
    ]
    return Workload("verify", commands, warmup, pass_s=14, cross_check=cross_check)


WORKLOADS = {"emit": emit, "search": search, "verify": verify}
