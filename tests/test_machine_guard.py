"""The machine-count guard of the commands that build a schedule, the
swap-table and machine-pair guards of the local search, and every rate of
the guards' one table, ``instance.BYTES_PER``.

An instance whose m machines alone would take a schedule past
``instance.MAX_MODEL_BYTES`` is refused with exit 5 before anything per
machine is allocated. Each command runs in a child process under an
address-space limit and a timeout, so a regression fails the test instead
of exhausting the host's memory. A large m under the guard must still be
searched quickly, as the ILS only scans the machines that hold a job.
The search's guards are tested in-process against a lowered budget, so no
table near the real budget is allocated. Every rate is checked against
the peak RSS of commands far below the budget, on the shapes that measure
it, and a file that would reach the host's OOM killer is refused first.
"""

import os
import resource
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from arcsched import cli, instance
from arcsched.instance import BYTES_PER, generate_instance, write_instance, write_schedule

SRC = Path(__file__).resolve().parents[1] / "src"
SHIM = f"{sys.executable} {Path(__file__).parent / 'lp_shim.py'} {{model}} {{solution}}"
ADDRESS_SPACE = 1 << 30
HUGE = {  # m**n = 1e8 passes the oracle's own guard
    "m1e9": "2 1000000000\n3 1\n2 5\n",
    "m1e8": "1 100000000\n3 1\n",
}


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-m", "arcsched.cli", *argv],
        capture_output=True, text=True, timeout=60, env=env, preexec_fn=_limit_memory,
    )


def test_swap_tables_refused(tmp_path, capsys, monkeypatch):
    # 40 jobs on two machines: a pair of 20 + 20 jobs prices 400 job pairs
    need = 20 * 20 * BYTES_PER["swap-table entry"]
    path, out = tmp_path / "n40.txt", tmp_path / "out.sched"
    path.write_text(write_instance(generate_instance(40, 2, 9, 9, 1)), encoding="utf-8")
    argv = ["solve-heur", "--in", str(path), "--seed", "1", "--iters", "1", "--out", str(out)]
    monkeypatch.setattr(instance, "MAX_MODEL_BYTES", need - 1)
    assert cli.main(argv) == 5
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("refused: n = 40 jobs: the swap tables")
    assert not out.exists()
    monkeypatch.setattr(instance, "MAX_MODEL_BYTES", need)
    assert cli.main(argv) == 0
    assert out.exists()


def test_machine_pairs_refused(tmp_path, capsys, monkeypatch):
    # 40 jobs on 100 machines: 41 scanned machines keep their machine pairs,
    # priced far above the swap tables of 20 + 20 jobs
    tables, pairs = 20 * 20 * BYTES_PER["swap-table entry"], 41 * 41 * BYTES_PER["machine pair"]
    assert tables < pairs
    path, out = tmp_path / "n40.txt", tmp_path / "out.sched"
    path.write_text(write_instance(generate_instance(40, 100, 9, 9, 1)), encoding="utf-8")
    argv = ["solve-heur", "--in", str(path), "--seed", "1", "--iters", "1", "--out", str(out)]
    monkeypatch.setattr(instance, "MAX_MODEL_BYTES", pairs - 1)
    assert cli.main(argv) == 5
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("refused: 41 scanned machines: their machine pairs")
    assert not out.exists()
    monkeypatch.setattr(instance, "MAX_MODEL_BYTES", pairs)
    assert cli.main(argv) == 0
    assert out.exists()


# One command on 2 jobs, then on the shape, in one child: VmHWM after each (not
# ru_maxrss, which Linux counts with the RSS of the parent the child was forked
# from, here the test runner's), and the largest need a guard priced for the
# run. Every guard refuses through check_bytes, which the child wraps to record
PEAKS = """
import sys
from arcsched import cli, flowgraph, heuristic, instance, milp
needs = []
def record(need, what, check=instance.check_bytes):
    needs.append(need)
    check(need, what)
for module in (cli, flowgraph, heuristic, milp):
    assert module.check_bytes is instance.check_bytes
    module.check_bytes = record
for stem in ("small", "big"):
    needs.clear()
    code = cli.main([word.replace("{stem}", stem) for word in sys.argv[1:]])
    with open("/proc/self/status", encoding="ascii") as status:
        peak = next(line for line in status if line.startswith("VmHWM:")).split()[1]
    print("peak", code, int(peak) * 1024, max(needs, default=0))
"""

# a solver that answers 0 for every binary or integer variable of the LP file
ZERO_SOLVER = """
import sys
with open(sys.argv[1], encoding="utf-8") as model, open(sys.argv[2], "w", encoding="utf-8") as out:
    names = False
    for line in model:
        if line.strip() == "End":
            break
        if names:
            out.writelines(f"{name} 0\\n" for name in line.split())
        names = names or line.strip() in ("Binaries", "Generals")
"""

# each command with the exit status it ends with: the zero solver's answer
# violates the rows, so solve-external reads and checks a whole solution, then
# exits 4
COMMANDS = {
    "model-lp": (["model", "--out", "{stem}.out"], 0),
    "model-mps": (["model", "--format", "mps", "--out", "{stem}.out"], 0),
    "check": (["check", "--sched", "{stem}.sched"], 0),
    "solve-external": (["solve-external", "--solver-cmd", f"{sys.executable} solver.py {{model}} {{solution}}"], 4),
    "solve-heur": (["solve-heur", "--seed", "1", "--iters", "1", "--out", "{stem}.out"], 0),
}
EVERY = ("model-lp", "model-mps", "check", "solve-external")
MODEL = ("model-lp", "model-mps")
ONE_LONG_JOB = "1 3\n100000 1\n"  # T = p: p + 1 rows, as many as the nonzeros


def _grid(n: int, m: int) -> str:
    return write_instance(generate_instance(n, m, 100, 100, 1))


# The shapes that measure each rate of instance.BYTES_PER, at its worst where
# that is known: label, instance text, form and flags, commands
SHAPES = {
    "ti nonzero": [("n50-m2", _grid(50, 2), ["--form", "ti"], EVERY)],
    "ti row": [("one-long-job", ONE_LONG_JOB, ["--form", "ti"], EVERY)],
    "pti nonzero": [
        ("n30-m2", _grid(30, 2), ["--form", "pti"], MODEL),
        ("one-long-job", ONE_LONG_JOB, ["--form", "pti"], MODEL),
        ("n40-m1", _grid(40, 1), ["--form", "pti"], MODEL),
    ],
    "ciqp nonzero": [
        ("n200-m2", _grid(200, 2), ["--form", "ciqp"], ("model-lp",)),
        ("n500-m1", _grid(500, 1), ["--form", "ciqp"], ("model-lp",)),
    ],
    "flow nonzero": [
        ("af-n150-m2", _grid(150, 2), ["--form", "af"], EVERY),
        ("eaf-n150-m2", _grid(150, 2), ["--form", "eaf"], EVERY),
    ],
    # one type of 20,000 copies: a chain of as many nodes as jobs
    "flow job": [("unit-chain", "20000 1\n" + "1 1\n" * 20000, ["--form", "eaf", "--no-windows"], EVERY)],
    # two machines keep one pair, of 150 + 150 jobs
    "swap-table entry": [("n300-m2", _grid(300, 2), [], ("solve-heur",))],
    # 300 one-job machines and the first empty one
    "machine pair": [("n300-m1e5", _grid(300, 10**5), [], ("solve-heur",))],
    "machine": [("n2-m1e5", "2 100000\n3 1\n2 5\n", [], ("solve-heur",))],
}


def list_schedule(inst: instance.Instance) -> instance.Schedule:
    """Jobs in WSPT order, each to the least loaded machine."""
    loads, machines = [0] * inst.m, [[] for _ in range(inst.m)]
    for j in inst.wspt_ids:
        k = loads.index(min(loads))
        loads[k] += inst.job(j).p
        machines[k].append(j)
    return instance.Schedule(tuple(map(tuple, machines)))


def _measure(directory: Path, argv: list[str]) -> tuple[int, int, int]:
    """The exit status of ``argv`` on the shape, its peak RSS less the 2-job
    run's, and the largest need a guard priced for the shape."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    res = subprocess.run([sys.executable, "-c", PEAKS, *argv], capture_output=True, text=True, cwd=directory,
                         timeout=120, env=env, preexec_fn=_limit_memory)
    assert res.returncode == 0, res.stderr
    (_, base, _), (code, peak, need) = (map(int, line.split()[1:]) for line in res.stdout.splitlines()
                                        if line.startswith("peak "))
    return code, peak - base, need


@pytest.fixture(scope="module")
def measured(tmp_path_factory) -> dict[str, list]:
    """Every shape's commands, run two children at a time: per rate, the
    (shape, command, expected status, status, peak over the base, need)."""
    runs = []
    for entry, shapes in SHAPES.items():
        for label, text, flags, commands in shapes:
            directory = tmp_path_factory.mktemp(entry.replace(" ", "-") + "-" + label)
            (directory / "solver.py").write_text(ZERO_SOLVER, encoding="utf-8")
            for stem, inst in (("small", generate_instance(2, 2, 100, 100, 1)), ("big", instance.parse_instance(text))):
                (directory / f"{stem}.txt").write_text(write_instance(inst), encoding="utf-8")
                if "check" in commands:
                    sched = write_schedule(inst, list_schedule(inst))
                    (directory / f"{stem}.sched").write_text(sched, encoding="utf-8")
            for command in commands:
                words, status = COMMANDS[command]
                argv = [words[0], "--in", "{stem}.txt", *flags, *words[1:]]
                runs.append((entry, label, command, status, directory, argv))
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda run: _measure(*run[4:]), runs))
    found = {}
    for (entry, label, command, status, _, _), result in zip(runs, results):
        found.setdefault(entry, []).append((label, command, status, *result))
    return found


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("entry", BYTES_PER, ids=lambda entry: entry.replace(" ", "-"))
def test_guard_prices_above_the_peak(entry, measured):
    # each rate's shapes run each of their commands in a child, after the same
    # command on 2 jobs: the peak RSS less the 2-job run's stays below the
    # largest need a guard priced for the shape
    assert entry in SHAPES, f"no shape measures the {entry} rate"
    _assert_below(measured[entry])


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("form", ["af", "eaf"])
def test_flow_guard_prices_above_the_peak(form, measured):
    # the form's own shape among the flow nonzero rate's, under every command
    runs = [run for run in measured["flow nonzero"] if run[0].startswith(f"{form}-")]
    assert [command for _, command, *_ in runs] == list(EVERY)
    _assert_below(runs)


def _assert_below(runs: list) -> None:
    for label, command, status, code, over, need in runs:
        assert code == status, (label, command, code)
        assert over < need, (label, command, over, need)


def test_one_long_job_refused_before_the_build(tmp_path):
    # ti's n + T rows are priced with its nonzeros: 1.1e7 rows at its row rate
    # pass the budget, so the MPS write that would take about 13 GB (OOM-killed
    # at 7.7 GB on an 8 GB host, priced at 1.56 GB by its nonzeros alone) is
    # refused before the build, within the child's 1 GB
    path, out = tmp_path / "long.txt", tmp_path / "long.mps"
    path.write_text("1 3\n11000000 1\n", encoding="utf-8")
    res = run_cli("model", "--in", str(path), "--form", "ti", "--format", "mps", "--out", str(out))
    assert (res.returncode, res.stdout) == (5, ""), res.stderr[-2000:]
    assert res.stderr.startswith("refused: form ti model may hold 1.1e+07 nonzeros, about ")
    assert not out.exists()


@pytest.mark.parametrize(
    "text, argv",
    [
        # m = 10**400 machines, and one job of p = 10**400: byte needs past the float range
        (f"1 1{'0' * 400}\n1 1\n", ["solve-heur", "--seed", "1"]),
        (f"1 1\n1{'0' * 400} 1\n", ["model", "--form", "ti"]),
    ],
)
def test_huge_integers_refused(tmp_path, text, argv):
    path, out = tmp_path / "huge.txt", tmp_path / "out"
    path.write_text(text, encoding="utf-8")
    res = run_cli(argv[0], "--in", str(path), *argv[1:], "--out", str(out))
    assert (res.returncode, res.stdout) == (5, ""), res.stderr
    assert res.stderr.startswith("refused: ") and res.stderr.endswith(" GB, above the model guard of 6 GB\n")
    assert not out.exists()


@pytest.fixture
def huge(tmp_path) -> dict[str, str]:
    paths = {}
    for label, text in HUGE.items():
        path = tmp_path / f"{label}.txt"
        path.write_text(text, encoding="utf-8")
        paths[label] = str(path)
    return paths


@pytest.mark.parametrize(
    "label, command, flags",
    [
        ("m1e9", "solve-heur", ["--seed", "1"]),
        ("m1e8", "solve-exact", []),
        ("m1e9", "solve-exact", []),
        *(("m1e9", "solve-external", ["--form", form, "--solver-cmd", SHIM]) for form in ("ti", "af", "eaf")),
    ],
)
def test_huge_machine_count_refused(huge, tmp_path, label, command, flags):
    out = tmp_path / "out.sched"
    res = run_cli(command, "--in", huge[label], *flags, "--out", str(out))
    m = HUGE[label].split()[1]
    assert (res.returncode, res.stdout) == (5, "")
    assert res.stderr.startswith(f"refused: m = {m} machines need about"), res.stderr
    assert not out.exists()


def test_large_machine_count_searched(tmp_path):
    # m = 1e5 is under the guard; the ILS scans only the occupied machines
    # and the first empty one, so two jobs take well under a second here
    path, out = tmp_path / "m1e5.txt", tmp_path / "out.sched"
    path.write_text("2 100000\n3 1\n2 5\n", encoding="utf-8")
    res = run_cli("solve-heur", "--in", str(path), "--seed", "1", "--iters", "1", "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "objective 13" and len(lines) == 1 + 100000


@pytest.mark.parametrize("label", sorted(HUGE))
def test_huge_machine_count_still_modelled(huge, tmp_path, label):
    for argv in (
        ["model", "--form", "ti", "--out", str(tmp_path / "ti.lp")],
        ["model", "--form", "eaf", "--out", str(tmp_path / "eaf.lp")],
        ["bounds"],
    ):
        res = run_cli(argv[0], "--in", huge[label], *argv[1:])
        assert res.returncode == 0, (argv, res.stderr)
