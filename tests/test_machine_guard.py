"""The machine-count guard of the commands that build a schedule, the
swap-table and machine-pair guards of the local search, and the rate of
the flow build's guard.

An instance whose m machines alone would take a schedule past
``instance.MAX_MODEL_BYTES`` is refused with exit 5 before anything per
machine is allocated. Each command runs in a child process under an
address-space limit and a timeout, so a regression fails the test instead
of exhausting the host's memory. A large m under the guard must still be
searched quickly, as the ILS only scans the machines that hold a job.
The search's guards are tested in-process against a lowered budget, so no
table near the real budget is allocated, and their rates, like the flow
build's, against the peak RSS of commands far below it.
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from arcsched import cli, flowgraph, heuristic, instance
from arcsched.instance import generate_instance, write_instance, write_schedule

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
    need = 20 * 20 * heuristic.BYTES_PER_PAIR_ENTRY
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
    tables, pairs = 20 * 20 * heuristic.BYTES_PER_PAIR_ENTRY, 41 * 41 * heuristic.BYTES_PER_PAIR
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


# VmHWM, not ru_maxrss: Linux counts in a child's ru_maxrss the RSS of the
# parent it was forked from, here the test runner's
PEAKS = """
import sys
from arcsched import cli
for path in sys.argv[1:]:
    assert cli.main(["solve-heur", "--in", path, "--seed", "1", "--iters", "1", "--out", path + ".sched"]) == 0
    with open("/proc/self/status", encoding="ascii") as status:
        print(next(line for line in status if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_search_guards_price_above_the_peak(tmp_path, monkeypatch):
    # one child searches 2 jobs, then 300 jobs on two machines (the swap tables)
    # and on 10**5 (300 one-job machines: the machine pairs); each search's peak
    # RSS, less the 2-job search's, stays below what check_size prices for it
    insts = [generate_instance(n, m, 100, 100, 1) for n, m in ((2, 2), (300, 2), (300, 10**5))]
    paths = [tmp_path / f"i{k}.txt" for k in range(len(insts))]
    for path, inst in zip(paths, insts):
        path.write_text(write_instance(inst), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    res = subprocess.run([sys.executable, "-c", PEAKS, *map(str, paths)], capture_output=True, text=True,
                         timeout=60, env=env, preexec_fn=_limit_memory)
    assert res.returncode == 0, res.stderr
    base, *peaks = (int(line.split()[1]) * 1024 for line in res.stdout.splitlines() if line.startswith("VmHWM:"))
    for inst, peak in zip(insts[1:], peaks):
        needs = []
        monkeypatch.setattr(heuristic, "check_bytes", lambda need, what: needs.append(need))
        heuristic.check_size(inst)
        assert peak - base < sum(needs), (inst.n, inst.m)


# one command on 2 jobs, then on the instance under test; VmHWM after each
FLOW_PEAKS = """
import sys
from arcsched import cli
argv = sys.argv[1:]
for stem in ("small", "big"):
    code = cli.main([word.replace("{stem}", stem) for word in argv])
    with open("/proc/self/status", encoding="ascii") as status:
        print("peak", code, next(line for line in status if line.startswith("VmHWM:")).split()[1])
"""

# a solver that answers 0 for every integer variable of the LP file
ZERO_SOLVER = """
import sys
with open(sys.argv[1], encoding="utf-8") as model, open(sys.argv[2], "w", encoding="utf-8") as out:
    names = False
    for line in model:
        if line.strip() == "End":
            break
        if names:
            out.writelines(f"{name} 0\\n" for name in line.split())
        names = names or line.strip() == "Generals"
"""


def list_schedule(inst: instance.Instance) -> instance.Schedule:
    """Jobs in WSPT order, each to the least loaded machine."""
    loads, machines = [0] * inst.m, [[] for _ in range(inst.m)]
    for j in inst.wspt_ids:
        k = loads.index(min(loads))
        loads[k] += inst.job(j).p
        machines[k].append(j)
    return instance.Schedule(tuple(map(tuple, machines)))


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("form", ["af", "eaf"])
def test_flow_guard_prices_above_the_peak(form, tmp_path):
    # each command runs in its own child, after the same command on 2 jobs;
    # its peak RSS less the 2-job run's stays below what the build's guard
    # prices for the model, its nonzeros at flowgraph.BYTES_PER_NONZERO. The
    # solver answers 0 everywhere, so solve-external reads and checks a whole
    # solution, then exits 4 on the rows it violates
    for stem, n in (("small", 2), ("big", 150)):
        inst = generate_instance(n, 2, 100, 100, 1)
        (tmp_path / f"{stem}.txt").write_text(write_instance(inst), encoding="utf-8")
        (tmp_path / f"{stem}.sched").write_text(write_schedule(inst, list_schedule(inst)), encoding="utf-8")
    (tmp_path / "solver.py").write_text(ZERO_SOLVER, encoding="utf-8")
    given = ["--in", str(tmp_path / "{stem}.txt"), "--form", form]
    out = str(tmp_path / "{stem}.out")
    commands = [
        (["model", *given, "--out", out], 0),
        (["model", *given, "--format", "mps", "--out", out], 0),
        (["check", *given, "--sched", str(tmp_path / "{stem}.sched")], 0),
        (["solve-external", *given, "--solver-cmd", f"{sys.executable} {tmp_path / 'solver.py'} {{model}} {{solution}}"],
         4),
    ]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    nonzeros = None
    for argv, status in commands:
        res = subprocess.run([sys.executable, "-c", FLOW_PEAKS, *argv], capture_output=True, text=True,
                             timeout=120, env=env, preexec_fn=_limit_memory)
        assert res.returncode == 0, res.stderr
        nonzeros = nonzeros or int(res.stdout.split("nonzeros: ")[-1].split()[0])
        (_, base), (code, peak) = (line.split()[1:] for line in res.stdout.splitlines() if line.startswith("peak "))
        assert int(code) == status, (argv[0], res.stdout)
        assert (int(peak) - int(base)) * 1024 < nonzeros * flowgraph.BYTES_PER_NONZERO, (argv, peak, base, nonzeros)


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
