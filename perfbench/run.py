#!/usr/bin/env python3
"""arcsched benchmark: closed-loop CLI workloads with an optional traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload emit|search|verify --seed N \
        --seconds S --trace 0|1

One client sends one command at a time; each command is its own
``python3 -m arcsched.cli`` process, timed from spawn to exit, with its
peak RSS read from ``os.wait4``. The workload's inputs come from --seed
and are written, together with the verify schedules, at set-up; set-up
runs three times and its median is reported. A pass runs the workload's
fixed command list once. With --trace 0 the run makes as many passes as
the workload's nominal pass time fits into --seconds (at least one), and
reports the end-to-end metrics; wall_ref_s sums each command's fastest
time over the passes, scaled to a reference host speed (PROBE_REF_S). With
--trace 1 the run makes one untraced pass and one traced pass, in which each command runs ``cli.main(argv)`` in a child with the
wrappers of trace_child.py installed, and reports the per-layer metrics.

Every command's output is checked: exit code 0 is ok, 5 a refusal (ok
only where one is expected), anything else or a traceback a failure.
Output files must hash the same in every pass, traced or not. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import outputs
from layers import PER_LAYER, SpanTotals, top_spans
from workloads import WORKLOADS, Command, Result, Workload, model_totals

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s
EXIT_REFUSED = 5

# On the shared 2-core VM of BASELINE.md, host speed drifted: the same
# commands ran 1.6 times slower in one run than in the next, all of them
# alike. So before and after every command the run times a fixed
# pure-Python probe in its own interpreter, and scales the command's time
# to the speed at which the probe takes PROBE_REF_S (about its time on that
# VM when quiet): ref_s = wall_s * PROBE_REF_S / probe_s. The probe uses
# nothing of arcsched, so a change to arcsched moves ref_s as it moves
# wall_s.
PROBE_REF_S = 0.23
PROBE_CODE = """
d = {}
for i in range(200_000):
    d[f"x_{i % 997}_{i}"] = i * 3
if len(sorted(d)) != 200_000:
    raise SystemExit(1)
"""


class Runner:
    """Spawns CLI processes inside the run's work directory."""

    def __init__(self, work: Path, t_start: float):
        self.work = work
        self.deadline = t_start + RUN_LIMIT_S
        tmp = work / "tmp"
        tmp.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp))
        self.seq = 0

    def probe(self) -> float:
        """Seconds from spawn to exit of the speed probe."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", PROBE_CODE], cwd=self.work, check=True, timeout=60)
        return time.perf_counter() - t0

    def run(self, key: str, argv: list[str], spans: Path | None = None) -> Result:
        """Run ``arcsched argv``; with ``spans`` in-process under tracing."""
        self.seq += 1
        out_path = self.work / f"cmd{self.seq}.out"
        err_path = self.work / f"cmd{self.seq}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            if spans is None:
                cmd = [sys.executable, "-m", "arcsched.cli", *argv]
            else:
                cmd = [sys.executable, str(HERE / "trace_child.py"), str(spans), repr(t0), "--", *argv]
            # own process group, so that a timeout also ends the solver
            # subprocess that solve-external starts
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=out, stderr=err, start_new_session=True)
            timer = threading.Timer(max(1.0, self.deadline - time.perf_counter()),
                                    os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
        res = Result(key, proc.returncode, wall, usage.ru_maxrss,
                     out_path.read_text(encoding="utf-8", errors="replace"),
                     err_path.read_text(encoding="utf-8", errors="replace"))
        out_path.unlink()
        err_path.unlink()
        return res


def classify(res: Result, cmd: Command) -> None:
    """Set ``res.outcome`` from its exit code, stderr and output problems."""
    tail = res.stderr.strip()[-300:]
    if "Traceback (most recent call last)" in res.stderr:
        res.problems.append(f"traceback, exit {res.rc}: {tail}")
    elif res.rc == EXIT_REFUSED and not cmd.refusal:
        res.problems.append(f"unexpected refusal: {tail}")
    elif res.rc not in (0, EXIT_REFUSED):
        res.problems.append(f"exit {res.rc}: {tail}")
    elif cmd.refusal and res.rc != EXIT_REFUSED:
        res.problems.append(f"exit {res.rc} where a refusal (exit 5) was expected")
    res.outcome = "fail" if res.problems else ("refusal" if cmd.refusal else "ok")


def run_pass(wl: Workload, runner: Runner, out: Path, traced: bool) -> dict[str, Result]:
    out.mkdir()
    results = {}
    spans_dir = out / "spans"
    spans_dir.mkdir()
    probe = runner.probe()
    for i, cmd in enumerate(wl.commands):
        argv = [a.replace("{out}", str(out)) for a in cmd.argv]
        spans = spans_dir / f"{i}.json" if traced else None
        res = runner.run(cmd.key, argv, spans)
        probe_before, probe = probe, runner.probe()
        res.ref_s = res.wall_s * 2 * PROBE_REF_S / (probe_before + probe)
        classify(res, cmd)
        if not res.problems:
            for name in cmd.outputs:
                path = out / name
                if path.exists():
                    res.digests[name] = outputs.file_digest(path)
                else:
                    res.problems.append(f"no output file {name}")
        if not res.problems:
            cmd.check(res, out)
        if traced:
            try:
                res.info["spans"] = json.loads(spans.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                res.problems.append(f"no span record: {exc}")
        for path in out.glob("*.*"):  # emitted models reach 40 MB; keep one at a time
            path.unlink()
        results[cmd.key] = res
    wl.cross_check(results)
    for res in results.values():
        if res.problems:
            res.outcome = "fail"
    shutil.rmtree(out)
    return results


def compare_passes(first: dict[str, Result], later: dict[str, Result], what: str) -> None:
    for key, res in later.items():
        if res.digests != first[key].digests and not res.problems:
            res.problems.append(f"outputs differ from the {what}")
            res.outcome = "fail"


def setup(name: str, work: Path, seed: int, runner: Runner) -> tuple[Workload, list[float], list[Result]]:
    """Write the seeded inputs and warm up, SETUP_REPEATS times; returns
    each set-up's time at the reference speed."""
    times, warm = [], []
    probe = runner.probe()
    for _ in range(SETUP_REPEATS):
        in_dir = work / "inputs"
        shutil.rmtree(in_dir, ignore_errors=True)
        t0 = time.perf_counter()
        in_dir.mkdir()
        wl = WORKLOADS[name](in_dir, seed)
        for argv in wl.warmup:
            res = runner.run("warm-up " + argv[0], argv)
            classify(res, Command(res.key, argv, [], lambda r, o: None))
            warm.append(res)
        elapsed = time.perf_counter() - t0
        probe_before, probe = probe, runner.probe()
        times.append(elapsed * 2 * PROBE_REF_S / (probe_before + probe))
    return wl, times, warm


def pass_wall(results: dict[str, Result], ref: bool = False) -> float:
    return sum(r.ref_s if ref else r.wall_s for r in results.values())


def workload_numbers(name: str, results: dict[str, Result]) -> dict[str, tuple[float, str]]:
    """The metrics that apply to one workload only, from an untraced pass."""
    if name == "search":
        runs = list(results.values())
        iters = sum(r.info.get("iterations") or 0 for r in runs)
        return {
            "ils_iters_per_s": (iters / sum(r.wall_s for r in runs), "it/s"),
            "ils_best": (sum(r.info.get("objective") or 0 for r in runs), "objective"),
        }
    if name == "emit":
        variables, nnz = model_totals(list(results.values()))
        return {"model_vars": (variables, "count"), "model_nnz": (nnz, "count")}
    return {}


def report(attempted: list[Result], metrics: dict[str, tuple[float, str]], extra_lines: list[str]) -> None:
    failed = [r for r in attempted if r.outcome == "fail"]
    for line in extra_lines:
        print(line)
    print(f"fail_ratio: {len(failed)}/{len(attempted)} = {len(failed) / len(attempted):.4f} failed/attempted")
    print(f"refusals: {sum(r.outcome == 'refusal' for r in attempted)} (expected ones are not failures)")
    for res in failed:
        print(f"FAILED {res.key}: {'; '.join(res.problems)}")
    result = {
        "correct": not failed,
        "attempted": len(attempted),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for needed in (ROOT / "src" / "arcsched" / "cli.py", ROOT / "tests" / "lp_shim.py"):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} not found; run from an arcsched checkout", file=sys.stderr)
            return 2

    t_start = time.perf_counter()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(work, t_start)
        wl, setup_times, attempted = setup(args.workload, work, args.seed, runner)
        lines = [f"workload {args.workload} seed {args.seed}: {len(wl.commands)} commands per pass"]
        if args.trace:
            plain = run_pass(wl, runner, work / "pass0", traced=False)
            traced = run_pass(wl, runner, work / "pass1", traced=True)
            compare_passes(plain, traced, "untraced pass")
            attempted += [*plain.values(), *traced.values()]
            totals = SpanTotals()
            for res in traced.values():
                if "spans" in res.info:
                    totals.add(res.info["spans"])
            values = totals.metrics()
            values["trace.overhead_s"] = pass_wall(traced, ref=True) - pass_wall(plain, ref=True)
            values.update({k: v for k, (v, _) in workload_numbers(args.workload, plain).items()})
            units = {name: unit for name, unit, _ in PER_LAYER}
            metrics = {name: (values.get(name, 0), units[name]) for name in units}
            lines.append(f"untraced pass {pass_wall(plain):.3f} s ({pass_wall(plain, ref=True):.3f} s at reference "
                         f"speed), traced pass {pass_wall(traced):.3f} s ({pass_wall(traced, ref=True):.3f} s)")
            for layer, share in totals.shares(pass_wall(traced)).items():
                lines.append(f"share of traced wall_s: {layer:<28} {100 * share:6.2f} %")
            for key, res in traced.items():
                if "spans" in res.info:
                    top = top_spans(res.info["spans"])
                    lines.append(f"traced {key}: {res.wall_s:.3f} s; "
                                 + ", ".join(f"{name} {s:.3f} s" for name, s in top.items()))
        else:
            # the pass count follows from --seconds alone, so that a slow
            # host does not get fewer passes than a fast one
            passes = []
            for i in range(max(1, int(args.seconds // wl.pass_s))):
                if passes and time.perf_counter() + pass_wall(passes[-1]) > t_start + RUN_LIMIT_S - 20:
                    break
                passes.append(run_pass(wl, runner, work / f"pass{i}", traced=False))
                if i:
                    compare_passes(passes[0], passes[-1], "first pass")
                attempted += passes[-1].values()
            # host speed drifts by 20-40% within a minute; when --seconds
            # leaves room for several passes, each command's fastest counts
            fastest = {key: min(p[key].ref_s for p in passes) for key in passes[0]}
            failed = sum(r.outcome == "fail" for r in attempted)
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "wall_ref_s": (sum(fastest.values()), "s"),
                "peak_rss_mb": (max(r.rss_kb for p in passes for r in p.values()) / 1024, "MB"),
                "ok_ratio": ((len(attempted) - failed) / len(attempted), "ratio"),
            }
            lines.append(f"wall_s: {sum(min(p[key].wall_s for p in passes) for key in passes[0]):.3f} s "
                         f"as measured, {sum(fastest.values()):.3f} s at reference speed (wall_ref_s)")
            lines.append(f"passes: {len(passes)}; sum of command walls per pass: "
                         + ", ".join(f"{pass_wall(p):.3f} s" for p in passes))
            for name, (value, unit) in workload_numbers(args.workload, passes[0]).items():
                lines.append(f"{name}: {value:.6g} {unit}")
            for key, wall in fastest.items():
                lines.append(f"command {key}: fastest {wall:.3f} s at reference speed, "
                             f"{max(p[key].rss_kb for p in passes) / 1024:.1f} MB")
        report(attempted, metrics, lines)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass  # another run still uses it
    return 0


if __name__ == "__main__":
    sys.exit(main())
