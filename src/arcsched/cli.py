"""Command-line interface.

Subcommands: gen, bounds, model, compare, solve-heur, solve-exact, check,
solve-external. Exit codes: 0 success, 2 usage error, 3 input/validation
error, 4 external-solver error, 5 size-guard refusal (a ModelSizeError: the
oracle's m**n guard, an af or eaf coefficient past 64 bits, or a model, the
search's swap tables or machine pairs, or m machines priced past the budget).

``main`` is the one command frame. It creates the run report and hands it
to the subcommand's ``cmd_*`` function, which only computes and fills the
report in; then ``main`` prints it and returns 0. An exception becomes
exit 5, 4 or 3 with a one-line message on stderr, and no report.

The layer modules and the modules only solve-external uses are bound
lazily: each is in ``sys.modules`` once this module is imported, but its
code runs on the first attribute access, so a command runs only the layers
it uses (solve-heur: instance, rng and heuristic).
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from .instance import (
    BYTES_PER,
    Instance,
    ModelSizeError,
    check_bytes,
    completion_times,
    evaluate_schedule,
    generate_instance,
    group_job_types,
    parse_instance,
    parse_schedule,
    singleton_types,
    write_instance,
    write_schedule,
)


def _lazy(name: str):
    """Module ``name``, registered now and executed on its first attribute access."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    if parent:
        setattr(sys.modules[parent], child, module)
    return module


bounds_mod = _lazy(f"{__package__}.bounds")
flowgraph = _lazy(f"{__package__}.flowgraph")
heuristic = _lazy(f"{__package__}.heuristic")
milp = _lazy(f"{__package__}.milp")
oracle = _lazy(f"{__package__}.oracle")
shlex, subprocess, tempfile = _lazy("shlex"), _lazy("subprocess"), _lazy("tempfile")

SOLVER_ENV = "ARCSCHED_SOLVER_CMD"

EXIT_OK = 0
EXIT_INPUT = 3
EXIT_SOLVER = 4
EXIT_GUARD = 5


class ExternalSolverError(RuntimeError):
    pass


class RunReport:
    def __init__(self, command: str):
        self.command = command
        self.digest: dict = {}
        self.timings_ms: dict = {}
        self.outputs: list = []
        self.summary: dict = {}
        self.deterministic = True
        self.lines: list = []  # printed last, as they stand

    def print(self, out=None) -> None:
        out = out or sys.stdout
        print(f"command: {self.command}", file=out)
        for key, value in self.digest.items():
            print(f"instance.{key}: {value}", file=out)
        for key, value in self.summary.items():
            print(f"{key}: {value}", file=out)
        for phase, ms in self.timings_ms.items():
            print(f"time.{phase}_ms: {ms:.3f}", file=out)
        for path in self.outputs:
            print(f"wrote: {path}", file=out)
        if not self.deterministic:
            print("deterministic: no (wall-clock budget)", file=out)
        for line in self.lines:
            print(line, file=out)

    @contextmanager
    def phase(self, name: str):
        """Time the block; it prints as ``time.<name>_ms``."""
        t0 = time.perf_counter()
        yield
        self.timings_ms[name] = (time.perf_counter() - t0) * 1000.0


def _digest(inst: Instance) -> dict:
    return {"n": inst.n, "m": inst.m, "sum_p": inst.total_p, "p_max": inst.p_max}


def _read_text(path: str) -> str:
    """The text of a file the CLI parses whole, read only once its size is
    priced: a file past the guard is refused (ModelSizeError) unread."""
    size = os.stat(path).st_size
    check_bytes(size * BYTES_PER["input byte"], f"parsing the {size}-byte file {path} needs")
    return Path(path).read_text(encoding="utf-8")


def _read_instance(path: str, report: RunReport) -> Instance:
    """Parse the instance file and put its digest on the report."""
    inst = parse_instance(_read_text(path))
    report.digest = _digest(inst)
    return inst


def _check_machines(inst: Instance) -> None:
    """Refuse (ModelSizeError) an instance whose m machines alone would take
    a schedule past instance.MAX_MODEL_BYTES, before any per-machine list."""
    check_bytes(inst.m * BYTES_PER["machine"], f"m = {inst.m} machines need")


def _flow_network(inst: Instance, form: str, args) -> flowgraph.FlowGraph:
    """Flow network of form af or eaf.

    af is eaf with every reduction off: one type per job in WSPT order,
    windows [0, T - p_j] and T' = 0. The --no-* flags switch single
    reductions off for eaf.

    Raises:
        ModelSizeError: the model would exceed the size guard; the build
            counts the nonzeros as it makes the arcs and stops past the budget.
    """
    hor = bounds_mod.horizon(inst)
    straight = form == "af"
    types = singleton_types(inst) if straight or args.no_types else group_job_types(inst)
    if straight or args.no_windows:
        windows = [(0, hor.T - t.p) for t in types]
    else:
        windows = bounds_mod.type_time_windows(types, bounds_mod.time_windows(inst, hor.T))
    t_prime = 0 if straight or args.no_tprime else hor.T_prime
    return flowgraph.build_eaf_graph(
        inst, hor.T, types, windows, t_prime, strict_figure=args.strict_figure
    )


def _build_model(inst: Instance, form: str, args) -> tuple[milp.MilpModel, flowgraph.FlowGraph | None]:
    """Model of ``form``, plus its network for the flow forms.

    Raises:
        ModelSizeError: refused by the builder: a model past the size guard,
            or an af or eaf objective coefficient past 64 bits.
    """
    if form in ("af", "eaf"):
        graph = _flow_network(inst, form, args)
        return milp.build_eaf_model(graph), graph
    if form == "ciqp":
        return milp.build_ciqp(inst), None
    if form == "ti":
        return milp.build_ti(inst, bounds_mod.horizon_T(inst)), None
    if form == "pti":
        return milp.build_pti(inst, bounds_mod.horizon_T(inst)), None
    raise ValueError(f"unknown form {form!r}")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_reduction_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--strict-figure", action="store_true", help="drop the t=0 loss arc (drawing convention)")
    parser.add_argument("--no-windows", action="store_true", help="disable start-window reduction (eaf)")
    parser.add_argument("--no-types", action="store_true", help="disable job-type merging (eaf)")
    parser.add_argument("--no-tprime", action="store_true", help="keep loss arcs below T' (eaf)")


def cmd_gen(args, report: RunReport) -> None:
    with report.phase("generate"):
        inst = generate_instance(args.n, args.m, args.pmax, args.wmax, args.seed)
    Path(args.out).write_text(write_instance(inst), encoding="utf-8")
    report.digest = _digest(inst)
    report.outputs.append(args.out)


def cmd_bounds(args, report: RunReport) -> None:
    inst = _read_instance(args.infile, report)
    with report.phase("bounds"):
        hor = bounds_mod.horizon(inst)
        tw = bounds_mod.time_windows(inst, hor.T)
    report.summary = {
        "H_min": hor.H_min,
        "H_max": hor.H_max,
        "T": hor.T,
        "T_prime": hor.T_prime,
    }
    report.lines = [f"window job {j}: [{tw.a[j]}, {tw.b[j]}]" for j in range(1, inst.n + 1)]


def cmd_model(args, report: RunReport) -> None:
    inst = _read_instance(args.infile, report)
    with report.phase("build"):
        model, graph = _build_model(inst, args.form, args)
    write = milp.write_lp if args.format == "lp" else milp.write_mps
    with report.phase("emit"):
        with open(args.out, "w", encoding="utf-8") as fh:
            write(model, fh)
        if args.dot:
            with open(args.dot, "w", encoding="utf-8") as fh:
                flowgraph.write_dot(graph, fh)
    report.summary = {
        "form": args.form,
        "variables": model.num_vars,
        "constraints": model.num_rows,
        "nonzeros": model.nonzeros(),
    }
    if graph is not None:
        losses = len(graph.runs[flowgraph.LOSS])
        report.summary.update(
            {
                "nodes": len(graph.nodes),
                "job_arcs": len(graph.arcs) - losses,
                "loss_arcs": losses,
            }
        )
    if args.dot:
        report.outputs.append(args.dot)
    report.outputs.append(args.out)


def cmd_compare(args, report: RunReport) -> None:
    rows = []
    with report.phase("compare"):
        for i in range(args.seeds):
            seed = args.seed + i
            inst = generate_instance(args.n, args.m, args.pmax, args.wmax, seed)
            counts = [milp.ti_offsets(inst, bounds_mod.horizon_T(inst))[-1]]
            for form in ("af", "eaf"):
                counts.append(len(_flow_network(inst, form, args).arcs))
            rows.append((seed, *counts))
    mean = lambda idx: sum(r[idx] for r in rows) / len(rows)
    mean_ti, mean_af, mean_eaf = mean(1), mean(2), mean(3)
    means = [f"{mean_ti:.1f}", f"{mean_af:.1f}", f"{mean_eaf:.1f}",
             f"{flowgraph.reduction_pct(mean_ti, mean_af):.2f}", f"{flowgraph.reduction_pct(mean_af, mean_eaf):.2f}"]
    lines = ["# arcsched compare v1", "seed,vars_ti,vars_af,vars_eaf,red_af_vs_ti,red_eaf_vs_af"]
    for seed, ti, af, eaf in rows:
        lines.append(
            f"{seed},{ti},{af},{eaf},"
            f"{flowgraph.reduction_pct(ti, af):.2f},{flowgraph.reduction_pct(af, eaf):.2f}"
        )
    lines.append(",".join(["mean", *means]))
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    keys = ["mean_vars_ti", "mean_vars_af", "mean_vars_eaf", "mean_red_af_vs_ti_pct", "mean_red_eaf_vs_af_pct"]
    report.summary = {"instances": len(rows), **dict(zip(keys, means))}
    report.outputs.append(args.out)


def _heur_budgets(n: int, iters: int | None, time_limit: float | None) -> tuple[int, float | None]:
    """Default budgets: explicit flags win; otherwise large instances get a
    size-based wall clock (n > 100: 100 s, n >= 400: 300 s) and small ones
    a deterministic 1000 iterations."""
    if iters is None and time_limit is None:
        if n >= 400:
            time_limit = 300.0
        elif n > 100:
            time_limit = 100.0
    if iters is None:
        iters = 1000 if time_limit is None else 10**9
    return iters, time_limit


def cmd_solve_heur(args, report: RunReport) -> None:
    inst = _read_instance(args.infile, report)
    _check_machines(inst)
    heuristic.check_size(inst)
    iters, time_limit = _heur_budgets(inst.n, args.iters, args.time)
    cfg = heuristic.IlsConfig(
        seed=args.seed,
        iterations=iters,
        time_limit=time_limit,
        alpha=args.alpha,
        strength=args.strength,
    )
    with report.phase("ils"):
        result = heuristic.ils(inst, cfg)
    Path(args.out).write_text(write_schedule(inst, result.schedule), encoding="utf-8")
    report.summary = {"objective": result.value, "iterations": result.iterations}
    report.outputs.append(args.out)
    report.deterministic = time_limit is None


def cmd_solve_exact(args, report: RunReport) -> None:
    inst = _read_instance(args.infile, report)
    _check_machines(inst)
    with report.phase("oracle"):
        result = oracle.brute_force_optimal(inst, enumerate_all=args.all_optima)
    Path(args.out).write_text(write_schedule(inst, result.schedule), encoding="utf-8")
    report.summary = {"objective": result.optimum}
    if args.all_optima:
        report.summary["optimal_assignments"] = len(result.all_optima)
    report.outputs.append(args.out)


def cmd_check(args, report: RunReport) -> None:
    inst = _read_instance(args.infile, report)
    sched = parse_schedule(_read_text(args.sched))
    with report.phase("check"):
        completion_times(inst, sched)  # a schedule that does not fit the instance fails before the build
        model, graph = _build_model(inst, args.form, args)
        values = milp.schedule_to_assignment(inst, sched, bounds_mod.horizon_T(inst), graph)
        result = milp.check_feasible(model, values)
    report.summary = {
        "form": args.form,
        "feasible": result.feasible,
        "objective": result.objective,
    }
    if not result.feasible:
        report.summary["violated"] = ", ".join(result.violations[:10])


def cmd_solve_external(args, report: RunReport) -> None:
    inst = _read_instance(args.infile, report)
    _check_machines(inst)
    solver_cmd = (args.solver_cmd or os.environ.get(SOLVER_ENV) or "").strip()
    if not solver_cmd:
        raise ExternalSolverError(f"no solver command; pass --solver-cmd or set {SOLVER_ENV}")
    with report.phase("build"):
        model, graph = _build_model(inst, args.form, args)
    with tempfile.TemporaryDirectory(prefix="arcsched_") as tmp:
        model_path = Path(tmp) / "model.lp"
        solution_path = Path(tmp) / "model.sol"
        with report.phase("write"), open(model_path, "w", encoding="utf-8") as fh:
            milp.write_lp(model, fh)
        try:  # split before substituting, so a path with spaces stays one word
            cmd = [word.format(model=model_path, solution=solution_path) for word in shlex.split(solver_cmd)]
        except (ValueError, KeyError, IndexError) as exc:
            raise ExternalSolverError(f"bad solver command template {solver_cmd!r}: {exc!r}") from exc
        with report.phase("solve"):
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True)
            except OSError as exc:
                raise ExternalSolverError(f"cannot run solver {cmd[0]!r}: {exc}") from exc
        if proc.returncode != 0:
            raise ExternalSolverError(
                f"solver exited with {proc.returncode}; stderr:\n{proc.stderr.strip()}"
            )
        if not solution_path.exists():
            raise ExternalSolverError("solver wrote no solution file")
        try:
            with open(solution_path, encoding="utf-8") as fh:
                solution = milp.parse_solution(fh)
        except ValueError as exc:
            raise ExternalSolverError(f"unparsable solution file: {exc}") from exc
    with report.phase("decode"):
        # every ti, af and eaf variable is integral: round the solver's entries, then check exactly
        for name, x in solution.items():
            nearest = round(x)
            if abs(x - nearest) * 10**6 > 1:  # more than 10^-6 from an integer, exact for a Fraction
                raise ExternalSolverError(f"non-integral value {x} for integer variable {name}")
            solution[name] = nearest
        values = [solution.get(name, 0) for name in model.names()]  # a name the solver left out reads 0
        feas = milp.check_feasible(model, values)
        if not feas.feasible:
            raise ExternalSolverError(
                "solver solution violates the model (artifact bug): "
                + ", ".join(feas.violations[:5])
            )
        sched = milp.assignment_to_schedule(inst, values, bounds_mod.horizon_T(inst), graph)
    objective = evaluate_schedule(inst, sched)
    if args.out:
        Path(args.out).write_text(write_schedule(inst, sched), encoding="utf-8")
        report.outputs.append(args.out)
    report.summary = {
        "form": args.form,
        "solver_objective": feas.objective,
        "objective": objective,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcsched",
        description="flow-network and MILP toolkit for weighted-completion-time scheduling",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--pmax", type=_positive_int, required=True)
    p.add_argument("--wmax", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bounds", help="print horizon bounds and start windows")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("model", help="emit a model file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--form", choices=["ti", "ciqp", "pti", "af", "eaf"], required=True)
    p.add_argument("--format", choices=["lp", "mps"], default="lp")
    p.add_argument("--out", required=True)
    p.add_argument("--dot", help="also write the flow network as DOT (af/eaf)")
    _add_reduction_flags(p)
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("compare", help="variable-count comparison across ti/af/eaf")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--pmax", type=_positive_int, required=True)
    p.add_argument("--wmax", type=_positive_int, default=20)
    p.add_argument("--seeds", type=_positive_int, required=True, help="number of seeded instances")
    p.add_argument("--seed", type=int, default=1, help="first seed")
    p.add_argument("--out", required=True)
    _add_reduction_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("solve-heur", help="iterated local search")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--iters", type=int, default=None, help="iteration budget (default 1000)")
    p.add_argument("--time", type=float, default=None,
                   help="wall-clock budget in seconds (default for n > 100: 100, n >= 400: 300)")
    p.add_argument("--alpha", type=float, default=0.3)
    p.add_argument("--strength", type=int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve_heur)

    p = sub.add_parser("solve-exact", help="brute-force optimum (tiny instances)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--all-optima", action="store_true")
    p.set_defaults(func=cmd_solve_exact)

    p = sub.add_parser("check", help="map a schedule into a model and verify")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--sched", required=True)
    p.add_argument("--form", choices=["ti", "af", "eaf"], required=True)
    _add_reduction_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve-external", help="solve via an external MILP solver")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--form", choices=["ti", "af", "eaf"], required=True)
    p.add_argument(
        "--solver-cmd",
        help="command template with {model} and {solution} placeholders"
        f" (default from ${SOLVER_ENV})",
    )
    p.add_argument("--out")
    _add_reduction_flags(p)
    p.set_defaults(func=cmd_solve_external)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "cmd", None) == "model":
        if args.form == "ciqp" and args.format == "mps":
            parser.error("form ciqp has a quadratic objective; MPS is unsupported, use --format lp")
        if args.dot and args.form not in ("af", "eaf"):
            parser.error(f"form {args.form} has no flow network; --dot needs af or eaf")
    report = RunReport(command=args.cmd)
    # the guard error subclasses ValueError, so its clause comes first
    try:
        args.func(args, report)
        report.print()
    except ModelSizeError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ExternalSolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
