"""Per-layer metrics from the spans that trace_child.py records.

A layer is an arcsched module (its spans are named ``<module>.<function>``)
plus ``external``, the solver subprocess of ``solve-external``. Times named
``<layer>.<function>.s`` are inclusive: they contain the spans the function
caused. ``<layer>.self_s`` is each span's duration minus the part its
direct child spans cover, summed over the layer's spans.
"""

from __future__ import annotations

from collections import defaultdict

LAYERS = ("instance", "bounds", "flowgraph", "milp", "heuristic", "oracle", "cli")

# (metric, unit, better); the first group comes straight from the spans
PER_LAYER = [
    ("milp.emit_lp.s", "s", "lower"),
    ("milp.emit_mps.s", "s", "lower"),
    ("milp.emit_lp.mb_per_s", "MB/s", "higher"),
    ("milp.emit_mps.mb_per_s", "MB/s", "higher"),
    ("milp.build_ti.s", "s", "lower"),
    ("milp.build_pti.s", "s", "lower"),
    ("milp.build_ciqp.s", "s", "lower"),
    ("milp.build_af_model.s", "s", "lower"),
    ("milp.build_eaf_model.s", "s", "lower"),
    ("milp.validate.s", "s", "lower"),
    ("milp.rss_mb", "MB", "lower"),
    ("flowgraph.build_af_graph.s", "s", "lower"),
    ("flowgraph.build_eaf_graph.s", "s", "lower"),
    ("flowgraph.to_dot.s", "s", "lower"),
    ("flowgraph.nodes", "count", "lower"),
    ("flowgraph.arcs", "count", "lower"),
    ("milp.check_feasible.s", "s", "lower"),
    ("milp.check_feasible.knnz_per_s", "knnz/s", "higher"),
    ("milp.schedule_to_assignment.s", "s", "lower"),
    ("milp.parse_solution.s", "s", "lower"),
    ("milp.valuation_to_flow.s", "s", "lower"),
    ("flowgraph.decompose_flow.s", "s", "lower"),
    ("heuristic.ils.s", "s", "lower"),
    ("heuristic.rvnd.calls", "count", "lower"),
    ("heuristic.rvnd.s", "s", "lower"),
    ("heuristic.perturb.s", "s", "lower"),
    ("heuristic.grasp_construct.s", "s", "lower"),
    ("heuristic.best_improve_ratio", "ratio", "higher"),
    ("instance.evaluate_schedule.calls", "count", "lower"),
    ("instance.evaluate_schedule.s", "s", "lower"),
    ("oracle.brute_force_optimal.s", "s", "lower"),
    ("external.solve_s", "s", "lower"),
    ("bounds.horizon.calls", "count", "lower"),
    ("bounds.horizon.s", "s", "lower"),
    ("bounds.time_windows.s", "s", "lower"),
    ("instance.parse_instance.s", "s", "lower"),
    ("instance.group_job_types.s", "s", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("cli.startup_s", "s", "lower"),
    # these come from the run rather than from spans
    ("trace.overhead_s", "s", "lower"),
    ("ils_iters_per_s", "it/s", "higher"),
    ("ils_best", "objective", "lower"),
    ("model_vars", "count", "lower"),
    ("model_nnz", "count", "lower"),
]


class SpanTotals:
    """Calls, inclusive time, self time and probe counts over many commands."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(lambda: defaultdict(float))
        self.rss_kb = 0
        self.startup_s = 0.0

    def add(self, record: dict) -> None:
        """Fold in one command's record as written by trace_child.py."""
        self.startup_s += record["ready"] - record["spawn"]
        spans = record["spans"]
        covered = [0.0] * len(spans)
        for name, parent, start, end, extra in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, parent, start, end, extra), child_s in zip(spans, covered):
            self.calls[name] += 1
            self.total_s[name] += end - start
            self.self_s[name.split(".")[0]] += end - start - child_s
            for key, value in (extra or {}).items():
                if key == "rss_kb":
                    self.rss_kb = max(self.rss_kb, value)
                else:
                    self.extra[name][key] += value

    def metrics(self) -> dict[str, float]:
        t, x = self.total_s, self.extra

        def rate(amount: float, seconds: float) -> float:
            return amount / seconds if seconds > 0 else 0.0

        out = {f"{name}.s": t[name] for name in (
            "milp.emit_lp", "milp.emit_mps", "milp.build_ti", "milp.build_pti", "milp.build_ciqp",
            "milp.build_af_model", "milp.build_eaf_model", "milp.validate",
            "flowgraph.build_af_graph", "flowgraph.build_eaf_graph", "flowgraph.to_dot",
            "milp.check_feasible", "milp.schedule_to_assignment", "milp.parse_solution",
            "milp.valuation_to_flow", "flowgraph.decompose_flow",
            "heuristic.ils", "heuristic.rvnd", "heuristic.perturb", "heuristic.grasp_construct",
            "instance.evaluate_schedule", "oracle.brute_force_optimal",
            "bounds.horizon", "bounds.time_windows", "instance.parse_instance", "instance.group_job_types",
        )}
        for fmt in ("lp", "mps"):
            name = f"milp.emit_{fmt}"
            out[f"{name}.mb_per_s"] = rate(x[name]["bytes"] / 1e6, t[name])
        out["milp.rss_mb"] = self.rss_kb / 1024
        out["flowgraph.nodes"] = x["flowgraph.build_af_graph"]["nodes"] + x["flowgraph.build_eaf_graph"]["nodes"]
        out["flowgraph.arcs"] = x["flowgraph.build_af_graph"]["arcs"] + x["flowgraph.build_eaf_graph"]["arcs"]
        out["milp.check_feasible.knnz_per_s"] = rate(x["milp.check_feasible"]["nnz"] / 1e3, t["milp.check_feasible"])
        out["heuristic.rvnd.calls"] = self.calls["heuristic.rvnd"]
        ils = x["heuristic.ils"]
        out["heuristic.best_improve_ratio"] = rate(ils["improvements"], ils["iterations"])
        out["instance.evaluate_schedule.calls"] = self.calls["instance.evaluate_schedule"]
        out["bounds.horizon.calls"] = self.calls["bounds.horizon"]
        out["external.solve_s"] = t["external.solve"]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
        out["cli.startup_s"] = self.startup_s
        return out

    def shares(self, wall_s: float) -> dict[str, float]:
        """Each layer's self time, start-up and the rest as shares of a pass."""
        parts = {"startup": self.startup_s, "external": self.self_s["external"]}
        parts.update({layer: self.self_s[layer] for layer in LAYERS})
        parts["other (spawn, exit, tracing)"] = wall_s - sum(parts.values())
        return {name: value / wall_s for name, value in parts.items()}


def top_spans(record: dict, share: float = 0.02) -> dict[str, float]:
    """Inclusive seconds per function in one command's record, for the
    functions below ``cli`` that take at least ``share`` of its time."""
    totals = defaultdict(float)
    for name, parent, start, end, extra in record["spans"]:
        totals[name] += end - start
    wall = record["end"] - record["spawn"]
    return {name: s for name, s in totals.items() if not name.startswith("cli.") and s >= share * wall}
