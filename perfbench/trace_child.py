"""Run one arcsched CLI command in-process with its layers wrapped in spans.

Usage: python3 trace_child.py SPANS_JSON SPAWN_TIME -- ARGV...

Every public function of the layer modules (instance, bounds, flowgraph,
milp, heuristic, oracle, cli) is replaced, at run time and in this process
only, by a wrapper that records a span: name, parent span, start and end.
The wrapper is installed under every name the package imported the
function by (``cli.parse_instance``, ``heuristic.evaluate_schedule``, ...),
so calls across modules are seen too. ``MilpModel.validate`` and the
external solver's ``subprocess.run`` are wrapped as well. Spans stay in
memory and are written to SPANS_JSON when the command ends.

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it started
this process; on Linux that clock is CLOCK_MONOTONIC, shared by all
processes, so the child can report its own start-up time.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import subprocess
import sys
import time
import traceback

from layers import LAYERS


class Tracer:
    """In-memory span recorder. A span is [name, parent, start, end, extra]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, probe=None):
        """Wrap ``fn`` in a span; ``probe(args, kwargs, result)`` may return
        a dict of counts stored on the span after it closes."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if probe is not None:
                span[4] = probe(args, kwargs, result)
            return result

        return traced

    def current_extra(self) -> dict:
        span = self.spans[self._stack[-1]]
        if span[4] is None:
            span[4] = {}
        return span[4]


def _emitted_bytes(args, kwargs, text):
    # the emitters write ASCII, so characters are bytes; encoding a copy of
    # a 90 MB model only to measure it would distort the child's memory
    return {"bytes": len(text)}


def _graph_size(args, kwargs, graph):
    return {"nodes": len(graph.nodes), "arcs": len(graph.arcs)}


def _model_nnz(args, kwargs, report):
    model = args[0] if args else kwargs["model"]
    return {"nnz": sum(len(c.terms) for c in model.constraints)}


def _rss_after(args, kwargs, model):
    return {"rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


PROBES = {
    "milp.emit_lp": _emitted_bytes,
    "milp.emit_mps": _emitted_bytes,
    "flowgraph.build_af_graph": _graph_size,
    "flowgraph.build_eaf_graph": _graph_size,
    "milp.check_feasible": _model_nnz,
    "milp.build_ti": _rss_after,
    "milp.build_pti": _rss_after,
    "milp.build_ciqp": _rss_after,
    "milp.build_af_model": _rss_after,
    "milp.build_eaf_model": _rss_after,
}


def _counting_ils(tracer: Tracer, ils):
    """Pass ``ils`` a monitor that counts iterations which lowered the best."""

    @functools.wraps(ils)
    def counted(inst, cfg, monitor=None):
        extra = tracer.current_extra()
        extra.update(iterations=0, improvements=0)
        best = []

        def watch(iteration, best_value):
            if best and best_value < best[0]:
                extra["improvements"] += 1
            best[:] = [best_value]
            extra["iterations"] = iteration
            if monitor is not None:
                monitor(iteration, best_value)

        return ils(inst, cfg, monitor=watch)

    return counted


def install(tracer: Tracer) -> None:
    modules = [m for name, m in sys.modules.items() if name == "arcsched" or name.startswith("arcsched.")]
    for layer in LAYERS:
        mod = sys.modules[f"arcsched.{layer}"]
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            inner = _counting_ils(tracer, fn) if name == "heuristic.ils" else fn
            traced = tracer.wrap(name, inner, PROBES.get(name))
            for other in modules:
                for alias, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, alias, traced)
    milp = sys.modules["arcsched.milp"]
    milp.MilpModel.validate = tracer.wrap("milp.validate", milp.MilpModel.validate)
    subprocess.run = tracer.wrap("external.solve", subprocess.run)


def main() -> int:
    spans_path, spawn_time, sep, *argv = sys.argv[1:]
    if sep != "--":
        print("usage: trace_child.py SPANS_JSON SPAWN_TIME -- ARGV...", file=sys.stderr)
        return 2
    import arcsched.cli

    t_ready = time.perf_counter()
    tracer = Tracer()
    install(tracer)
    t_main = time.perf_counter()
    rc = 1
    try:
        rc = arcsched.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
    except Exception:
        traceback.print_exc()
        rc = 1
    finally:
        record = {
            "spawn": float(spawn_time),
            "ready": t_ready,
            "main": t_main,
            "end": time.perf_counter(),
            "spans": tracer.spans,
        }
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
