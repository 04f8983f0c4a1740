"""In-memory span tracer for the public functions of the wittengap modules.

``Tracer.installed()`` replaces every public function of
``wittengap.{bounds,sturm,spectral,shrinkers,report,cli}`` (the names in each
module's ``__all__``) and ``VerificationReport.to_json`` with a timing
wrapper, both in the defining module and in every package module that
imported the function by name.  Calls between public functions therefore
nest as child spans.  Spans stay in memory; ``write_spans`` puts them in a
file when the run ends.  A span's self time is its duration minus the time
covered by its children.  The program is single-threaded and nothing waits
on a queue or lock, so no wait times are recorded.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import time
from collections import Counter, defaultdict

MODULES = ("bounds", "sturm", "spectral", "shrinkers", "report", "cli")

# The default certification suite at the time the benchmark was defined.
SUITE_CASES = (
    "bounds-closed-vs-grid",
    "circle-spectrum-r=1",
    "circle-spectrum-r=2",
    "gaussian-soliton",
    "ou-comparison-grid",
    "shrinker-circle",
    "shrinker-rosette-2-3",
    "soliton-constants",
    "sphere-height-a=0",
    "sphere-height-a=0.3",
    "sphere-height-a=0.5",
    "sphere-height-a=0.9",
    "sphere-round",
    "weight-shift-invariance",
)

# Functions whose call count and self time are reported.
TIMED = (
    "bounds.sup_bound_grid",
    "bounds.gap_expression",
    "bounds.shrinker_diameter_bound_sup",
    "sturm.discretize_ou",
    "sturm.smallest_eigenvalues",
    "sturm.neumann_lambda1",
    "sturm.dirichlet_lambda1",
    "sturm.verify_comparison",
    "spectral.build_icosphere",
    "spectral.apply_weight",
    "spectral.lambda1_witten",
    "spectral.graph_diameter",
    "spectral.stiffness_matrix",
    "spectral.witten_apply",
    "shrinkers.find_abresch_langer",
    "shrinkers.eigen_identity_residual",
    "shrinkers.mean_curvature_identity_residual",
    "shrinkers.verify_shrinker_diameter",
    "report.make_report",
    "report.to_json",
)
# Functions whose arguments are counted at the boundary.
COUNTED = (
    "bounds.sup_bound_grid",
    "sturm.smallest_eigenvalues",
    "spectral.lambda1_witten",
    "shrinkers.find_abresch_langer",
)
SELF_ONLY = ("cli.case_soliton_constants", "cli.run_suite", "cli.sweep_closed_vs_grid")


def case_metric(case_id: str) -> str:
    """Metric name for one suite case; '=' is not allowed in metric names."""
    return f"cli.case.{case_id.replace('=', '_')}.self_s"


class Tracer:
    """Spans and counters of the traced passes of one run."""

    def __init__(self) -> None:
        # (span id, parent id, name, start, end, self seconds, error type)
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.case_of: dict[int, str] = {}
        self.curves: Counter = Counter()
        self._stack: list[list] = []  # open spans: [id, child seconds, name]
        self._ids = itertools.count(1)

    # -- counters taken at the layer boundaries -----------------------------

    def _before(self, name, params, args, kwargs):
        """Count work from the arguments; may add a ``log`` to count iterates."""
        if params is None:
            return args, kwargs, None

        def arg(key):
            i, default = params[key]
            return args[i] if len(args) > i else kwargs.get(key, default)

        if name == "bounds.sup_bound_grid":
            self.counters["bounds.sup_bound_grid.points"] += arg("grid_size")
        elif name == "sturm.smallest_eigenvalues":
            self.counters["sturm.smallest_eigenvalues.rows"] += arg("pencil").n
        elif name == "spectral.lambda1_witten":
            self.counters["spectral.lambda1_witten.vertices"] += arg("complex_").n_vertices
        elif name == "shrinkers.find_abresch_langer":
            self.curves[(arg("lam"), arg("p"), arg("q"))] += 1
            log = arg("log")
            if log is None:
                log = []
                i = params["log"][0]
                if len(args) > i:
                    args = (*args[:i], log, *args[i + 1 :])
                else:
                    kwargs = {**kwargs, "log": log}
            return args, kwargs, (log, len(log))
        return args, kwargs, None

    def _after(self, name, ctx, result):
        if name == "report.to_json":
            self.counters["report.json_bytes"] += len(result.encode())
        elif name == "shrinkers.find_abresch_langer":
            log, start = ctx
            self.counters["shrinkers.bisection_iterates"] += len(log) - start

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter
        params = None
        if name in COUNTED:
            # positions and defaults, to read arguments without a costly bind
            params = {
                p.name: (i, p.default) for i, p in enumerate(inspect.signature(fn).parameters.values())
            }

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            args, kwargs, ctx = self._before(name, params, args, kwargs)
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0, name]
            stack.append(frame)
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                spans.append(
                    (frame[0], parent[0] if parent else None, name, start, end,
                     end - start - frame[1], error)
                )
            self._after(name, ctx, result)
            if parent is not None and parent[2] == "cli.run_suite":
                self.case_of[frame[0]] = getattr(result, "case_id", name)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the public functions for the duration of the block."""
        package = importlib.import_module("wittengap")
        modules = {short: importlib.import_module(f"wittengap.{short}") for short in MODULES}
        wrappers: dict[int, object] = {}
        for short, mod in modules.items():
            public = getattr(mod, "__all__", [n for n in vars(mod) if not n.startswith("_")])
            for attr in public:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        patches = []
        for mod in (package, *modules.values()):
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        report_cls = modules["report"].VerificationReport
        patches.append((report_cls, "to_json", report_cls.to_json))
        report_cls.to_json = self._wrap("report.to_json", report_cls.to_json)
        try:
            yield self
        finally:
            for owner, attr, value in reversed(patches):
                setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def per_layer(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each per traced pass of the workload."""
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        names = {}
        sturm_errors = 0
        cases: defaultdict = defaultdict(float)
        for sid, parent, name, _start, _end, own, error in self.spans:
            calls[name] += 1
            self_s[name] += own
            names[sid] = name
            if sid in self.case_of:
                cases[self.case_of[sid]] += own
        for sid, parent, name, _start, _end, _own, error in self.spans:
            # an error escaping nested sturm calls is counted once, at the outermost one
            if error and name.startswith("sturm.") and not names.get(parent, "").startswith("sturm."):
                sturm_errors += 1

        out: dict[str, tuple[float, str]] = {}
        for name in TIMED:
            out[f"{name}.calls"] = (calls[name] / passes, "count")
            out[f"{name}.self_s"] = (self_s[name] / passes, "s")
        for name in SELF_ONLY:
            out[f"{name}.self_s"] = (self_s[name] / passes, "s")
        # module totals: with trace.outside_spans_s they add up to the pass time
        for module in MODULES:
            total = sum(v for k, v in self_s.items() if k.startswith(module + "."))
            out[f"{module}.self_s"] = (total / passes, "s")
        for key in (
            "bounds.sup_bound_grid.points",
            "sturm.smallest_eigenvalues.rows",
            "spectral.lambda1_witten.vertices",
            "shrinkers.bisection_iterates",
        ):
            out[key] = (self.counters[key] / passes, "count")
        out["report.json_bytes"] = (self.counters["report.json_bytes"] / passes, "bytes")
        out["sturm.errors"] = (sturm_errors / passes, "count")
        distinct = len(self.curves)
        out["shrinkers.curves_per_case"] = (
            sum(self.curves.values()) / distinct / passes if distinct else 0.0,
            "count",
        )
        for case_id in SUITE_CASES:
            out[case_metric(case_id)] = (cases[case_id] / passes, "s")
        return out

    def self_total(self) -> float:
        return sum(span[5] for span in self.spans)

    def write_spans(self, path) -> None:
        """One JSON array per line, after a header line naming the fields."""
        with open(path, "w") as fh:
            fh.write('["id","parent","name","start","end","self","error"]\n')
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
