"""Spans around the calls one ebiunmix module makes into another.

Nothing under src/ is edited. `hooks` rebinds a function name in the
namespace of the module that calls it (for example `pipeline.apply_filter`,
the name `run_pipeline` looks up when it filters a frame) to a wrapper, and
restores the original on exit. The `Tracer` wrapper records one span per
call: id, pass id, parent span, name, start and end. Spans stay in memory
and are written out once, when the run ends. `Capture` uses the same hooks
to keep the arguments and results the output checks need.
"""

import contextlib
import importlib
import time
from collections import defaultdict


def _filter_count(args, result):
    return (("dsp.filter_samples", args[0].samples.size),)


def _csv_rows_read(args, result):
    return (("pipeline.read_csv_rows", result.n_samples),)


def _csv_rows_written(args, result):
    return (("pipeline.write_csv_rows", args[0].n_samples),)


def _ica_count(args, result):
    conv = result.convergence
    return (("fastica.iterations", conv.iterations_used),
            ("fastica.unconverged_frames", 0 if conv.converged else 1))


def _frame_count(args, result):
    return (("pipeline.frames", 1),)


# (module holding the name, name, span name, counter). Span names are
# "<callee module>.<function>"; a counter turns a call's arguments and result
# into (key, increment) pairs counted per pass.
TRACE_POINTS = (
    ("ebiunmix", "run_pipeline", "pipeline.run_pipeline", None),
    ("ebiunmix.cli", "main", "cli.main", None),
    ("ebiunmix.cli", "run_pipeline", "pipeline.run_pipeline", None),
    ("ebiunmix.cli", "read_csv", "pipeline.read_csv", _csv_rows_read),
    ("ebiunmix.cli", "write_csv", "pipeline.write_csv", _csv_rows_written),
    ("ebiunmix.cli", "default_scenario", "synth.default_scenario", None),
    ("ebiunmix.pipeline", "process_frame", "pipeline.process_frame", _frame_count),
    ("ebiunmix.pipeline", "frame_signal", "dsp.frame_signal", None),
    ("ebiunmix.pipeline", "decimate", "dsp.decimate", None),
    ("ebiunmix.pipeline", "apply_filter", "dsp.apply_filter", _filter_count),
    ("ebiunmix.pipeline", "fit_pca", "pca.fit_pca", None),
    ("ebiunmix.pipeline", "whiten", "pca.whiten", None),
    ("ebiunmix.pipeline", "fit_fastica", "fastica.fit_fastica", _ica_count),
    ("ebiunmix.pipeline", "separate", "fastica.separate", None),
    ("ebiunmix.pipeline", "match_components", "metrics.match_components", None),
    ("ebiunmix.pca", "sym_eigen", "linalg.sym_eigen", None),
    ("ebiunmix.fastica", "sym_eigen", "linalg.sym_eigen", None),
)

# Per-layer time metrics, each the sum over a pass of the self time of the
# spans named. Together with the root span's self time they partition the pass.
SELF_TIME_LAYERS = {
    "dsp.filter_s": ("dsp.apply_filter",),
    "dsp.frame_decimate_s": ("dsp.frame_signal", "dsp.decimate"),
    "pipeline.self_s": ("pipeline.run_pipeline", "pipeline.process_frame"),
    "pipeline.read_csv_s": ("pipeline.read_csv",),
    "pipeline.write_csv_s": ("pipeline.write_csv",),
    "linalg.sym_eigen_s": ("linalg.sym_eigen",),
    "fastica.fit_self_s": ("fastica.fit_fastica",),
    "fastica.separate_s": ("fastica.separate",),
    "pca.fit_s": ("pca.fit_pca",),
    "pca.whiten_s": ("pca.whiten",),
    "metrics.match_s": ("metrics.match_components",),
    "synth.scenario_s": ("synth.default_scenario",),
    "cli.self_s": ("cli.main",),
}

ROOT = "bench.pass"


@contextlib.contextmanager
def hooks(wrap):
    """Rebind every trace point to `wrap(span_name, fn, counter)`; undo on exit."""
    saved = []
    try:
        for module_name, attr, span_name, counter in TRACE_POINTS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, wrap(span_name, fn, counter))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


class Tracer:
    """In-memory span recorder; one instance per run."""

    FIELDS = ("id", "pass", "parent", "name", "start_s", "end_s")

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []  # [id, pass, parent, name, start, end]
        self.counts = defaultdict(lambda: defaultdict(int))  # pass -> key -> n
        self._stack = []
        self._pass = -1
        self._pass_spans = {}  # pass -> (first, last + 1) index into spans

    def wrap(self, name, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([sid, self._pass, stack[-1] if stack else -1, name, clock(), 0.0])
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid][5] = clock()
                stack.pop()
            if counter is not None:
                counts = self.counts[self._pass]
                for key, n in counter(args, result):
                    counts[key] += n
            return result

        return traced

    @contextlib.contextmanager
    def traced_pass(self, pass_id):
        """Install the hooks for one pass; yields root(body), which runs body in the root span."""
        self._pass = pass_id
        first = len(self.spans)
        with hooks(self.wrap):
            yield self.wrap(ROOT, lambda body: body(), None)
        self._pass_spans[pass_id] = (first, len(self.spans))

    def pass_summary(self, pass_id):
        """Per-layer self times and counts of one pass."""
        spans = self.spans[slice(*self._pass_spans[pass_id])]
        child_time = defaultdict(float)
        for s in spans:
            if s[2] >= 0:
                child_time[s[2]] += s[5] - s[4]
        self_by_name = defaultdict(float)
        for s in spans:
            self_by_name[s[3]] += (s[5] - s[4]) - child_time[s[0]]
        layers = {
            metric: sum(self_by_name[n] for n in names)
            for metric, names in SELF_TIME_LAYERS.items()
        }
        return {
            "layers": layers,
            "counts": dict(self.counts[pass_id]),
            "sym_eigen_calls": sum(1 for s in spans if s[3] == "linalg.sym_eigen"),
            "fit_fastica_s": sum(s[5] - s[4] for s in spans if s[3] == "fastica.fit_fastica"),
            "root_self_s": self_by_name[ROOT],
            "spans": len(spans),
        }

    def to_json(self):
        return {
            "fields": list(self.FIELDS),
            "spans": [
                [s[0], s[1], s[2], s[3], s[4] - self.t0, s[5] - self.t0] for s in self.spans
            ],
        }


class Capture:
    """Keeps, per frame, what the output checks need from one pass."""

    def __init__(self):
        self.frames = defaultdict(dict)
        self._frame = None
        self._record = {
            "dsp.apply_filter": self._filter,
            "pca.fit_pca": lambda args, model: self._keep("pca", (args[0].samples, model.eigenvalues)),
            "fastica.fit_fastica": lambda args, model: self._keep("ica", (model.unmixing, model.mixing_estimate)),
            "fastica.separate": lambda args, sources: self._keep("sources", sources),
        }

    def wrap(self, name, fn, counter):
        if name == "pipeline.process_frame":
            def framed(*args, **kwargs):
                self._frame = args[2]  # process_frame(frame, config, frame_index, truth)
                return fn(*args, **kwargs)

            return framed
        record = self._record.get(name)
        if record is None:
            return fn

        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            record(args, result)
            return result

        return captured

    def _keep(self, key, value):
        self.frames[self._frame][key] = value

    def _filter(self, args, result):
        c = args[1]
        self._keep("filter", (args[0].samples, (c.b0, c.b1, c.b2), (1.0, c.a1, c.a2), result.samples))
