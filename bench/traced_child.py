"""Run one emolex CLI command with spans around the calls between layers.

Usage: python bench/traced_child.py SPANS_JSON OP_ID -- <emolex cli argv>

The program's own code is unchanged: this entry point replaces the names
that modules look up across layer boundaries with timing wrappers, then
calls emolex.cli.main(argv). Spans stay in memory and are written to
SPANS_JSON at exit together with the list of hooks whose target is absent.
The exit code is the command's.

tracemalloc runs only while a span in PEAK_SPANS is open: the top-level
compute spans and the graph build nested in them. Outside them it would slow
the Python-level parsing and writing several-fold.
"""

import functools
import importlib
import json
import os
import sys
import time
import tracemalloc

# (module, attribute, span). A module looks up these names when it calls
# into another layer; emolex.graph.logistic is also the graph's own kernel.
HOOKS = (
    ("emolex.cli", "load_embeddings", "embeddings.load"),
    ("emolex.cli", "load_seed_lexicon", "lexicon.load_seed"),
    ("emolex.cli", "write_lexicon_tsv", "lexicon.write"),
    ("emolex.cli", "write_lexicon_json", "lexicon.write"),
    ("emolex.cli", "expand", "solver.expand"),
    ("emolex.cli", "fit_full", "optimize.fit"),
    ("emolex.evaluate", "expand", "solver.expand"),
    ("emolex.evaluate", "cross_validate", "evaluate.cross_validate"),
    ("emolex.evaluate", "kl_divergence", "evaluate.kl"),
    ("emolex.solver", "build_transition", "graph.build_transition"),
    ("emolex.solver", "propagate_iterative", "solver.iterative"),
    ("emolex.solver", "propagate_closed_form", "solver.closed"),
    ("emolex.solver", "init_label_matrix", "lexicon.init_label_matrix"),
    ("emolex.optimize", "init_label_matrix", "lexicon.init_label_matrix"),
    ("emolex.graph", "logistic", "graph.logistic"),
    ("emolex.optimize", "logistic", "graph.logistic"),
)
# Factories whose returned expander closures become evaluate.fold spans.
EXPANDER_FACTORIES = (
    ("emolex.evaluate", "label_prop_expander"),
    ("emolex.evaluate", "baseline_expander"),
)
PEAK_SPANS = {"solver.expand", "optimize.fit", "evaluate.cross_validate",
              "graph.build_transition"}
ROOT = "cli.main"


class Tracer:
    """In-memory span recorder with nested tracemalloc peak accounting."""

    def __init__(self, op_id):
        self.op_id = op_id
        self.spans = []
        self.stack = []
        # Open spans that track a peak: [span index, bytes at start, max seen].
        self.peaks = []
        self.absent = []

    def _fold_peak(self):
        _, peak = tracemalloc.get_traced_memory()
        for entry in self.peaks:
            entry[2] = max(entry[2], peak)
        tracemalloc.reset_peak()

    def span(self, name, call, info=None):
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        record = {"name": name, "op": self.op_id, "parent": parent}
        self.spans.append(record)
        track = name in PEAK_SPANS
        if track:
            if self.peaks:
                self._fold_peak()
            else:
                tracemalloc.start()
            current, _ = tracemalloc.get_traced_memory()
            self.peaks.append([index, current, current])
        self.stack.append(index)
        record["start"] = time.perf_counter()
        try:
            result = call()
        finally:
            record["end"] = time.perf_counter()
            self.stack.pop()
            if track:
                self._fold_peak()
                _, start, peak = self.peaks.pop()
                record["peak_bytes"] = peak - start
                if not self.peaks:
                    tracemalloc.stop()
        if info is not None:
            # A later refactor may change a signature or return type; the
            # span then lacks its counts but the command still runs.
            try:
                record.update(info(result))
            except (AttributeError, TypeError, IndexError, KeyError, OSError) as exc:
                record["info_error"] = repr(exc)
        return result

    def hook(self, module_name, attr, name, info=None):
        target = self._target(module_name, attr)
        if target is None:
            return
        module, fn = target

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, lambda: fn(*args, **kwargs),
                             info and (lambda result: info(args, kwargs, result)))
        setattr(module, attr, wrapper)

    def hook_factory(self, module_name, attr):
        target = self._target(module_name, attr)
        if target is None:
            return
        module, factory = target

        @functools.wraps(factory)
        def make(*args, **kwargs):
            run = factory(*args, **kwargs)

            @functools.wraps(run)
            def fold(*a, **kw):
                return self.span("evaluate.fold", lambda: run(*a, **kw))
            return fold
        setattr(module, attr, make)

    def _target(self, module_name, attr):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.append("%s.%s" % (module_name, attr))
            return None
        return module, fn


def _path_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _elements(args, kwargs, result):
    return {"elements": int(getattr(result, "size", 1))}


def _graph_n(args, kwargs, result):
    return {"n": len(args[0])}


def _solve(args, kwargs, result):
    report = result[1]
    return {"iterations": report.iterations, "residual": report.residual}


def _fit(args, kwargs, result):
    return {"n": len(args[0]), "epochs": len(result[1].entropies),
            "final_entropy": result[1].entropies[-1]}


INFO = {"embeddings.load": _path_bytes, "lexicon.load_seed": _path_bytes,
        "lexicon.write": _path_bytes, "graph.logistic": _elements,
        "graph.build_transition": _graph_n, "solver.iterative": _solve,
        "solver.closed": _solve, "optimize.fit": _fit}


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, op_id, cli_argv = argv[0], int(argv[1]), argv[3:]
    tracer = Tracer(op_id)
    for module_name, attr, name in HOOKS:
        tracer.hook(module_name, attr, name, INFO.get(name))
    for module_name, attr in EXPANDER_FACTORIES:
        tracer.hook_factory(module_name, attr)
    cli = importlib.import_module("emolex.cli")
    try:
        code = tracer.span(ROOT, lambda: cli.main(cli_argv))
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "absent": tracer.absent}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
