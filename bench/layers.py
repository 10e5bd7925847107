"""Per-layer metrics of one traced operation, computed from its spans.

Each layer is one module of src/emolex. BENCHMARK.json fixes every metric's
name and unit; MOVES records, before anything is measured, which end-to-end
metric a change in that layer metric should move and on which workload.
Metrics of a layer that a workload never calls read 0.
"""

import collections

_ALL = "expand-large, cv, fit"
_BUILD = ("op_s, peak_rss_mb", "expand-large (1 big build); cv (10 small builds)")
# metric -> (end-to-end metrics it should move, workloads it moves them on)
MOVES = {
    "graph.build_transition_s": _BUILD,
    "graph.build_transition.calls": _BUILD,
    "graph.build_transition.peak_n2": _BUILD,
    "graph.logistic_s": ("op_s", "expand-large, fit"),
    "graph.logistic.calls": ("op_s", "expand-large, fit"),
    "graph.logistic.gb_computed": ("op_s", "expand-large, fit"),
    "solver.iterative_s": ("op_s, err_digits", "expand-large"),
    "solver.iterations": ("op_s, err_digits", "expand-large"),
    "solver.residual": ("op_s, err_digits", "expand-large"),
    "solver.closed_s": ("op_s", "cv"),
    "solver.closed.calls": ("op_s", "cv"),
    "solver.expand_s": ("op_s", "cv"),
    "optimize.fit_s": ("op_s, peak_rss_mb", "fit"),
    "optimize.epochs": ("op_s, peak_rss_mb", "fit"),
    "optimize.epoch_s": ("op_s, peak_rss_mb", "fit"),
    "optimize.peak_n2": ("op_s, peak_rss_mb", "fit"),
    "optimize.fit_entropy": ("none: the fit's quality output", "fit"),
    "evaluate.cross_validate_s": ("op_s", "cv"),
    "evaluate.fold_self_s": ("op_s", "cv"),
    "evaluate.kl_s": ("op_s", "cv"),
    "evaluate.kl.calls": ("op_s", "cv"),
    "evaluate.kl_lp": ("none: the CV's quality output", "cv"),
    "embeddings.load_s": ("setup_s, op_s", _ALL + " (largest share on expand-large)"),
    "embeddings.mb_per_s": ("setup_s, op_s", _ALL + " (largest share on expand-large)"),
    "lexicon.load_seed_s": ("setup_s, op_s", _ALL),
    "lexicon.write_s": ("op_s", "expand-large (writes)"),
    "lexicon.write_mb": ("op_s", "expand-large (writes)"),
    "lexicon.init_label_matrix_s": ("op_s", "cv (10 inits)"),
    "cli.self_s": ("op_s", _ALL),
    "trace.overhead_s": ("none: traced minus untraced op_s", _ALL),
}


def op_metrics(spans):
    """Layer metrics of one traced operation."""
    by_name = collections.defaultdict(list)
    child_time = collections.defaultdict(float)
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            child_time[s["parent"]] += s["dur"]

    def total(name):
        return sum(s["dur"] for s in by_name[name])

    def calls(name):
        return len(by_name[name])

    def field_sum(name, key):
        return sum(s.get(key, 0) for s in by_name[name])

    def peak_n2(name):
        return max((s["peak_bytes"] / (8.0 * s["n"] ** 2) for s in by_name[name]
                    if "peak_bytes" in s and s.get("n")), default=0.0)

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    fit_s, epochs = total("optimize.fit"), field_sum("optimize.fit", "epochs")
    load_s = total("embeddings.load")
    folds = [(i, s) for i, s in enumerate(spans) if s["name"] == "evaluate.fold"]
    return {
        "graph.build_transition_s": total("graph.build_transition"),
        "graph.build_transition.calls": calls("graph.build_transition"),
        "graph.build_transition.peak_n2": peak_n2("graph.build_transition"),
        "graph.logistic_s": total("graph.logistic"),
        "graph.logistic.calls": calls("graph.logistic"),
        "graph.logistic.gb_computed": field_sum("graph.logistic", "elements") * 16 / 1e9,
        "solver.iterative_s": total("solver.iterative"),
        "solver.iterations": field_sum("solver.iterative", "iterations"),
        "solver.residual": max((s.get("residual", 0.0) for name in
                                ("solver.iterative", "solver.closed")
                                for s in by_name[name]), default=0.0),
        "solver.closed_s": total("solver.closed"),
        "solver.closed.calls": calls("solver.closed"),
        "solver.expand_s": total("solver.expand"),
        "optimize.fit_s": fit_s,
        "optimize.epochs": epochs,
        "optimize.epoch_s": per(fit_s, epochs),
        "optimize.peak_n2": peak_n2("optimize.fit"),
        "evaluate.cross_validate_s": total("evaluate.cross_validate"),
        "evaluate.fold_self_s": sum(s["dur"] - child_time[i] for i, s in folds),
        "evaluate.kl_s": total("evaluate.kl"),
        "evaluate.kl.calls": calls("evaluate.kl"),
        "embeddings.load_s": load_s,
        "embeddings.mb_per_s": per(field_sum("embeddings.load", "bytes") / 1e6, load_s),
        "lexicon.load_seed_s": total("lexicon.load_seed"),
        "lexicon.write_s": total("lexicon.write"),
        "lexicon.write_mb": field_sum("lexicon.write", "bytes") / 1e6,
        "lexicon.init_label_matrix_s": total("lexicon.init_label_matrix"),
        "cli.self_s": spans[0]["dur"] - child_time[0],
    }


def quality_metrics(quality):
    """The program's own quality outputs, read from its artifacts."""
    return {"optimize.fit_entropy": quality.get("fit_entropy", 0.0),
            "evaluate.kl_lp": quality.get("kl_lp", 0.0)}
