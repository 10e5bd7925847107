"""Command-line frontend: expand, optimize, evaluate, stats, baseline.

A run is described by one JSON config file; selected flags override config
values so a single artifact captures everything needed to reproduce a run.
All randomness flows from the recorded seed and outputs land only under the
configured output directory.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import evaluate as ev
from .graph import PropagationParams
from .lexicon import (EKMAN_SIX, EmotionSet, load_seed_lexicon,
                      write_lexicon_json, write_lexicon_tsv)
from .embeddings import load_embeddings
from .optimize import OptimizerConfig, fit_batched, fit_full
from .solver import TOL, check_solver_options, expand


class ConfigError(ValueError):
    pass


# Every top-level config key some command reads. One config file may serve
# several commands, so each command accepts all of them.
CONFIG_KEYS = frozenset({
    "embeddings", "seed_lexicon", "emotions", "out", "params", "params_file",
    "batch_params", "batch_params_file", "tol", "fit", "seed", "k_folds",
    "class_counts", "corpus"})
# The keys that name a file or a directory.
STRING_KEYS = ("out", "embeddings", "seed_lexicon", "corpus", "params_file",
               "batch_params_file")


def _replace(path, write):
    """Call write(tmp) on a sibling temporary file, then move it to path.

    The directory is created here, at the first artifact write, so a command
    that fails before it writes leaves no output directory behind.
    """
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    write(tmp)
    os.replace(tmp, path)


def _atomic_write(path, text):
    def write(tmp):
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
    _replace(path, write)


def _write_json(path, payload):
    # allow_nan=False: NaN and Infinity are not JSON, so no artifact holds them.
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True,
                                   allow_nan=False) + "\n")


def _object(key, value):
    """`value`, refused with a ConfigError naming `key` unless it is a JSON
    object."""
    if not isinstance(value, dict):
        raise ConfigError("%r must be a JSON object, not %r" % (key, value))
    return value


class RunConfig:
    """Validated union of the config file and flag overrides.

    It checks the config's shape: its keys, its sections, its paths and
    names. Each value is checked by the function that takes it.
    """

    def __init__(self, data):
        unknown = sorted(set(data) - CONFIG_KEYS)
        if unknown:
            raise ConfigError("unknown config keys: %s"
                              % ", ".join(map(repr, unknown)))
        for key in ("params", "batch_params", "fit", "class_counts"):
            if key in data:
                _object(key, data[key])
        for key in STRING_KEYS:
            if data.get(key) is not None and not isinstance(data[key], str):
                raise ConfigError("%r must be a string, not %r"
                                  % (key, data[key]))
        for key in ("params", "batch_params"):
            if key in data and key + "_file" in data:
                raise ConfigError("give %r inline or in a file, not both" % key)
        self.data = data

    @classmethod
    def from_args(cls, args):
        data = {}
        if args.config:
            if not os.path.exists(args.config):
                raise ConfigError("config file not found: %s" % args.config)
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ConfigError("a config file must hold a JSON object, "
                                  "not %r" % (data,))
        for key in COMMANDS[args.command][1]:
            value = getattr(args, key)
            if value is not None:
                data[key] = value
        return cls(data)

    def get(self, key, default=None):
        return self.data.get(key, default)

    def require_path(self, key):
        path = self.data.get(key)
        if not path:
            raise ConfigError("config key %r is required" % key)
        if not os.path.exists(path):
            raise ConfigError("%s path does not exist: %s" % (key, path))
        return path

    def out_dir(self):
        """The configured output directory; not created until an artifact is
        written."""
        out = self.data.get("out")
        if not out:
            raise ConfigError("an output directory ('out') is required")
        return out

    def emotions(self):
        return EmotionSet(self.data.get("emotions", EKMAN_SIX))

    def _has_params(self):
        """Whether fixed params are given; raises if a fit request is too."""
        has_params = "params" in self.data or "params_file" in self.data
        if has_params and "fit" in self.data:
            raise ConfigError("give either fixed params or a fit request, not both")
        return has_params

    def propagation_params(self, key="params"):
        """The params row at `key`, inline or parsed from the file at
        `key`_file."""
        if key == "params" and not self._has_params():
            raise ConfigError("fixed 'params' or a 'params_file' is required")
        raw = self.data.get(key)
        if key + "_file" in self.data:
            with open(self.require_path(key + "_file"), encoding="utf-8") as fh:
                raw = _object(key + "_file", json.load(fh))
        return PropagationParams.from_dict(raw)

    def optimizer_config(self):
        if self._has_params() or "fit" not in self.data:
            raise ConfigError("a 'fit' request is required")
        fit = dict(self.data["fit"])
        if "seed" in self.data:
            fit["rng_seed"] = self.data["seed"]
        return OptimizerConfig.from_dict(fit)


def _solver_options(cfg):
    options = {"tol": cfg.get("tol", TOL)}
    check_solver_options(**options)
    return options


def _load_inputs(cfg):
    emotions = cfg.emotions()
    store = load_embeddings(cfg.require_path("embeddings"))
    seed = load_seed_lexicon(cfg.require_path("seed_lexicon"), emotions)
    return store, seed


def cmd_expand(cfg):
    options = _solver_options(cfg)
    params = cfg.propagation_params()
    out = cfg.out_dir()
    store, seed = _load_inputs(cfg)
    result = expand(store, seed, params, **options)
    sidecar = result.sidecar()
    lexicon = (store.vocab, result.distributions, result.emotions,
               result.labeled_mask)
    _replace(os.path.join(out, "expanded_lexicon.tsv"),
             lambda tmp: write_lexicon_tsv(tmp, *lexicon))
    _replace(os.path.join(out, "expanded_lexicon.json"),
             lambda tmp: write_lexicon_json(tmp, *lexicon))
    _write_json(os.path.join(out, "expand_report.json"), sidecar)
    return 0


def cmd_optimize(cfg):
    options = _solver_options(cfg)
    config = cfg.optimizer_config()
    out = cfg.out_dir()
    store, seed = _load_inputs(cfg)
    fit = fit_batched if config.mode == "batch" else fit_full
    params, trace = fit(store, seed, config, **options)
    _write_json(os.path.join(out, "params.json"), params.to_dict())
    _replace(os.path.join(out, "trace.csv"), trace.to_csv)
    _write_json(os.path.join(out, "optimize_meta.json"),
                {"optimizer": config.to_dict(),
                 "final_entropy": trace.entropies[-1] if trace.entropies else None,
                 "params_epoch": trace.params_epoch})
    return 0


def _class_counts(cfg, emotions):
    counts = cfg.get("class_counts")
    if counts is not None:
        missing = [name for name in emotions if name not in counts]
        unknown = sorted(set(counts) - set(emotions))
        if missing or unknown:
            raise ConfigError("'class_counts' must count each emotion once: "
                              "missing %s; unknown %s"
                              % (", ".join(missing) or "none",
                                 ", ".join(unknown) or "none"))
        return [counts[name] for name in emotions]
    corpus_path = cfg.get("corpus")
    if corpus_path:
        corpus = ev.load_corpus(corpus_path, emotions)
        return np.array([sum(1 for lab, _ in corpus if lab == name)
                         for name in emotions], dtype=np.float64)
    raise ConfigError("majority/prior baselines need 'class_counts' or a 'corpus'")


def cmd_evaluate(cfg):
    options = _solver_options(cfg)
    k, rng_seed = ev.check_folds(cfg.get("k_folds", 10), cfg.get("seed", 0))
    out = cfg.out_dir()
    params = [("label-propagation", cfg.propagation_params())]
    if "batch_params" in cfg.data or "batch_params_file" in cfg.data:
        params.append(("batch-label-propagation",
                       cfg.propagation_params("batch_params")))
    counts = _class_counts(cfg, cfg.emotions())
    runs = [(ev.baseline_expander(kind, counts), kind)
            for kind in ("uniform", "majority", "prior")]
    runs += [(ev.label_prop_expander(p, **options), method)
             for method, p in params]
    store, seed = _load_inputs(cfg)

    def row(expander, method):
        report = ev.cross_validate(store, seed, expander, k=k,
                                   rng_seed=rng_seed)
        report.method = method
        return report.to_dict()

    # A run's graph operator is freed when its expander returns, before the
    # next row builds one.
    rows = [row(expander, method) for expander, method in runs]

    _write_json(os.path.join(out, "eval_report.json"),
                {"k": k, "rng_seed": rng_seed, "rows": rows})
    lines = ["%-28s %10s" % ("Lexicon expansion", "KL divergence"),
             "-" * 40]
    lines += ["%-28s %13.4f" % (r["method"], r["overall"]) for r in rows]
    _atomic_write(os.path.join(out, "eval_table.txt"), "\n".join(lines) + "\n")
    return 0


def cmd_stats(cfg):
    emotions = cfg.emotions()
    out = cfg.out_dir()
    seed = load_seed_lexicon(cfg.require_path("seed_lexicon"), emotions)
    corpus = ev.load_corpus(cfg.require_path("corpus"), emotions)
    stats = ev.corpus_lexicon_stats(corpus, seed)
    _write_json(os.path.join(out, "stats.json"), stats)
    return 0


def cmd_baseline(cfg):
    emotions = cfg.emotions()
    out = cfg.out_dir()
    seed = load_seed_lexicon(cfg.require_path("seed_lexicon"), emotions)
    corpus = ev.load_corpus(cfg.require_path("corpus"), emotions)
    lexicon = {t: seed.distribution(t) for t in seed.entries}
    m = len(emotions)
    lines = []
    gold, predicted = [], []
    for label, tokens in corpus:
        dist, no_evidence = ev.count_classify(tokens, lexicon, m)
        pred = emotions.names[int(np.argmax(dist))]
        gold.append(label)
        predicted.append(pred)
        lines.append("%s\t%s\t%s\t%d" % (
            label, pred, "\t".join("%.17g" % p for p in dist), int(no_evidence)))
    _atomic_write(os.path.join(out, "classifications.tsv"),
                  "\n".join(lines) + ("\n" if lines else ""))
    _write_json(os.path.join(out, "baseline_metrics.json"),
                ev.micro_prf(gold, predicted))
    return 0


# The config overrides, and which of them each command reads.
FLAGS = {"seed": {"type": int, "help": "override the run rng seed"},
         "out": {"help": "override the output directory"}}
COMMANDS = {"expand": (cmd_expand, ("out",)),
            "optimize": (cmd_optimize, ("seed", "out")),
            "evaluate": (cmd_evaluate, ("seed", "out")),
            "stats": (cmd_stats, ("out",)),
            "baseline": (cmd_baseline, ("out",))}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="emolex",
        description="Semi-supervised emotion lexicon expansion")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON run config")
        for flag in flags:
            p.add_argument("--" + flag, **FLAGS[flag])
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command][0](RunConfig.from_args(args))
    except Exception as exc:  # machine-readable failure for any module error
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
