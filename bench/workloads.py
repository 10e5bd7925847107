"""Seeded synthetic inputs, CLI configs and per-operation output checks.

Every workload draws a mixture of six Gaussian components in d=100, one per
Ekman emotion, and writes three files that are all the program sees:
word2vec text embeddings, an NRC-style seed TSV and a JSON config. Vector
components are rounded to six decimals before they are written, so the
in-memory arrays the reference solver uses equal what the program parses.
"""

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import jsonschema
import numpy as np

import reference

EKMAN = ("anger", "disgust", "fear", "joy", "sadness", "surprise")
# NRC rows also carry these categories; the program must ignore them.
NRC_EXTRA = ("anticipation", "negative", "positive", "trust")
DIM = 100
SEED_SHARE = 0.10
EXTRA_FLAG_SHARE = 0.10
NEUTRAL_ROWS = 20
MISSING_SEED_ROWS = 5
# The README parameters.
PARAMS = {"kernel": "cosine-logistic", "alpha": 8.0, "b": -4.0, "epsilon": 0.02}
ROW_SUM_TOL = 1e-9
ERR_DIGITS_CAP = 15.0


@dataclass
class Inputs:
    """Generated files plus the arrays they were written from."""

    directory: str
    words: list
    vectors: np.ndarray
    component: np.ndarray
    seed_flags: dict
    paths: dict = field(default_factory=dict)

    def sha256(self):
        return {name: _sha256(path) for name, path in sorted(self.paths.items())}

    def labeled(self):
        """Vocabulary-order mask and distributions of the in-vocabulary seeds."""
        index = {w: i for i, w in enumerate(self.words)}
        mask = np.zeros(len(self.words), dtype=bool)
        dist = np.full((len(self.words), len(EKMAN)), 1.0 / len(EKMAN))
        for token, flags in self.seed_flags.items():
            i = index.get(token)
            if i is not None:
                mask[i] = True
                dist[i] = flags / flags.sum()
        return mask, dist


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def generate(n, seed, directory):
    """Draw the mixture and write embeddings.txt and seed.tsv."""
    rng = np.random.default_rng(seed)
    m = len(EKMAN)
    # Equal-norm centers and equal-size components: the share of pairs with a
    # positive logit, and with it the program's temporaries, peak memory and
    # sweep count, then depend on the seed only through sampling noise.
    centers = rng.normal(size=(m, DIM))
    centers *= math.sqrt(DIM) / np.linalg.norm(centers, axis=1)[:, None]
    component = rng.permutation(np.arange(n) % m)
    raw = centers[component] + rng.normal(size=(n, DIM))
    vectors = np.round(raw * 1e6) / 1e6
    words = ["w%05d" % i for i in range(n)]

    seed_idx = rng.choice(n, size=int(round(SEED_SHARE * n)), replace=False)
    seed_flags = {}
    for i in np.sort(seed_idx):
        flags = np.zeros(m, dtype=np.int64)
        flags[component[i]] = 1
        if rng.random() < EXTRA_FLAG_SHARE:
            flags[rng.integers(0, m)] = 1
        seed_flags[words[i]] = flags
    rest = np.setdiff1d(np.arange(n), seed_idx)
    neutral = [words[i] for i in np.sort(rng.choice(rest, size=NEUTRAL_ROWS,
                                                    replace=False))]
    for j in range(MISSING_SEED_ROWS):
        flags = np.zeros(m, dtype=np.int64)
        flags[rng.integers(0, m)] = 1
        seed_flags["oov%03d" % j] = flags

    os.makedirs(directory, exist_ok=True)
    inputs = Inputs(directory, words, vectors, component, seed_flags)
    emb = os.path.join(directory, "embeddings.txt")
    with open(emb, "w", encoding="utf-8") as fh:
        fh.write("%d %d\n" % (n, DIM))
        for word, row in zip(words, vectors):
            fh.write(word + " " + " ".join("%.6f" % v for v in row) + "\n")
    tsv = os.path.join(directory, "seed.tsv")
    with open(tsv, "w", encoding="utf-8") as fh:
        for token in sorted(set(seed_flags) | set(neutral)):
            flags = seed_flags.get(token, np.zeros(m, dtype=np.int64))
            rows = [(name, int(flags[k])) for k, name in enumerate(EKMAN)]
            rows += [(name, int(rng.random() < 0.2)) for name in NRC_EXTRA]
            for name, value in sorted(rows):
                fh.write("%s\t%s\t%d\n" % (token, name, value))
    inputs.paths = {"embeddings": emb, "seed_lexicon": tsv}
    return inputs


def write_config(inputs, config):
    path = os.path.join(inputs.directory, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
    inputs.paths["config"] = path
    return path


def err_digits(max_abs_error):
    """-log10 of an absolute error, capped so an exact match stays finite."""
    if max_abs_error <= 10.0 ** -ERR_DIGITS_CAP:
        return ERR_DIGITS_CAP
    return min(ERR_DIGITS_CAP, -math.log10(max_abs_error))


class CheckError(Exception):
    """An operation's artifacts are missing, malformed or wrong."""


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckError("%s: %s" % (os.path.basename(path), exc)) from None


class Workload:
    """One CLI command on one generated input set."""

    name = ""
    command = ""
    n = 0

    def prepare(self, seed, directory):
        """Write inputs and config; compute the reference outside any timing."""
        self.inputs = generate(self.n, seed, directory)
        self.config = dict(self.base_config(seed),
                           embeddings=self.inputs.paths["embeddings"],
                           seed_lexicon=self.inputs.paths["seed_lexicon"])
        self.config_path = write_config(self.inputs, self.config)
        self.reference = self.compute_reference()

    def argv(self, out):
        return [self.command, "--config", self.config_path, "--out", out]

    def base_config(self, seed):
        raise NotImplementedError

    def compute_reference(self):
        raise NotImplementedError

    def check(self, out, emolex):
        """Validate one operation's artifacts; return its quality values,
        err_digits always among them."""
        raise NotImplementedError


class ExpandLarge(Workload):
    name = "expand-large"
    command = "expand"
    n = 4000

    def base_config(self, seed):
        # Default solver "auto" and default tol: u = 3600 puts the run on the
        # iterative side of the closed-form threshold.
        return {"params": PARAMS, "seed": seed}

    def compute_reference(self):
        mask, dist = self.inputs.labeled()
        t = reference.transition(reference.unit(self.inputs.vectors),
                                 PARAMS["alpha"], PARAMS["b"], PARAMS["epsilon"])
        y_u = reference.harmonic(t, mask, dist[mask])
        return {"mask": mask, "dist": dist, "y_u": y_u}

    def check(self, out, emolex):
        ref = self.reference
        report = _load_json(os.path.join(out, "expand_report.json"))
        _load_json(os.path.join(out, "expanded_lexicon.json"))
        if report.get("solve", {}).get("converged") is not True:
            raise CheckError("solve.converged is not true")
        rows, labeled = _read_expanded_tsv(os.path.join(out, "expanded_lexicon.tsv"),
                                           self.inputs.words)
        if not np.all(np.isfinite(rows)) or np.any(rows < 0):
            raise CheckError("non-finite or negative probability")
        if np.max(np.abs(rows.sum(axis=1) - 1.0)) > ROW_SUM_TOL:
            raise CheckError("a row does not sum to 1 within %g" % ROW_SUM_TOL)
        if not np.array_equal(labeled, ref["mask"]):
            raise CheckError("labeled rows differ from the in-vocabulary seeds")
        if not np.array_equal(rows[labeled], ref["dist"][labeled]):
            raise CheckError("a seed row differs from its seed distribution")
        return {"err_digits": err_digits(float(np.max(np.abs(rows[~labeled] - ref["y_u"]))))}


def _read_expanded_tsv(path, words):
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh, delimiter="\t")
            header = next(reader)
            body = list(reader)
    except (OSError, StopIteration) as exc:
        raise CheckError("expanded_lexicon.tsv: %s" % exc) from None
    if header != ["token", *EKMAN, "source"] or len(body) != len(words):
        raise CheckError("expanded_lexicon.tsv has the wrong header or row count")
    if [r[0] for r in body] != words:
        raise CheckError("expanded_lexicon.tsv rows are not in vocabulary order")
    try:
        rows = np.array([[float(v) for v in r[1:-1]] for r in body])
    except ValueError as exc:
        raise CheckError("expanded_lexicon.tsv: %s" % exc) from None
    return rows, np.array([r[-1] == "labeled" for r in body])


class CrossValidate(Workload):
    name = "cv"
    command = "evaluate"
    n = 2000
    k = 10

    def base_config(self, seed):
        counts = np.bincount(self.inputs.component, minlength=len(EKMAN))
        return {"params": PARAMS, "seed": seed, "k_folds": self.k,
                "class_counts": {e: int(c) for e, c in zip(EKMAN, counts)}}

    def compute_reference(self):
        return {"per_fold": reference.cross_validate_kl(
            self.inputs, PARAMS, self.k, self.config["seed"])}

    def check(self, out, emolex):
        report = _load_json(os.path.join(out, "eval_report.json"))
        schema = _load_json(os.path.join(os.path.dirname(emolex.__file__),
                                         "schemas", "eval_report.schema.json"))
        try:
            jsonschema.validate(report, schema)
        except jsonschema.ValidationError as exc:
            raise CheckError("eval_report.json: %s" % exc.message) from None
        rows = [r for r in report["rows"] if r["method"] == "label-propagation"]
        if len(rows) != 1 or len(rows[0]["per_fold"]) != self.k:
            raise CheckError("no single %d-fold label-propagation row" % self.k)
        if not os.path.exists(os.path.join(out, "eval_table.txt")):
            raise CheckError("eval_table.txt is missing")
        got = np.array(rows[0]["per_fold"])
        return {"kl_lp": rows[0]["overall"],
                "err_digits": err_digits(float(np.max(np.abs(got - self.reference["per_fold"]))))}


class Fit(Workload):
    name = "fit"
    command = "optimize"
    n = 2000
    epochs = 10
    unroll_steps = 10

    def base_config(self, seed):
        return {"seed": seed,
                "fit": {"mode": "full", "learning_rate": 0.5,
                        "epochs": self.epochs, "unroll_steps": self.unroll_steps,
                        "init": {"alpha": 3.0, "b": 0.0, "epsilon": 0.1}}}

    def compute_reference(self):
        # The entropy reference depends on the parameters the fit reaches, so
        # only the input-side arrays are prepared here.
        mask, dist = self.inputs.labeled()
        return {"mask": mask, "y_l": dist[mask],
                "unit": reference.unit(self.inputs.vectors)}

    def check(self, out, emolex):
        raw = _load_json(os.path.join(out, "params.json"))
        try:
            again = emolex.PropagationParams.from_dict(raw).to_dict()
        except (TypeError, ValueError) as exc:
            raise CheckError("params.json: %s" % exc) from None
        if again != raw:
            raise CheckError("params.json does not round-trip")
        meta = _load_json(os.path.join(out, "optimize_meta.json"))
        trace = _read_trace(os.path.join(out, "trace.csv"))
        if len(trace) != self.epochs:
            raise CheckError("trace.csv has %d rows for %d epochs"
                             % (len(trace), self.epochs))
        if not np.all(np.isfinite(trace)) or list(trace[:, 0]) != list(range(self.epochs)):
            raise CheckError("trace.csv has a non-finite or misnumbered row")
        final = meta.get("final_entropy")
        if not isinstance(final, float) or final != trace[-1, 1]:
            raise CheckError("final_entropy does not match the last trace row")
        _, _, _, alpha, b, epsilon = trace[-1]
        ref = self.reference
        t = reference.transition(ref["unit"], alpha, b, epsilon)
        expected = reference.unrolled_entropy(t, ref["mask"], ref["y_l"],
                                              self.unroll_steps)
        return {"fit_entropy": final, "err_digits": err_digits(abs(final - expected))}


def _read_trace(path):
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            rows = [[float(v) for v in line.split(",")] for line in fh if line.strip()]
    except (OSError, ValueError) as exc:
        raise CheckError("trace.csv: %s" % exc) from None
    if header != ["epoch", "entropy", "grad_norm", "alpha_mean", "b", "epsilon"]:
        raise CheckError("trace.csv has an unexpected header")
    if any(len(r) != 6 for r in rows):
        raise CheckError("trace.csv has a short row")
    return np.array(rows).reshape(-1, 6)


WORKLOADS = {w.name: w for w in (ExpandLarge, CrossValidate, Fit)}
