import json
import os
import warnings
import weakref

import jsonschema
import pytest

import emolex.solver as solver_module
from emolex import evaluate as ev
from emolex.cli import RunConfig, _write_json, build_parser, main

from conftest import data_path

PARAMS = {"kernel": "cosine-logistic", "alpha": 6.0, "b": -2.0,
          "epsilon": 0.05}


def write_config(tmp_path, name="config.json", **overrides):
    data = {"embeddings": data_path("mini_vectors.txt"),
            "seed_lexicon": data_path("mini_nrc.tsv"),
            "out": str(tmp_path / "out")}
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def read(out_dir, name, mode="r"):
    with open(os.path.join(out_dir, name), mode) as fh:
        return fh.read()


class TestExpand:
    def test_tsv_covers_vocabulary(self, tmp_path):
        config = write_config(tmp_path, params=PARAMS)
        assert main(["expand", "--config", config]) == 0
        out = str(tmp_path / "out")
        lines = read(out, "expanded_lexicon.tsv").strip().split("\n")
        assert len(lines) == 1 + 10  # header + one row per vocabulary word
        report = json.loads(read(out, "expand_report.json"))
        assert report["params"]["alpha"] == 6.0
        assert report["solve"]["method"] == "closed-form"
        assert 0.0 < report["solve"]["min_labeled_mass"] <= 1.0
        assert 1.0 <= report["solve"]["cond_bound"] <= 1e12
        assert report["solve"]["converged"]
        assert report["solve"]["error_bound"] <= 1e-6

    def test_cg_solver_flag(self, tmp_path):
        def rows(out):
            lines = read(out, "expanded_lexicon.tsv").strip().split("\n")
            return [line.split("\t") for line in lines[1:]]

        config = write_config(tmp_path, params=PARAMS)
        assert main(["expand", "--config", config]) == 0
        other = str(tmp_path / "cg")
        assert main(["expand", "--config", config, "--out", other,
                     "--solver", "cg"]) == 0
        report = json.loads(read(other, "expand_report.json"))
        assert report["solve"]["method"] == "cg"
        assert report["solve"]["converged"]
        for closed, cg in zip(rows(str(tmp_path / "out")), rows(other),
                              strict=True):
            assert cg[0] == closed[0] and cg[-1] == closed[-1]
            assert [float(v) for v in cg[1:-1]] == pytest.approx(
                [float(v) for v in closed[1:-1]], abs=1e-6)

    @pytest.mark.parametrize("solver", ["iterative", "cg"])
    def test_unconverged_solve_fails_without_artifacts(self, tmp_path, capsys,
                                                       solver):
        config = write_config(tmp_path, params=PARAMS, solver=solver,
                              max_iter=1)
        assert main(["expand", "--config", config]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConvergenceError"
        assert "error bound" in err["message"]
        assert not (tmp_path / "out").exists()

    def test_all_seeded_vocabulary_fails_without_artifacts(self, tmp_path,
                                                           capsys):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("2 2\na 1 0\nb 0 1\n", encoding="utf-8")
        seed = tmp_path / "seed.tsv"
        seed.write_text("a\tjoy\t1\nb\tfear\t1\n", encoding="utf-8")
        config = write_config(tmp_path, embeddings=str(vectors),
                              seed_lexicon=str(seed), params=PARAMS)
        assert main(["expand", "--config", config]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "unlabeled" in err["message"]
        assert not (tmp_path / "out").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        config = write_config(tmp_path, params=PARAMS, seed=3)
        assert main(["expand", "--config", config]) == 0
        out = str(tmp_path / "out")
        artifacts = ["expanded_lexicon.tsv", "expanded_lexicon.json",
                     "expand_report.json"]
        first = {a: read(out, a, "rb") for a in artifacts}
        assert main(["expand", "--config", config]) == 0
        for a in artifacts:
            assert read(out, a, "rb") == first[a]

    def test_seed_rows_flagged_as_labeled(self, tmp_path):
        config = write_config(tmp_path, params=PARAMS)
        main(["expand", "--config", config])
        lines = read(str(tmp_path / "out"),
                     "expanded_lexicon.tsv").strip().split("\n")
        source = {row.split("\t")[0]: row.split("\t")[-1]
                  for row in lines[1:]}
        assert source["love"] == "labeled"
        assert source["happy"] == "propagated"

    def test_missing_embeddings_path_fails_before_compute(self, tmp_path,
                                                          capsys):
        config = write_config(tmp_path, params=PARAMS,
                              embeddings=str(tmp_path / "nope.txt"))
        assert main(["expand", "--config", config]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "nope.txt" in err["message"]

    def test_out_flag_overrides_config(self, tmp_path):
        config = write_config(tmp_path, params=PARAMS)
        other = str(tmp_path / "elsewhere")
        assert main(["expand", "--config", config, "--out", other]) == 0
        assert os.path.exists(os.path.join(other, "expanded_lexicon.tsv"))


class TestOptimize:
    def test_full_mode_artifacts(self, tmp_path):
        config = write_config(tmp_path, fit={"mode": "full", "epochs": 5,
                                             "learning_rate": 0.1})
        assert main(["optimize", "--config", config]) == 0
        out = str(tmp_path / "out")
        params = json.loads(read(out, "params.json"))
        assert set(params) >= {"kernel", "alpha", "b", "epsilon"}
        trace = read(out, "trace.csv").strip().split("\n")
        assert trace[0] == "epoch,entropy,grad_norm,alpha_mean,b,epsilon"
        assert len(trace) == 6
        meta = json.loads(read(out, "optimize_meta.json"))
        assert meta["optimizer"]["epochs"] == 5
        assert meta["final_entropy"] == float(trace[-1].split(",")[1])
        # params.json holds the lowest-entropy iterate, which params_epoch
        # names in the trace.
        row = trace[1 + meta["params_epoch"]].split(",")
        assert float(row[1]) == min(float(r.split(",")[1]) for r in trace[1:])
        assert params["b"] == float(row[4])
        assert params["epsilon"] == float(row[5])

    def test_batch_mode_echoes_config(self, tmp_path):
        config = write_config(tmp_path,
                              fit={"mode": "batch", "batch_size": 6,
                                   "num_batches": 4, "epochs_per_batch": 3,
                                   "learning_rate": 0.1}, seed=11)
        assert main(["optimize", "--config", config]) == 0
        meta = json.loads(read(str(tmp_path / "out"), "optimize_meta.json"))
        assert meta["optimizer"]["mode"] == "batch"
        assert meta["params_epoch"] is None
        assert meta["optimizer"]["batch_size"] == 6
        assert meta["optimizer"]["rng_seed"] == 11

    def test_optimize_then_expand_with_params_file(self, tmp_path):
        config = write_config(tmp_path, fit={"mode": "full", "epochs": 3,
                                             "learning_rate": 0.1})
        assert main(["optimize", "--config", config]) == 0
        params_file = str(tmp_path / "out" / "params.json")
        config2 = write_config(tmp_path, name="expand.json",
                               params_file=params_file,
                               out=str(tmp_path / "out2"))
        assert main(["expand", "--config", config2]) == 0
        assert os.path.exists(str(tmp_path / "out2" / "expanded_lexicon.tsv"))

    def test_unknown_fit_key_refused(self, tmp_path, capsys):
        config = write_config(tmp_path, fit={"mode": "full", "epochs": 2,
                                             "decay": 0.1})
        assert main(["optimize", "--config", config]) == 1
        assert "decay" in json.loads(capsys.readouterr().err)["message"]
        assert not (tmp_path / "out" / "params.json").exists()

    # A dropped misspelt key would silently start the fit from alpha 0.
    def test_unknown_init_key_refused(self, tmp_path, capsys):
        config = write_config(tmp_path, fit={
            "mode": "full", "epochs": 5, "learning_rate": 0.5,
            "init": {"alpa": 3.0, "b": 0.0, "epsilon": 0.1}})
        assert main(["optimize", "--config", config]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "alpa" in err["message"]
        assert not (tmp_path / "out" / "params.json").exists()

    # With the only seed token absent from the vocabulary the fit used to
    # exit 0 with params.json equal to init; with every word a seed it
    # raised ZeroDivisionError.
    @pytest.mark.parametrize("seeded", ["none", "all"])
    def test_needs_labeled_and_unlabeled_words(self, tmp_path, capsys,
                                               seeded):
        if seeded == "none":
            words = ["absent"]
        else:
            with open(data_path("mini_vectors.txt"), encoding="utf-8") as fh:
                words = [line.split()[0] for line in fh.readlines()[1:]]
        seed = tmp_path / "seed.tsv"
        seed.write_text("".join("%s\tjoy\t1\n" % w for w in words),
                        encoding="utf-8")
        config = write_config(tmp_path, seed_lexicon=str(seed),
                              fit={"mode": "full", "epochs": 2})
        assert main(["optimize", "--config", config]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": "need at least one "
                       "labeled and one unlabeled node"}
        assert not (tmp_path / "out").exists()

    def test_conflicting_params_and_fit(self, tmp_path, capsys):
        config = write_config(tmp_path, params=PARAMS,
                              fit={"mode": "full", "epochs": 2})
        assert main(["optimize", "--config", config]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"

    def test_deterministic_given_seed(self, tmp_path):
        config = write_config(tmp_path,
                              fit={"mode": "batch", "batch_size": 6,
                                   "num_batches": 3, "epochs_per_batch": 2,
                                   "learning_rate": 0.1}, seed=5)
        assert main(["optimize", "--config", config]) == 0
        out = str(tmp_path / "out")
        first = {a: read(out, a, "rb")
                 for a in ("params.json", "trace.csv", "optimize_meta.json")}
        assert main(["optimize", "--config", config]) == 0
        for a, blob in first.items():
            assert read(out, a, "rb") == blob


class TestEvaluate:
    def test_five_rows_and_schema(self, tmp_path):
        config = write_config(tmp_path, params=PARAMS,
                              batch_params=dict(PARAMS, alpha=5.0),
                              corpus=data_path("mini_corpus.tsv"),
                              k_folds=3, seed=0)
        assert main(["evaluate", "--config", config]) == 0
        out = str(tmp_path / "out")
        report = json.loads(read(out, "eval_report.json"))
        methods = [row["method"] for row in report["rows"]]
        assert methods == ["uniform", "majority", "prior",
                           "label-propagation", "batch-label-propagation"]
        schema_path = os.path.join(os.path.dirname(__file__), "..", "src",
                                   "emolex", "schemas",
                                   "eval_report.schema.json")
        with open(schema_path, encoding="utf-8") as fh:
            jsonschema.validate(report, json.load(fh))
        table = read(out, "eval_table.txt")
        assert "label-propagation" in table

    def test_both_propagation_rows_use_configured_solver(self, tmp_path,
                                                        monkeypatch):
        calls = []
        build = ev.label_prop_expander

        def recording_build(params, **kwargs):
            calls.append((params.alpha, kwargs))
            return build(params, **kwargs)

        monkeypatch.setattr(ev, "label_prop_expander", recording_build)
        batch_file = tmp_path / "batch_params.json"
        batch_file.write_text(json.dumps(dict(PARAMS, alpha=5.0)),
                              encoding="utf-8")
        config = write_config(tmp_path, params=PARAMS,
                              batch_params_file=str(batch_file),
                              corpus=data_path("mini_corpus.tsv"),
                              k_folds=3, solver="iterative", tol=1e-9,
                              max_iter=5000)
        assert main(["evaluate", "--config", config]) == 0
        options = {"solver": "iterative", "tol": 1e-9, "max_iter": 5000}
        assert calls == [(6.0, options), (5.0, options)]

    def test_unconverged_fold_fails_without_artifacts(self, tmp_path, capsys):
        config = write_config(tmp_path, params=PARAMS,
                              corpus=data_path("mini_corpus.tsv"),
                              k_folds=3, solver="iterative", max_iter=1)
        assert main(["evaluate", "--config", config]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "fold 0" in err["message"]
        assert "did not converge" in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("k", [0, 1, -2])
    def test_fewer_than_two_folds_refused(self, tmp_path, capsys, k):
        config = write_config(tmp_path, params=PARAMS,
                              corpus=data_path("mini_corpus.tsv"), k_folds=k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["evaluate", "--config", config]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError",
                       "message": "k must be at least 2"}
        assert not (tmp_path / "out").exists()

    def test_one_graph_operator_alive_at_a_time(self, tmp_path, monkeypatch):
        built = []
        build = solver_module.build_transition

        def tracking_build(*args, **kwargs):
            assert all(ref() is None for ref in built)
            tm = build(*args, **kwargs)
            built.append(weakref.ref(tm))
            return tm

        monkeypatch.setattr(solver_module, "build_transition", tracking_build)
        config = write_config(tmp_path, params=PARAMS,
                              batch_params=dict(PARAMS, alpha=5.0),
                              corpus=data_path("mini_corpus.tsv"), k_folds=3)
        assert main(["evaluate", "--config", config]) == 0
        assert len(built) == 2

    def test_class_counts_inline(self, tmp_path):
        config = write_config(tmp_path, params=PARAMS, k_folds=3,
                              class_counts={"anger": 1, "disgust": 1,
                                            "fear": 1, "joy": 9,
                                            "sadness": 1, "surprise": 1})
        assert main(["evaluate", "--config", config]) == 0
        report = json.loads(read(str(tmp_path / "out"), "eval_report.json"))
        assert len(report["rows"]) == 4
        assert report["k"] == 3

    def test_counts_required_for_class_baselines(self, tmp_path, capsys):
        config = write_config(tmp_path, params=PARAMS, k_folds=3)
        assert main(["evaluate", "--config", config]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"


class TestStats:
    def test_fixture_histograms(self, tmp_path):
        config = write_config(tmp_path, corpus=data_path("mini_corpus.tsv"))
        assert main(["stats", "--config", config]) == 0
        stats = json.loads(read(str(tmp_path / "out"), "stats.json"))
        assert stats["labels_per_lemma"] == {"0": 2, "1": 1, "2": 1, "3": 1,
                                             "4": 1, "5": 1, "6": 1}
        assert stats["emotion_words_per_text"] == {"0": 1, "1": 2, "2": 2}
        assert stats["avg_labels_per_lemma"] == pytest.approx(2.625)


class TestBaseline:
    def test_classifies_fixture_corpus(self, tmp_path):
        config = write_config(tmp_path, corpus=data_path("mini_corpus.tsv"))
        assert main(["baseline", "--config", config]) == 0
        out = str(tmp_path / "out")
        rows = read(out, "classifications.tsv").strip().split("\n")
        assert len(rows) == 5
        gold, pred = rows[0].split("\t")[:2]
        assert gold == "joy" and pred == "joy"  # "love love table"
        no_evidence = [row.split("\t")[-1] for row in rows]
        assert no_evidence[2] == "1"  # "nothing scary here"
        metrics = json.loads(read(out, "baseline_metrics.json"))
        assert metrics["precision"] == metrics["recall"] == metrics["f1"]

    def test_empty_corpus_exits_zero(self, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        config = write_config(tmp_path, corpus=str(empty))
        assert main(["baseline", "--config", config]) == 0
        assert read(str(tmp_path / "out"), "classifications.tsv") == ""


class TestFlags:
    FLAG_VALUES = {"--seed": "3", "--out": "o", "--solver": "cg",
                   "--kernel": "euclidean", "--mode": "batch"}

    @pytest.mark.parametrize("command, flags", [
        ("expand", ["--out", "--solver", "--kernel"]),
        ("optimize", ["--seed", "--out", "--mode"]),
        ("evaluate", ["--seed", "--out", "--solver", "--kernel"]),
        ("stats", ["--out"]),
        ("baseline", ["--out"]),
    ])
    def test_each_command_takes_only_its_flags(self, command, flags):
        argv = [command]
        for flag in flags:
            argv += [flag, self.FLAG_VALUES[flag]]
        data = RunConfig.from_args(build_parser().parse_args(argv)).data
        assert data == {flag[2:]: (3 if flag == "--seed"
                                   else self.FLAG_VALUES[flag])
                        for flag in flags}
        for flag in set(self.FLAG_VALUES) - set(flags):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([command, flag,
                                           self.FLAG_VALUES[flag]])
            assert exc.value.code == 2

    def test_stats_refuses_solver_flag(self, tmp_path):
        config = write_config(tmp_path, corpus=data_path("mini_corpus.tsv"))
        with pytest.raises(SystemExit) as exc:
            main(["stats", "--config", config, "--solver", "cg"])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()


class TestFiniteArtifacts:
    def test_write_json_refuses_infinity(self, tmp_path):
        path = str(tmp_path / "x.json")
        with pytest.raises(ValueError):
            _write_json(path, {"bound": float("inf")})
        assert not os.path.exists(path)

    # The seed's six flags are all set, so every row starts uniform: a solve
    # of zero sweeps would leave a zero residual and count as converged.
    def test_zero_iterations_refused_without_artifacts(self, tmp_path, capsys):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("4 2\na 1 0\nb 0 1\nc 1 1\nd 1 -1\n",
                           encoding="utf-8")
        seed = tmp_path / "seed.tsv"
        seed.write_text("".join("a\t%s\t1\n" % e for e in (
            "anger", "disgust", "fear", "joy", "sadness", "surprise")),
            encoding="utf-8")
        config = write_config(tmp_path, embeddings=str(vectors),
                              seed_lexicon=str(seed), params=PARAMS,
                              solver="iterative", max_iter=0)
        assert main(["expand", "--config", config]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["message"] == "max_iter must be at least 1"
        assert not (tmp_path / "out").exists()
