import json
import os
import warnings
import weakref

import jsonschema
import pytest

import emolex.cli as cli
import emolex.solver as solver_module
from emolex import (EmotionSet, PropagationParams, build_transition,
                    evaluate as ev, init_label_matrix, load_embeddings,
                    load_seed_lexicon, propagate_closed_form)
from emolex.cli import RunConfig, _write_json, build_parser, main

from conftest import (REFUSED_FIT_INIT, UNCERTIFIED_FIT_RATE,
                      UNCERTIFIED_FIT_SEED, data_path, refused_fit_instance)

PARAMS = {"kernel": "cosine-logistic", "alpha": 6.0, "b": -2.0,
          "epsilon": 0.05}
NAN = float("nan")


def write_config(tmp_path, name="config.json", **overrides):
    data = {"embeddings": data_path("mini_vectors.txt"),
            "seed_lexicon": data_path("mini_nrc.tsv"),
            "out": str(tmp_path / "out")}
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def write_refused_fit_config(tmp_path, store_seed, learning_rate):
    """The config of a 40-epoch full fit from REFUSED_FIT_INIT at
    `learning_rate` on `refused_fit_instance(..., store_seed)`, its
    vectors and seeds written beside it."""
    store, seed = refused_fit_instance(EmotionSet(), store_seed)
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("%d %d\n" % store.vectors.shape + "".join(
        "%s %s\n" % (word, " ".join(map(repr, row.tolist())))
        for word, row in zip(store.vocab, store.vectors)),
        encoding="utf-8")
    lexicon = tmp_path / "seed.tsv"
    lexicon.write_text("".join(
        "%s\t%s\t1\n" % (word, name)
        for word, flags in seed.entries.items()
        for name, flag in zip(seed.emotions, flags) if flag),
        encoding="utf-8")
    return write_config(tmp_path, embeddings=str(vectors),
                        seed_lexicon=str(lexicon), fit={
                            "mode": "full", "epochs": 40,
                            "learning_rate": learning_rate,
                            "init": REFUSED_FIT_INIT})


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
        assert report["solve"]["method"] == "cg"
        assert 0.0 < report["solve"]["min_labeled_mass"] <= 1.0
        assert 1.0 <= report["solve"]["cond_bound"] <= 1e12
        assert report["solve"]["converged"]
        assert report["solve"]["error_bound"] <= 1e-6

    # --solver is a usage error: expand always runs CG, and its rows agree
    # with the closed form's.
    def test_cg_solver_flag(self, tmp_path):
        config = write_config(tmp_path, params=PARAMS)
        with pytest.raises(SystemExit) as exc:
            main(["expand", "--config", config, "--solver", "cg"])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()
        assert main(["expand", "--config", config]) == 0
        out = str(tmp_path / "out")
        report = json.loads(read(out, "expand_report.json"))
        assert report["solve"]["method"] == "cg"
        assert report["solve"]["converged"]
        store = load_embeddings(data_path("mini_vectors.txt"))
        label_matrix, _ = init_label_matrix(store.vocab, load_seed_lexicon(
            data_path("mini_nrc.tsv"), EmotionSet()))
        closed, _ = propagate_closed_form(build_transition(
            store, PropagationParams.from_dict(PARAMS),
            label_matrix.labeled_mask), label_matrix)
        lines = read(out, "expanded_lexicon.tsv").strip().split("\n")[1:]
        assert len(lines) == len(store.vocab)
        for line in lines:
            token, *values, _ = line.split("\t")
            assert [float(v) for v in values] == pytest.approx(
                closed.rows[store.vocab.index[token]], abs=1e-6)

    # CG stops at max_iter 1. The closed form, which only the factorized
    # folds of `evaluate` run, cannot reach a tol below its rounding.
    @pytest.mark.parametrize("command, prefix, options", [
        ("evaluate", "fold 0: closed-form",
         {"tol": 1e-300, "corpus": data_path("mini_corpus.tsv"),
          "k_folds": 3}),
        ("expand", "cg", {"max_iter": 1})], ids=["closed", "cg"])
    def test_unconverged_solve_fails_without_artifacts(
            self, tmp_path, capsys, command, prefix, options):
        config = write_config(tmp_path, params=PARAMS, **options)
        assert main([command, "--config", config]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConvergenceError"
        assert err["message"].startswith("%s solve did not converge" % prefix)
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

    # A dropped misspelt key would leave epsilon at its default 0.0.
    def test_unknown_params_key_refused(self, tmp_path, capsys):
        params = {"kernel": "cosine-logistic", "alpha": 6.0, "b": -2.0,
                  "epsilom": 0.1}
        config = write_config(tmp_path, params=params)
        assert main(["expand", "--config", config]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "epsilom" in err["message"]
        assert not (tmp_path / "out").exists()

    # The RBF kernel ignores alpha and b, and the sidecar is built before
    # the first write, so a sidecar failure cannot leave a lexicon behind.
    def test_rbf_ignores_alpha_and_b(self, tmp_path):
        rbf = {"kernel": "euclidean-rbf", "epsilon": 0.1, "sigma": 1.5}
        config = write_config(tmp_path, params=dict(rbf, alpha=6.0, b=-2.0))
        assert main(["expand", "--config", config]) == 0
        plain = write_config(tmp_path, name="plain.json", params=rbf,
                             out=str(tmp_path / "plain"))
        assert main(["expand", "--config", plain]) == 0
        for name in ("expanded_lexicon.tsv", "expanded_lexicon.json"):
            assert (read(str(tmp_path / "out"), name, "rb")
                    == read(str(tmp_path / "plain"), name, "rb"))
        report = json.loads(read(str(tmp_path / "out"), "expand_report.json"))
        assert report["params"]["kernel"] == "euclidean-rbf"

    # NaN compares false with 0, so `tol <= 0` lets it through to the solve.
    def test_nan_tol_refused_without_artifacts(self, tmp_path, capsys):
        config = write_config(tmp_path, params=PARAMS, tol=NAN)
        assert main(["expand", "--config", config]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError",
                       "message": "tol must be positive"}
        assert not (tmp_path / "out").exists()

    # JSON reads Infinity: the run used to solve, write both lexicon files
    # and then fail writing the report.
    def test_infinite_b_refused_without_artifacts(self, tmp_path, capsys):
        config = write_config(tmp_path, params=dict(PARAMS, b=float("inf")))
        assert main(["expand", "--config", config]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": "b must be finite"}
        assert not (tmp_path / "out").exists()

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
        fit = {"mode": "batch", "batch_size": 6, "num_batches": 4,
               "epochs_per_batch": 3, "learning_rate": 0.1}
        config = write_config(tmp_path, fit=fit, seed=11)
        assert main(["optimize", "--config", config]) == 0
        meta = json.loads(read(str(tmp_path / "out"), "optimize_meta.json"))
        assert meta["optimizer"]["mode"] == "batch"
        assert meta["params_epoch"] is None
        assert meta["optimizer"]["batch_size"] == 6
        assert meta["optimizer"]["rng_seed"] == 11

    @pytest.mark.parametrize("mode", ["full", "batch"])
    def test_optimize_then_expand_with_params_file(self, tmp_path, mode):
        config = write_config(tmp_path, fit={
            "mode": mode, "epochs": 3, "batch_size": 6, "num_batches": 4,
            "learning_rate": 0.1})
        assert main(["optimize", "--config", config]) == 0
        params_file = str(tmp_path / "out" / "params.json")
        config2 = write_config(tmp_path, name="expand.json",
                               params_file=params_file,
                               out=str(tmp_path / "out2"))
        assert main(["expand", "--config", config2]) == 0
        assert os.path.exists(str(tmp_path / "out2" / "expanded_lexicon.tsv"))

    # The full fit used to exit 0 here and write a params.json that
    # `emolex expand` refuses.
    def test_params_expand_refuses_fail_without_artifacts(self, tmp_path,
                                                           capsys):
        config = write_refused_fit_config(tmp_path, 1, 3e3)
        assert main(["optimize", "--config", config]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "GradientError"
        assert "expand refuses" in err["message"]
        assert "condition bound 5.44e+13" in err["message"]
        assert not (tmp_path / "out").exists()

    # Here the fitted graph's condition bound is accepted, but `expand`
    # refuses its solve; the fit used to exit 0.
    def test_uncertified_params_fail_without_artifacts(self, tmp_path,
                                                       capsys):
        config = write_refused_fit_config(tmp_path, UNCERTIFIED_FIT_SEED,
                                          UNCERTIFIED_FIT_RATE)
        assert main(["optimize", "--config", config]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "GradientError"
        assert err["message"] == (
            "fitted parameters give a graph that expand refuses: (I - T_uu) "
            "is not positive definite; consider epsilon smoothing")
        assert not (tmp_path / "out").exists()

    # The fit's acceptance solve runs CG at the config's tol and max_iter;
    # the fit used to read neither and exit 0 here, with a params.json that
    # `emolex expand` refuses.
    @pytest.mark.parametrize("mode", ["full", "batch"])
    def test_uncertified_at_config_tol_fails_without_artifacts(
            self, tmp_path, capsys, mode):
        config = write_config(tmp_path, fit={
            "mode": mode, "epochs": 2, "batch_size": 6, "num_batches": 2,
            "learning_rate": 0.1}, tol=1e-300, max_iter=1)
        assert main(["optimize", "--config", config]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "GradientError"
        assert err["message"].startswith(
            "fitted parameters give a graph that expand refuses: ")
        assert not (tmp_path / "out").exists()

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

    # NaN compares false with 0, so `learning_rate <= 0` lets it through.
    def test_nan_learning_rate_refused(self, tmp_path, capsys):
        config = write_config(tmp_path, fit={"mode": "full", "epochs": 2,
                                             "learning_rate": NAN})
        assert main(["optimize", "--config", config]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError",
                       "message": "learning_rate must be positive"}
        assert not (tmp_path / "out").exists()

    def test_conflicting_params_and_fit(self, tmp_path, capsys):
        config = write_config(tmp_path, params=PARAMS,
                              fit={"mode": "full", "epochs": 2})
        assert main(["optimize", "--config", config]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"

    # optimize_meta.json's optimizer record is a fit request that reruns the
    # fit; it used to lack the init, so a rerun started from alpha 0.
    @pytest.mark.parametrize("mode", ["full", "batch"])
    def test_meta_reruns_the_fit(self, tmp_path, mode):
        config = write_config(tmp_path, fit={
            "mode": mode, "epochs": 3, "batch_size": 6, "num_batches": 2,
            "learning_rate": 0.5, "init": {"alpha": 3, "epsilon": 0.2}},
            seed=4)
        assert main(["optimize", "--config", config]) == 0
        meta = json.loads(read(str(tmp_path / "out"), "optimize_meta.json"))
        assert meta["optimizer"]["init"] == {"alpha": 3.0, "b": 0.0,
                                             "epsilon": 0.2}
        rerun = write_config(tmp_path, name="rerun.json",
                             fit=meta["optimizer"], out=str(tmp_path / "again"))
        assert main(["optimize", "--config", rerun]) == 0
        for name in ("params.json", "trace.csv", "optimize_meta.json"):
            assert (read(str(tmp_path / "again"), name, "rb")
                    == read(str(tmp_path / "out"), name, "rb"))

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
                              k_folds=3, tol=1e-9, max_iter=5000)
        assert main(["evaluate", "--config", config]) == 0
        options = {"tol": 1e-9, "max_iter": 5000}
        assert calls == [(6.0, options), (5.0, options)]

    def test_unconverged_fold_fails_without_artifacts(self, tmp_path, capsys,
                                                      monkeypatch):
        monkeypatch.setattr(solver_module, "CLOSED_FORM_MAX_UNLABELED", 0)
        config = write_config(tmp_path, params=PARAMS,
                              corpus=data_path("mini_corpus.tsv"),
                              k_folds=3, max_iter=1)
        assert main(["evaluate", "--config", config]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConvergenceError"
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

    def test_rbf_ignores_alpha_and_b(self, tmp_path):
        config = write_config(tmp_path, params={"kernel": "euclidean-rbf",
                                                "alpha": 6.0, "b": -2.0,
                                                "epsilon": 0.1, "sigma": 1.5},
                              corpus=data_path("mini_corpus.tsv"), k_folds=3)
        assert main(["evaluate", "--config", config]) == 0
        report = json.loads(read(str(tmp_path / "out"), "eval_report.json"))
        assert report["rows"][-1]["params"]["kernel"] == "euclidean-rbf"

    # Each propagation row is scored under the kernel it names.
    def test_each_row_keeps_its_kernel(self, tmp_path):
        config = write_config(tmp_path, params=PARAMS,
                              batch_params={"kernel": "euclidean-rbf",
                                            "epsilon": 0.1, "sigma": 2.0},
                              corpus=data_path("mini_corpus.tsv"), k_folds=3)
        assert main(["evaluate", "--config", config]) == 0
        report = json.loads(read(str(tmp_path / "out"), "eval_report.json"))
        assert [row["params"]["kernel"] for row in report["rows"][3:]] == [
            "cosine-logistic", "euclidean-rbf"]

    def test_rbf_batch_row_without_sigma_refused(self, tmp_path, capsys):
        config = write_config(tmp_path, params=PARAMS,
                              batch_params={"kernel": "euclidean-rbf",
                                            "epsilon": 0.05},
                              corpus=data_path("mini_corpus.tsv"), k_folds=3)
        assert main(["evaluate", "--config", config]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": "euclidean-rbf "
                       "kernel requires positive sigma"}
        assert not (tmp_path / "out").exists()

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


class TestEmotionOrder:
    """The "emotions" key is where the emotion set comes in: it fixes the
    order of every distribution's components."""

    REVERSED = ["surprise", "sadness", "joy", "fear", "disgust", "anger"]

    @staticmethod
    def rows(out):
        lines = read(out, "expanded_lexicon.tsv").strip().split("\n")
        return lines[0].split("\t"), {
            row.split("\t")[0]: row.split("\t")[1:] for row in lines[1:]}

    def test_expand_follows_configured_order(self, tmp_path):
        config = write_config(tmp_path, params=PARAMS, emotions=self.REVERSED)
        assert main(["expand", "--config", config]) == 0
        default = write_config(tmp_path, name="default.json", params=PARAMS,
                               out=str(tmp_path / "default"))
        assert main(["expand", "--config", default]) == 0
        header, rows = self.rows(str(tmp_path / "out"))
        assert header == ["token", *self.REVERSED, "source"]
        assert [float(p) for p in rows["hate"][:-1]] == [0, 0, 0, 0, 0.5, 0.5]
        _, default_rows = self.rows(str(tmp_path / "default"))
        for token, row in rows.items():
            if row[-1] == "labeled":
                assert row[:-1] == default_rows[token][-2::-1]

    def test_evaluate_scores_match_default_order(self, tmp_path):
        def per_fold(out):
            report = json.loads(read(out, "eval_report.json"))
            return {r["method"]: r["per_fold"] for r in report["rows"]}

        options = dict(params=PARAMS, corpus=data_path("mini_corpus.tsv"),
                       k_folds=3)
        config = write_config(tmp_path, emotions=self.REVERSED, **options)
        assert main(["evaluate", "--config", config]) == 0
        default = write_config(tmp_path, name="default.json",
                               out=str(tmp_path / "default"), **options)
        assert main(["evaluate", "--config", default]) == 0
        reversed_scores = per_fold(str(tmp_path / "out"))
        default_scores = per_fold(str(tmp_path / "default"))
        assert list(reversed_scores) == list(default_scores)
        for method, scores in reversed_scores.items():
            assert scores == pytest.approx(default_scores[method], abs=1e-12)


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
    # No command takes --solver, --kernel or --mode: the code picks the
    # solver, a params row names its kernel and a fit request its mode.
    FLAG_VALUES = {"--seed": "3", "--out": "o", "--solver": "cg",
                   "--kernel": "euclidean", "--mode": "batch"}

    @pytest.mark.parametrize("command, flags", [
        ("expand", ["--out"]),
        ("optimize", ["--seed", "--out"]),
        ("evaluate", ["--seed", "--out"]),
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


class TestConfigChecks:
    """A config that no command can run is refused before any input is
    read: exit 1, one error line, no `out` directory. A ConfigError is the
    config's shape; a ValueError is the refusal of a value by the function
    that takes it, the same as a library call gets."""

    FIT = {"mode": "full", "epochs": 2, "learning_rate": 0.5}

    @staticmethod
    def refused(tmp_path, capsys, monkeypatch, command, error="ConfigError",
                **overrides):
        def no_load(path, *args):
            raise AssertionError("an input was read: %s" % path)
        monkeypatch.setattr(cli, "load_embeddings", no_load)
        monkeypatch.setattr(cli, "load_seed_lexicon", no_load)
        overrides = dict({"corpus": data_path("mini_corpus.tsv")}, **overrides)
        config = write_config(tmp_path, **overrides)
        assert main([command, "--config", config]) == 1
        assert not (tmp_path / "out").exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == error
        return err["message"]

    # A misspelt key is refused, not dropped: dropped, this config would run
    # at tol 1e-6.
    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_unknown_key_refused(self, tmp_path, capsys, monkeypatch,
                                 command):
        message = self.refused(tmp_path, capsys, monkeypatch, command,
                               params=PARAMS, tols=1e-30, max_iter=1,
                               solvr="cg")
        assert message == "unknown config keys: 'solvr', 'tols'"

    # "solver", "kernel" and "mode" are no keys either: the code picks the
    # solver, a params row names its kernel and a fit request its mode, so
    # a config that names one at the top level is refused like a misspelt
    # key.
    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_unknown_solver_refused(self, tmp_path, capsys, monkeypatch,
                                    command):
        run = {"fit": self.FIT} if command == "optimize" else {"params": PARAMS}
        for key, value in (("solver", "gmres"), ("kernel", "euclidean"),
                           ("mode", "batch")):
            message = self.refused(tmp_path, capsys, monkeypatch, command,
                                   **run, **{key: value})
            assert message == "unknown config keys: %r" % key

    # Refused, not truncated: k_folds 2.7 would run 2 folds, JSON true 1.
    # The message names the parameter of the function that takes the value.
    @pytest.mark.parametrize("command, key, value", [
        ("expand", "max_iter", 2.9), ("expand", "max_iter", True),
        ("evaluate", "max_iter", 2.9), ("evaluate", "k_folds", 2.7),
        ("evaluate", "k_folds", True), ("evaluate", "seed", 1.5),
        ("optimize", "seed", 1.5), ("optimize", "seed", False),
        ("expand", "max_iter", "10"), ("expand", "max_iter", {"a": 1}),
        ("evaluate", "k_folds", "3"), ("evaluate", "k_folds", None),
        ("evaluate", "seed", [1]), ("optimize", "seed", [1]),
        ("optimize", "seed", None)])
    def test_non_integer_refused(self, tmp_path, capsys, monkeypatch, command,
                                 key, value):
        run = {"fit": self.FIT} if command == "optimize" else {"params": PARAMS}
        message = self.refused(tmp_path, capsys, monkeypatch, command,
                               "ValueError", **run, **{key: value})
        name = {"k_folds": "k", "seed": "rng_seed"}.get(key, key)
        assert message == "%s must be an integer, not %r" % (name, value)

    # The solver options are refused as every solve refuses them, before
    # any input is read. Else JSON true would run at tol 1.0, Infinity at
    # no tol at all, and max_iter 0 whenever the folds take the closed form.
    @pytest.mark.parametrize("command", ["expand", "evaluate"])
    @pytest.mark.parametrize("key, value, error, message", [
        ("tol", True, "ValueError", "tol must be a number, not True"),
        ("tol", "1e-6", "ValueError", "tol must be a number, not '1e-6'"),
        ("tol", float("inf"), "ValueError", "tol must be finite"),
        ("tol", 0, "ValueError", "tol must be positive"),
        ("tol", NAN, "ValueError", "tol must be positive"),
        ("max_iter", 0, "ValueError", "max_iter must be at least 1")])
    def test_bad_solver_option_refused(self, tmp_path, capsys, monkeypatch,
                                       command, key, value, error, message):
        assert self.refused(tmp_path, capsys, monkeypatch, command, error,
                            params=PARAMS, **{key: value}) == message

    # optimize refuses them alike: its acceptance solve runs at that tol and
    # max_iter. It used to read none of them and fit at tol -1.
    @pytest.mark.parametrize("key, value, message", [
        ("tol", -1, "tol must be positive"),
        ("max_iter", 0, "max_iter must be at least 1")])
    def test_optimize_refuses_bad_solver_option(self, tmp_path, capsys,
                                                monkeypatch, key, value,
                                                message):
        assert self.refused(tmp_path, capsys, monkeypatch, "optimize",
                            "ValueError", fit=self.FIT,
                            **{key: value}) == message

    # A count of the fit request must be an integer and its rate a number:
    # a bool used to run as 1 and echo true in optimize_meta.json, and a
    # string or a fraction to fail with a TypeError.
    @pytest.mark.parametrize("key, value, message", [
        ("epochs", True, "epochs must be an integer, not True"),
        ("epochs", 2.5, "epochs must be an integer, not 2.5"),
        ("epochs", "3", "epochs must be an integer, not '3'"),
        ("rng_seed", 1.5, "rng_seed must be an integer, not 1.5"),
        ("learning_rate", True, "learning_rate must be a number, not True"),
        ("learning_rate", "0.5",
         "learning_rate must be a number, not '0.5'")])
    def test_fit_non_number_refused(self, tmp_path, capsys, monkeypatch, key,
                                    value, message):
        assert self.refused(tmp_path, capsys, monkeypatch, "optimize",
                            "ValueError",
                            fit=dict(self.FIT, **{key: value})) == message

    # Each of these used to be read only after the inputs had loaded: a
    # negative seed then failed in numpy or ran and echoed -2, an infinite
    # rate ran four attempts and the init was checked at the first step.
    @pytest.mark.parametrize("overrides, message", [
        ({"fit": dict(FIT, rng_seed=-1)}, "rng_seed must be >= 0"),
        ({"fit": dict(FIT, mode="batch"), "seed": -1},
         "rng_seed must be >= 0"),
        ({"fit": FIT, "seed": -2}, "rng_seed must be >= 0"),
        ({"fit": dict(FIT, learning_rate=float("inf"))},
         "learning_rate must be finite"),
        ({"fit": dict(FIT, init={"alpha": float("inf")})},
         "alpha must be finite"),
        ({"fit": dict(FIT, init={"alpha": [1.0, NAN]})},
         "alpha must be finite"),
        ({"fit": dict(FIT, init={"alpha": 3.0, "b": float("inf"),
                                 "epsilon": 0.1})}, "b must be finite"),
        ({"fit": dict(FIT, init={"b": NAN})}, "b must be finite"),
        ({"fit": dict(FIT, init={"alpa": 3.0})},
         "unknown init key(s) alpa: init takes only alpha, b and epsilon"),
        ({"fit": dict(FIT, init={"epsilon": 1.5})},
         "init epsilon must be in the open interval (0, 1)"),
        ({"fit": dict(FIT, init={"b": True})}, "b must be a number, not True"),
        ({"fit": dict(FIT, init={"epsilon": "0.1"})},
         "epsilon must be a number, not '0.1'"),
        ({"fit": dict(FIT, init=[1])}, "init must be an object, not [1]"),
        ({"fit": dict(FIT, foo=1)}, "unknown fit key(s) foo: a fit takes "
         "only mode, learning_rate, epochs, unroll_steps, batch_size, "
         "num_batches, epochs_per_batch, rng_seed, init")],
        ids=["rng_seed-negative", "batch-seed-negative", "seed-negative",
             "learning_rate-inf", "init-alpha-inf", "init-alpha-nan",
             "init-b-inf", "init-b-nan", "init-misspelt-key",
             "init-epsilon-1.5", "init-b-true", "init-epsilon-string",
             "init-list", "fit-unknown-key"])
    def test_bad_fit_number_refused(self, tmp_path, capsys, monkeypatch,
                                    overrides, message):
        assert self.refused(tmp_path, capsys, monkeypatch, "optimize",
                            "ValueError", **overrides) == message

    @pytest.mark.parametrize("key, value, message", [
        ("k_folds", 1, "k must be at least 2"),
        ("seed", -1, "rng_seed must be >= 0")],
        ids=["k_folds-1", "seed-negative"])
    def test_bad_fold_option_refused(self, tmp_path, capsys, monkeypatch,
                                     key, value, message):
        assert self.refused(tmp_path, capsys, monkeypatch, "evaluate",
                            "ValueError", params=PARAMS,
                            **{key: value}) == message

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_missing_out_refused(self, tmp_path, capsys, monkeypatch,
                                 command):
        run = {"fit": self.FIT} if command == "optimize" else {"params": PARAMS}
        assert self.refused(tmp_path, capsys, monkeypatch, command, out=None,
                            **run) == "an output directory ('out') is required"

    # A params file used to be opened, and a row checked, only after the
    # inputs had loaded. A row given inline and as a file used to run on the
    # file's row and drop the inline one.
    @pytest.mark.parametrize("command, overrides, error, message", [
        ("expand", {"params_file": "absent.json"}, "ConfigError",
         "params_file path does not exist: absent.json"),
        ("evaluate", {"params_file": "absent.json"}, "ConfigError",
         "params_file path does not exist: absent.json"),
        ("evaluate", {"params": PARAMS, "batch_params_file": "absent.json"},
         "ConfigError", "batch_params_file path does not exist: absent.json"),
        ("expand", {"params": dict(PARAMS, epsilon=1.5)}, "ValueError",
         "epsilon must be in [0, 1)"),
        ("evaluate", {"params": dict(PARAMS, epsilon=1.5)}, "ValueError",
         "epsilon must be in [0, 1)"),
        ("evaluate", {"params": PARAMS,
                      "batch_params": dict(PARAMS, epsilon=1.5)},
         "ValueError", "epsilon must be in [0, 1)"),
        ("expand", {"params": {"alpha": "8", "b": True, "epsilon": 0.02}},
         "ValueError", "alpha must be a number, not '8'"),
        ("evaluate", {"params": dict(PARAMS, b=True)}, "ValueError",
         "b must be a number, not True"),
        ("expand", {"params_file": "list.json"}, "ConfigError",
         "'params_file' must be a JSON object, not [1]"),
        ("expand", {"params": PARAMS, "params_file": "row.json"},
         "ConfigError", "give 'params' inline or in a file, not both"),
        ("evaluate", {"params": PARAMS, "batch_params": PARAMS,
                      "batch_params_file": "row.json"}, "ConfigError",
         "give 'batch_params' inline or in a file, not both")],
        ids=["expand-params_file", "evaluate-params_file",
             "evaluate-batch_params_file", "expand-params",
             "evaluate-params", "evaluate-batch_params",
             "expand-params-string-alpha", "evaluate-params-bool-b",
             "expand-params_file-list", "expand-params-and-file",
             "evaluate-batch_params-and-file"])
    def test_bad_params_row_refused(self, tmp_path, capsys, monkeypatch,
                                    command, overrides, error, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "list.json").write_text("[1]", encoding="utf-8")
        (tmp_path / "row.json").write_text(json.dumps(dict(PARAMS, alpha=2.0)),
                                           encoding="utf-8")
        assert self.refused(tmp_path, capsys, monkeypatch, command, error,
                            **overrides) == message

    # Such counts used to end in a bare KeyError: 'disgust' after the
    # inputs had loaded, or to drop the unknown emotion.
    @pytest.mark.parametrize("counts, message", [
        ({"anger": 1}, "missing disgust, fear, joy, sadness, surprise; "
                       "unknown none"),
        ({name: 1 for name in EmotionSet()} | {"love": 2, "awe": 1},
         "missing none; unknown awe, love")],
        ids=["lacks-emotions", "unknown-emotions"])
    def test_bad_class_counts_refused(self, tmp_path, capsys, monkeypatch,
                                      counts, message):
        assert self.refused(tmp_path, capsys, monkeypatch, "evaluate",
                            params=PARAMS, class_counts=counts) == (
            "'class_counts' must count each emotion once: " + message)

    # Empty counts used to be dropped: with a corpus the run scored the
    # corpus counts, and without one it said that the counts were missing.
    @pytest.mark.parametrize("corpus", [data_path("mini_corpus.tsv"), None],
                             ids=["with-corpus", "without-corpus"])
    def test_empty_class_counts_refused(self, tmp_path, capsys, monkeypatch,
                                        corpus):
        assert self.refused(tmp_path, capsys, monkeypatch, "evaluate",
                            params=PARAMS, class_counts={}, corpus=corpus) == (
            "'class_counts' must count each emotion once: missing anger, "
            "disgust, fear, joy, sadness, surprise; unknown none")

    # A string count used to be read as a number and a negative count to
    # fail only once the inputs had loaded, in the KL score.
    @pytest.mark.parametrize("value, message", [
        ("3", "class count must be a number, not '3'"),
        (True, "class count must be a number, not True"),
        (-5, "class counts must be finite and not negative")])
    def test_bad_class_count_value_refused(self, tmp_path, capsys,
                                           monkeypatch, value, message):
        counts = {name: 1 for name in EmotionSet()} | {"joy": value}
        assert self.refused(tmp_path, capsys, monkeypatch, "evaluate",
                            "ValueError", params=PARAMS,
                            class_counts=counts) == message

    # A section of another JSON type used to fail with Python's own text,
    # and a bare string of emotions to become the set of its letters.
    @pytest.mark.parametrize("command, overrides, error, message", [
        ("optimize", {"fit": [1]}, "ConfigError",
         "'fit' must be a JSON object, not [1]"),
        ("expand", {"params": [1]}, "ConfigError",
         "'params' must be a JSON object, not [1]"),
        ("evaluate", {"params": PARAMS, "batch_params": "x"}, "ConfigError",
         "'batch_params' must be a JSON object, not 'x'"),
        ("evaluate", {"params": PARAMS, "class_counts": [1]}, "ConfigError",
         "'class_counts' must be a JSON object, not [1]"),
        ("expand", {"params": PARAMS, "emotions": "joy"}, "ValueError",
         "emotions must be a list of names, not 'joy'"),
        ("stats", {"emotions": "joy"}, "ValueError",
         "emotions must be a list of names, not 'joy'")],
        ids=["fit", "params", "batch_params", "class_counts",
             "expand-emotions", "stats-emotions"])
    def test_wrong_json_shape_refused(self, tmp_path, capsys, monkeypatch,
                                      command, overrides, error, message):
        assert self.refused(tmp_path, capsys, monkeypatch, command, error,
                            **overrides) == message

    # A value that is present but empty reaches its owner, which refuses
    # it; each used to be replaced by its default, and the empty batch row
    # dropped from eval_report.json.
    @pytest.mark.parametrize("command, overrides, message", [
        ("expand", {"params": PARAMS, "emotions": []},
         "emotion set must be non-empty"),
        ("stats", {"emotions": ""},
         "emotions must be a list of names, not ''"),
        ("expand", {"params": dict(PARAMS, kernel="")}, "unknown kernel ''"),
        ("optimize", {"fit": dict(FIT, mode="")},
         "mode must be 'full' or 'batch'"),
        ("evaluate", {"params": PARAMS, "batch_params": {}},
         "cosine-logistic kernel requires alpha and b")],
        ids=["emotions-list", "emotions-string", "kernel", "mode",
             "batch_params"])
    def test_empty_value_refused(self, tmp_path, capsys, monkeypatch,
                                 command, overrides, message):
        assert self.refused(tmp_path, capsys, monkeypatch, command,
                            "ValueError", **overrides) == message

    # Such a file used to fail with a TypeError when --out was given, and as
    # "unknown config keys: 1" when it was not.
    @pytest.mark.parametrize("flags", [[], ["--out", "out"]],
                             ids=["config-only", "out-flag"])
    def test_top_level_not_object_refused(self, tmp_path, capsys,
                                          monkeypatch, flags):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.json").write_text("[1]", encoding="utf-8")
        assert main(["expand", "--config", "config.json"] + flags) == 1
        assert not (tmp_path / "out").exists()
        assert json.loads(capsys.readouterr().err) == {
            "error": "ConfigError",
            "message": "a config file must hold a JSON object, not [1]"}

    # A path of another JSON type used to fail with Python's own text.
    @pytest.mark.parametrize("command, key, value", [
        ("expand", "out", 5), ("optimize", "seed_lexicon", ["x"]),
        ("evaluate", "corpus", ["x"]), ("stats", "corpus", 1.5),
        ("evaluate", "params_file", {"a": 1}),
        ("evaluate", "batch_params_file", True),
        ("stats", "embeddings", [])])
    def test_non_string_path_refused(self, tmp_path, capsys, monkeypatch,
                                     command, key, value):
        run = {"fit": self.FIT} if command == "optimize" else {"params": PARAMS}
        assert self.refused(tmp_path, capsys, monkeypatch, command,
                            **run, **{key: value}) == (
            "%r must be a string, not %r" % (key, value))

    # Each command names the first part of its run that the config lacks.
    @pytest.mark.parametrize("command, missing, message", [
        ("expand", "config", "config file not found: "),
        ("expand", "embeddings", "config key 'embeddings' is required"),
        ("optimize", "seed_lexicon", "config key 'seed_lexicon' is required"),
        ("expand", "out", "an output directory ('out') is required"),
        ("evaluate", "params", "fixed 'params' or a 'params_file' is "
                               "required"),
        ("optimize", "fit", "a 'fit' request is required")])
    def test_missing_part_refused(self, tmp_path, capsys, command, missing,
                                  message):
        run = {"fit": self.FIT} if command == "optimize" else {"params": PARAMS}
        config = write_config(tmp_path, corpus=data_path("mini_corpus.tsv"),
                              **run)
        if missing == "config":
            config = str(tmp_path / "absent.json")
            message += config
        else:
            data = json.loads(read(str(tmp_path), "config.json"))
            del data[missing]
            (tmp_path / "config.json").write_text(json.dumps(data),
                                                  encoding="utf-8")
        assert main([command, "--config", config]) == 1
        assert not (tmp_path / "out").exists()
        assert json.loads(capsys.readouterr().err) == {
            "error": "ConfigError", "message": message}

    def test_integral_float_accepted(self, tmp_path):
        config = write_config(tmp_path, params=PARAMS, k_folds=3.0, seed=1.0,
                              corpus=data_path("mini_corpus.tsv"))
        assert main(["evaluate", "--config", config]) == 0
        report = json.loads(read(str(tmp_path / "out"), "eval_report.json"))
        assert (report["k"], report["rng_seed"]) == (3, 1)

    # An integral float is read as its int: the artifacts are those of the
    # integer config, byte for byte.
    @pytest.mark.parametrize("command, run", [
        ("evaluate", {"params": PARAMS, "k_folds": 3, "seed": 1,
                      "max_iter": 1000}),
        ("optimize", {"fit": dict(FIT, mode="batch", batch_size=6,
                                  num_batches=2), "seed": 7})])
    def test_integral_floats_give_identical_artifacts(self, tmp_path, command,
                                                      run):
        floats = {key: float(value) if type(value) is int else value
                  for key, value in run.items()}
        for name, config in (("ints", run), ("floats", floats)):
            path = write_config(tmp_path, name=name + ".json",
                                corpus=data_path("mini_corpus.tsv"),
                                out=str(tmp_path / name), **config)
            assert main([command, "--config", path]) == 0
        names = sorted(os.listdir(tmp_path / "ints"))
        assert names == sorted(os.listdir(tmp_path / "floats"))
        for name in names:
            assert (read(str(tmp_path / "floats"), name, "rb")
                    == read(str(tmp_path / "ints"), name, "rb"))

    def test_integral_float_fit_count_accepted(self, tmp_path):
        config = write_config(tmp_path, fit=dict(self.FIT, unroll_steps=2.0))
        assert main(["optimize", "--config", config]) == 0
        meta = json.loads(read(str(tmp_path / "out"), "optimize_meta.json"))
        steps = meta["optimizer"]["unroll_steps"]
        assert steps == 2 and type(steps) is int


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
                              max_iter=0)
        assert main(["expand", "--config", config]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["message"] == "max_iter must be at least 1"
        assert not (tmp_path / "out").exists()
