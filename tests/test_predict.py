import contextlib
import hashlib
import io
import math
import tracemalloc

import numpy as np
import pytest

from oracles import per_fit_newton_logreg, per_language_none_predictions
from typovec import predict
from typovec.cli import main
from typovec.predict import (
    Scaler,
    _fit_batch,
    _row_space,
    evaluate,
    export_trajectory,
    make_folds,
    paired_bootstrap,
    select_trajectory_node,
    top_gains,
    train_logreg,
)
from typovec.report import TOP_GAINS
from typovec.typology import FeatureMatrix, FeatureSpec, majority_rate
from typovec.vectors import LangVector


class TestFolds:
    def test_even_split(self):
        folds = make_folds([f"l{i:02d}" for i in range(40)], 10, seed=1)
        sizes = [sum(1 for f in folds.assignment.values() if f == k) for k in range(10)]
        assert sizes == [4] * 10

    def test_remainder_rule(self):
        folds = make_folds([f"l{i:02d}" for i in range(43)], 10, seed=1)
        sizes = sorted((sum(1 for f in folds.assignment.values() if f == k) for k in range(10)),
                       reverse=True)
        assert sizes == [5, 5, 5, 4, 4, 4, 4, 4, 4, 4]

    def test_same_seed_same_assignment(self):
        langs = [f"l{i:02d}" for i in range(25)]
        a = make_folds(langs, 10, seed=7)
        b = make_folds(list(reversed(langs)), 10, seed=7)
        assert a.assignment == b.assignment
        assert a.digest == b.digest

    def test_too_few_languages(self):
        with pytest.raises(ValueError, match="at least"):
            make_folds(["aaa", "bbb"], 10, seed=0)

    def test_partition_is_exhaustive_and_disjoint(self):
        langs = [f"l{i:02d}" for i in range(17)]
        folds = make_folds(langs, 10, seed=3)
        assert sorted(folds.assignment) == sorted(langs)
        assert set(folds.assignment.values()) <= set(range(10))


class TestLogReg:
    def test_degenerate_single_class_predicts_it(self):
        X = np.array([[0.5], [-0.2], [0.1]])
        y = np.ones(3)
        model = train_logreg(X, y, l2=1.0)
        assert np.all(X @ model.weights + model.bias > 0.0)  # logit > 0: probability > 0.5

    def test_separable_1d_reaches_full_accuracy(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([0.0, 1.0])
        model = train_logreg(X, y, l2=0.1)
        logits = X @ model.weights + model.bias
        assert logits[0] < 0.0 < logits[1]

    def test_duplicating_data_changes_nothing(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(12, 3))
        y = (rng.random(12) < 0.5).astype(float)
        m1 = train_logreg(X, y, l2=0.5)
        m2 = train_logreg(np.vstack([X, X]), np.concatenate([y, y]), l2=0.5)
        np.testing.assert_allclose(m1.weights, m2.weights, atol=1e-9)
        assert m1.bias == pytest.approx(m2.bias, abs=1e-9)

    def test_reaches_tight_gradient_norm(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(30, 4))
        y = (X[:, 0] + 0.3 * rng.normal(size=30) > 0).astype(float)
        model = train_logreg(X, y, l2=1.0)
        n = len(y)
        z = X @ model.weights + model.bias
        p = 1.0 / (1.0 + np.exp(-z))
        grad_w = X.T @ (p - y) / n + 1.0 * model.weights
        grad_b = float(np.mean(p - y))
        assert math.hypot(float(np.linalg.norm(grad_w)), grad_b) <= 1e-8

    def test_non_finite_inputs_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            train_logreg(np.array([[np.inf]]), np.array([1.0]), l2=1.0)

    def test_reports_a_fit_stopped_at_max_iter(self, monkeypatch):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(20, 3))
        y = (X[:, 0] > 0).astype(float)
        assert train_logreg(X, y, l2=0.1).converged
        monkeypatch.setattr(predict, "_MAX_ITER", 1)
        assert not train_logreg(X, y, l2=0.1).converged


def _oracle_batches():
    """Batches of fits; each is a list of slots (X, Y) of one shape, whose fits
    share X, one fit per column of Y. They cover n < d and n > d, fold sizes
    that differ by one, slots with different inputs in one batch, a
    single-class column, a column whose gradient is 0 at w = 0 (duplicated
    rows with opposite labels), so it drops out while the other fits of its
    batch go on, and two unstandardized fits (seeds 182 and 232) whose full
    Newton step raises the loss at l2 = 1e-4."""
    rng = np.random.default_rng(29)

    def slot(n, d):
        X = rng.normal(size=(n, d)) * rng.uniform(0.2, 3.0, size=d)
        Y = np.stack([(X[:, 0] - X[:, j] + rng.normal(size=n) > 0) for j in (1, 2, 3)], axis=1)
        return X, Y.astype(float)

    batches = [[slot(8, 20), slot(8, 20)], [slot(9, 20)], [slot(7, 131)],
               [slot(30, 5), slot(30, 5)], [slot(31, 5)], [slot(12, 12)]]
    X = np.repeat(rng.normal(size=(5, 6)), 2, axis=0)
    Y = np.stack([np.tile([0.0, 1.0], 5), np.ones(10), (X[:, 0] + rng.normal(size=10) > 0)], axis=1)
    batches.append([(X, Y.astype(float))])
    halving = []
    for seed in (182, 232):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(8, 3)) * 100.0
        halving.append((X, (rng.random(8) < 0.3).astype(float)[:, None]))
    batches.append(halving)
    return batches


def _fit_row_space(slots, l2):
    """Full-space weights, biases and converged flags of every fit of a batch,
    slot by slot."""
    bases = [_row_space(X) for X, _ in slots]
    slot = np.repeat(np.arange(len(slots)), [Y.shape[1] for _, Y in slots])
    coef, bias, converged = _fit_batch([Z for _, Z in bases], slot,
                                       np.concatenate([Y.T for _, Y in slots]), l2)
    weights = [Q @ c for (Q, _), c in zip((bases[i] for i in slot), coef)]
    return weights, bias, converged


def _fits(slots):
    return [(X, Y[:, j]) for X, Y in slots for j in range(Y.shape[1])]


class TestBatchedSolver:
    @pytest.mark.parametrize("l2", [1.0, 0.1, 1e-4])
    def test_matches_per_fit_newton_oracle(self, l2):
        rng = np.random.default_rng(31)
        for slots in _oracle_batches():
            weights, bias, converged = _fit_row_space(slots, l2)
            assert converged.all()
            for (X, y), w, b in zip(_fits(slots), weights, bias):
                w_ref, b_ref = per_fit_newton_logreg(X, y, l2)
                np.testing.assert_allclose(w, w_ref, rtol=0, atol=1e-9)
                assert abs(b - b_ref) <= 1e-9
                X_test = np.vstack([X, rng.normal(size=(40, X.shape[1]))])
                assert np.array_equal(X_test @ w + b > 0, X_test @ w_ref + b_ref > 0)

    def test_row_space_batch_equals_full_space_single_fits(self):
        for slots in _oracle_batches():
            weights, bias, _ = _fit_row_space(slots, 1.0)
            for (X, y), w, b in zip(_fits(slots), weights, bias):
                model = train_logreg(X, y, l2=1.0)
                np.testing.assert_allclose(w, model.weights, rtol=0, atol=1e-9)
                assert b == pytest.approx(model.bias, abs=1e-9)

    def test_unconverged_fits_are_flagged(self, monkeypatch):
        monkeypatch.setattr(predict, "_MAX_ITER", 2)
        *_, converged = _fit_row_space(_oracle_batches()[6], 1.0)
        # the zero-gradient fit stops at once; the others need more than two steps
        assert converged.tolist() == [True, False, False]

    def test_memory_stays_bounded_as_fits_are_added(self, monkeypatch):
        rng = np.random.default_rng(37)
        Z = [np.hstack([rng.normal(size=(40, 40)), np.ones((40, 1))])]
        Y = (rng.random((64, 40)) < 0.5).astype(float)
        slot = np.zeros(64, dtype=int)

        def fit():
            tracemalloc.start()
            try:
                return _fit_batch(Z, slot, Y, 1.0), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        whole, whole_peak = fit()
        monkeypatch.setattr(predict, "_BATCH_BYTES", 1)  # one fit per batch
        split, split_peak = fit()
        for a, b in zip(whole, split):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
        assert split_peak < whole_peak / 4


def _vectors_for(langs, method, values_fn) -> dict[str, dict[str, LangVector]]:
    return {method: {l: LangVector(l, method, np.asarray(values_fn(l), dtype=float)) for l in langs}}


def _matrix(langs, labels) -> FeatureMatrix:
    return FeatureMatrix(langs, [FeatureSpec("S_X", "syntax")],
                         np.array(labels, dtype=float).reshape(-1, 1))


class TestEvaluate:
    def lang_set(self, n=12):
        return [f"l{i:02d}" for i in range(n)]

    def test_none_without_aux_equals_majority_rate(self):
        langs = self.lang_set(12)
        labels = [1.0] * 9 + [0.0] * 3
        matrix = _matrix(langs, labels)
        folds = make_folds(langs, 4, seed=2)
        report = evaluate(matrix, {}, folds, ["None"], (False,))
        assert report.cell("None", "syntax", False) == pytest.approx(
            100.0 * majority_rate("S_X", matrix)
        )

    def test_none_with_aux_is_threshold_rule(self):
        langs = self.lang_set(12)
        labels = [1.0] * 6 + [0.0] * 6
        matrix = _matrix(langs, labels)
        folds = make_folds(langs, 4, seed=2)
        knn = {l: np.array([2.0 / 3.0 if lab == 1.0 else 1.0 / 3.0])
               for l, lab in zip(langs, labels)}
        report = evaluate(matrix, {}, folds, ["None"], (True,), knn_vectors=knn)
        assert report.cell("None", "syntax", True) == 100.0
        preds = report.predictions[("None", True)]
        assert all(pred == gold for pred, gold in preds.values())

    def test_uninformative_vectors_fall_back_to_majority(self):
        langs = self.lang_set(12)
        labels = [1.0] * 9 + [0.0] * 3
        matrix = _matrix(langs, labels)
        folds = make_folds(langs, 4, seed=2)
        vectors = _vectors_for(langs, "MTVec", lambda l: np.array([1.0, 1.0]))
        report = evaluate(matrix, vectors, folds, ["MTVec"], (False,))
        assert report.cell("MTVec", "syntax", False) == pytest.approx(
            100.0 * majority_rate("S_X", matrix)
        )

    def test_perfect_correlation_reaches_100(self):
        langs = self.lang_set(16)
        labels = [float(i % 2) for i in range(16)]
        matrix = _matrix(langs, labels)
        folds = make_folds(langs, 4, seed=2)
        vectors = _vectors_for(langs, "MTVec",
                               lambda l: np.array([2.0 * float(int(l[1:]) % 2) - 1.0, 0.3]))
        report = evaluate(matrix, vectors, folds, ["MTVec"], (False,))
        assert report.cell("MTVec", "syntax", False) == 100.0

    def test_sparse_feature_excluded_and_logged(self):
        langs = self.lang_set(12)
        values = np.full((12, 2), np.nan)
        values[:, 0] = [1.0] * 6 + [0.0] * 6
        values[0, 1] = 1.0  # S_Y labeled for a single language
        matrix = FeatureMatrix(langs, [FeatureSpec("S_X", "syntax"), FeatureSpec("S_Y", "syntax")], values)
        folds = make_folds(langs, 4, seed=2)
        report = evaluate(matrix, {}, folds, ["None"], (False,))
        assert [f for f, _ in report.excluded] == ["S_Y"]
        assert "S_Y" not in report.feature_accuracy[("None", False)]

    def test_feature_labeled_in_one_fold_gets_no_learned_label(self):
        # no fold trains on it, so the learned cell leaves it out; the None cells grade it
        langs = self.lang_set(12)
        folds = make_folds(langs, 4, seed=2)
        one_fold = [l for l in langs if folds.assignment[l] == 0]
        values = np.full((12, 2), np.nan)
        values[:, 0] = [float(i % 2) for i in range(12)]
        values[[langs.index(l) for l in one_fold], 1] = [1.0, 0.0, 1.0]
        matrix = FeatureMatrix(langs, [FeatureSpec("S_X", "syntax"), FeatureSpec("S_Y", "syntax")], values)
        vectors = _vectors_for(langs, "MTVec", lambda l: np.array([float(int(l[1:]))]))
        report = evaluate(matrix, vectors, folds, ["None", "MTVec"], (False,))
        assert not report.excluded
        assert list(report.feature_accuracy[("MTVec", False)]) == ["S_X"]
        assert {f for _, f in report.predictions[("MTVec", False)]} == {"S_X"}
        assert report.cell("MTVec", "syntax", False) == report.feature_accuracy[("MTVec", False)]["S_X"]
        assert report.feature_accuracy[("None", False)]["S_Y"] == pytest.approx(200.0 / 3.0)
        assert sorted(l for l, f in report.predictions[("None", False)] if f == "S_Y") == one_fold

    def test_fold_digest_is_shared_across_methods(self):
        langs = self.lang_set(12)
        matrix = _matrix(langs, [1.0] * 8 + [0.0] * 4)
        folds = make_folds(langs, 4, seed=2)
        vectors = _vectors_for(langs, "MTVec", lambda l: np.array([float(int(l[1:]))]))
        report = evaluate(matrix, vectors, folds, ["None", "MTVec"], (False,))
        assert report.fold_digest == folds.digest

    def test_no_leakage_same_fold_predictions_unchanged(self):
        langs = self.lang_set(12)
        labels = [float(i % 2) for i in range(12)]
        matrix = _matrix(langs, labels)
        folds = make_folds(langs, 4, seed=5)
        base = {l: np.array([float(int(l[1:])), 1.0]) for l in langs}
        changed_lang = langs[0]
        same_fold = [l for l in langs if folds.assignment[l] == folds.assignment[changed_lang]
                     and l != changed_lang]
        assert same_fold
        v1 = {"MTVec": {l: LangVector(l, "MTVec", base[l]) for l in langs}}
        modified = dict(base)
        modified[changed_lang] = np.array([999.0, -999.0])
        v2 = {"MTVec": {l: LangVector(l, "MTVec", modified[l]) for l in langs}}
        r1 = evaluate(matrix, v1, folds, ["MTVec"], (False,))
        r2 = evaluate(matrix, v2, folds, ["MTVec"], (False,))
        for lang in same_fold:
            assert (r1.predictions[("MTVec", False)][(lang, "S_X")]
                    == r2.predictions[("MTVec", False)][(lang, "S_X")])

    def test_batch_size_does_not_change_predictions(self, monkeypatch):
        langs = self.lang_set(17)
        rng = np.random.default_rng(41)
        values = (rng.random((17, 3)) < 0.5).astype(float)
        values[[2, 9], 2] = np.nan  # S_Z has its own labeled languages
        specs = [FeatureSpec(name, "syntax") for name in ("S_X", "S_Y", "S_Z")]
        matrix = FeatureMatrix(langs, specs, values)
        folds = make_folds(langs, 5, seed=3)  # folds of 3 and 4 languages
        vectors = {"MTVec": {l: LangVector(l, "MTVec", rng.normal(size=30)) for l in langs},
                   "MTCell": {l: LangVector(l, "MTCell", rng.normal(size=6)) for l in langs}}
        whole = evaluate(matrix, vectors, folds, ["MTVec", "MTCell"], (False,))
        # every fold is its own batch and every fit its own chunk
        monkeypatch.setattr(predict, "_BATCH_BYTES", 1)
        split = evaluate(matrix, vectors, folds, ["MTVec", "MTCell"], (False,))
        assert split.predictions == whole.predictions
        assert (split.fits, split.unconverged) == (whole.fits, whole.unconverged) == (30, 0)


class TestInputs:
    """Each (method, aux) cell reads one input row per language of the matrix:
    the method vector, then the k-NN vector under +Aux."""

    langs = [f"l{i:02d}" for i in range(12)]
    labels = [float(i % 3 == 0) for i in range(12)]  # 4 of 12 are 1

    def test_missing_method_vector_names_the_method_and_language(self):
        vectors = _vectors_for(self.langs[1:], "MTVec", lambda l: np.zeros(2))
        with pytest.raises(ValueError, match="missing MTVec vector for language 'l00'"):
            evaluate(_matrix(self.langs, self.labels), vectors, make_folds(self.langs, 4, seed=2),
                     ["MTVec"], (False,))

    @pytest.mark.parametrize("knn", [None, {f"l{i:02d}": np.zeros(1) for i in range(11)}],
                             ids=["no-knn-vectors", "one-language-missing"])
    def test_aux_without_a_knn_vector_names_knn(self, knn):
        vectors = _vectors_for(self.langs, "MTVec", lambda l: np.zeros(2))
        with pytest.raises(ValueError, match="missing k-NN feature vector for language 'l"):
            evaluate(_matrix(self.langs, self.labels), vectors, make_folds(self.langs, 4, seed=2),
                     ["MTVec"], (False, True), knn)

    def test_aux_input_is_the_vector_then_the_knn_vector(self, monkeypatch):
        # constant vectors carry nothing, k-NN vectors equal to the labels everything
        matrix = _matrix(self.langs, self.labels)
        vectors = _vectors_for(self.langs, "MTVec", lambda l: np.array([1.0, 2.0, 3.0]))
        knn = {l: np.array([label]) for l, label in zip(self.langs, self.labels)}
        seen, fit = [], predict.Scaler.fit

        def recording_fit(X):
            seen.append(X.copy())
            return fit(X)

        monkeypatch.setattr(predict.Scaler, "fit", recording_fit)
        report = evaluate(matrix, vectors, make_folds(self.langs, 4, seed=2), ["MTVec"], (False, True), knn,
                          l2=0.01)
        assert report.cell("MTVec", "syntax", False) == pytest.approx(100.0 * majority_rate("S_X", matrix))
        assert report.cell("MTVec", "syntax", True) == 100.0
        assert [X.shape for X in seen] == [(9, 3)] * 4 + [(9, 4)] * 4
        for X in seen:
            np.testing.assert_array_equal(X[:, :3], np.tile([1.0, 2.0, 3.0], (9, 1)))
        # each language trains in 3 of the 4 folds
        assert sum(X[:, 3].sum() for X in seen[4:]) == 3 * sum(self.labels)


class TestNoneConditions:
    def test_matches_per_language_oracle(self):
        rng = np.random.default_rng(43)
        for trial in range(20):
            n, n_feats = int(rng.integers(4, 16)), int(rng.integers(3, 8))
            langs = [f"l{i:02d}" for i in range(n)]
            values = (rng.random((n, n_feats)) < 0.5).astype(float)
            values[rng.random((n, n_feats)) < 0.3] = np.nan  # missing cells
            values[:, 0] = np.nan
            values[int(rng.integers(n)), 0] = 1.0  # one labeled language: excluded
            values[:, 1] = [i % 2 if i < n - n % 2 else np.nan for i in range(n)]  # an even split
            names = [f"S_F{j}" for j in range(n_feats)]
            matrix = FeatureMatrix(langs, [FeatureSpec(name, "syntax") for name in names], values)
            # k-NN components of exactly 0.5 are frequent
            knn = {lang: rng.choice([0.0, 1 / 3, 0.5, 2 / 3, 1.0], size=n_feats) for lang in langs}
            report = evaluate(matrix, {}, make_folds(langs, 2, seed=trial), ["None"], (False, True), knn)
            assert [f for f, _ in report.excluded] == ["S_F0"]
            for aux in (False, True):
                preds = {key: pred for key, (pred, _) in report.predictions[("None", aux)].items()}
                assert preds == per_language_none_predictions(langs, names, values, aux, knn), (trial, aux)


class TestBootstrap:
    def test_identical_predictions_give_p_one(self):
        gold = np.array([1, 0, 1, 1, 0])
        preds = np.array([1, 0, 0, 1, 0])
        result = paired_bootstrap(preds, preds, gold, n=1000, seed=1)
        assert result.observed_gain == 0.0
        assert result.p_value == 1.0

    def test_strict_dominance_is_significant(self):
        gold = np.ones(200, dtype=int)
        a = np.zeros(200, dtype=int)
        b = np.ones(200, dtype=int)
        result = paired_bootstrap(a, b, gold, n=10000, seed=2)
        assert result.p_value <= 0.001
        assert result.observed_gain == 100.0

    def test_same_seed_bitwise_identical(self):
        rng = np.random.default_rng(3)
        gold = rng.integers(0, 2, 50)
        a = rng.integers(0, 2, 50)
        b = rng.integers(0, 2, 50)
        r1 = paired_bootstrap(a, b, gold, n=2000, seed=9)
        r2 = paired_bootstrap(a, b, gold, n=2000, seed=9)
        assert r1.p_value == r2.p_value

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="aligned"):
            paired_bootstrap(np.ones(3), np.ones(4), np.ones(4))

    @pytest.mark.parametrize("n", [0, 999])
    def test_resample_count_checked_before_any_draw(self, n, monkeypatch):
        def no_draws(*_args):
            raise AssertionError("drew resamples")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ValueError, match=f"resample count must be >= 1000, got {n}"):
            paired_bootstrap(np.ones(4), np.zeros(4), np.ones(4), n=n)


class TestTopGains:
    def test_ranked_descending(self):
        # two features more than the table holds; S_i gains i
        a = {f"S_{i}": 50.0 for i in range(TOP_GAINS + 2)}
        b = {f"S_{i}": 50.0 + i for i in range(TOP_GAINS + 2)}
        rows = top_gains(a, b, "syntax")
        assert [r.feature for r in rows] == [f"S_{i}" for i in range(TOP_GAINS + 1, 1, -1)]
        assert rows[0].gain == pytest.approx(TOP_GAINS + 1)

    def test_equal_reports_give_zero_gains(self):
        a = {"S_X": 50.0, "S_Y": 70.0}
        rows = top_gains(a, dict(a), "syntax")
        assert all(r.gain == 0.0 for r in rows)

    def test_n_larger_than_features_returns_all(self):
        a = {"P_X": 10.0}
        b = {"P_X": 20.0}
        assert len(top_gains(a, b, "phonology")) == 1

    def test_category_filter(self):
        a = {"S_X": 10.0, "P_X": 10.0}
        b = {"S_X": 20.0, "P_X": 30.0}
        assert [r.feature for r in top_gains(a, b, "phonology")] == ["P_X"]


class TestTrajectory:
    def test_argmax_magnitude_node(self):
        from typovec.predict import LogRegModel

        model = LogRegModel(np.array([0.1, -0.9, 0.3, 0.0]), 0.0)
        assert select_trajectory_node(model, 4) == 1

    def test_rescaling_weights_keeps_node(self):
        from typovec.predict import LogRegModel

        w = np.array([0.1, -0.9, 0.3, 0.0])
        assert (select_trajectory_node(LogRegModel(w, 0.0), 4)
                == select_trajectory_node(LogRegModel(7.5 * w, 0.0), 4))

    def test_non_cell_classifier_rejected(self):
        from typovec.predict import LogRegModel

        model = LogRegModel(np.arange(6, dtype=float), 0.0)
        with pytest.raises(ValueError, match="cell"):
            select_trajectory_node(model, 4)

    def test_series_and_mean_consistency(self, small_registry, small_corpus):
        from typovec.bpe import build_vocab, encode_corpus, learn_bpe
        from typovec.models import Seq2SeqModel, TrainConfig
        from typovec.predict import LogRegModel
        from typovec.vectors import extract_mtcell

        merges = learn_bpe(small_corpus, 10)
        vocab = build_vocab(small_corpus, merges, small_registry)
        encoded = encode_corpus(small_corpus, merges, vocab)
        model = Seq2SeqModel(len(vocab), TrainConfig(hidden_size=5, epochs=1, seed=4),
                             np.random.default_rng(4))
        logreg = LogRegModel(np.array([0.0, 2.0, -1.0, 0.0, 0.5]), 0.0)
        node, rows = export_trajectory(model, logreg, encoded, vocab, ["deu", "fra"])
        assert node == 1
        for lang in ("deu", "fra"):
            for sent_idx, pair in enumerate(encoded.by_lang[lang]):
                series = [v for l, s, _, v in rows if l == lang and s == sent_idx]
                assert len(series) == len(pair.source_ids) + 2
            series_all = [v for l, _, _, v in rows if l == lang]
            mtcell = extract_mtcell(model, encoded, vocab, lang)
            assert abs(np.mean(series_all) - mtcell.values[node]) < 1e-10


class TestScaler:
    def test_fit_is_train_only_statistics(self):
        X = np.array([[1.0, 10.0], [3.0, 30.0]])
        scaler = Scaler.fit(X)
        np.testing.assert_array_equal(scaler.mean, [2.0, 20.0])
        applied = scaler.apply(np.array([[2.0, 20.0]]))
        np.testing.assert_array_equal(applied, [[0.0, 0.0]])

    def test_constant_column_does_not_blow_up(self):
        X = np.array([[1.0], [1.0], [1.0]])
        scaler = Scaler.fit(X)
        out = scaler.apply(X)
        assert np.all(np.isfinite(out))
        np.testing.assert_array_equal(out, np.zeros((3, 1)))


def test_small_pipeline_files_match_pinned_digests(tmp_path):
    # computed with the earlier solver, which fitted one fold x feature at a
    # time in the full input space; MTVec and MTCell fits have n > d, MTBoth n < d
    entries = {"workdir": tmp_path / "work", "seed": 5, "synth_langs": 14, "synth_sentences": 16,
               "synth_lexicon": 12, "num_merges": 40, "hidden_size": 8, "embed_size": 8, "lr": 0.02,
               "dropout": 0.0, "epochs": 1, "batch_size": 16, "n_folds": 5,
               "methods": "MTVec,MTCell,MTBoth", "traj_sentences": 3}
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in entries.items()), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        for stage in ("synth", "ingest", "bpe-learn", "train-nmt", "extract", "baseline", "predict",
                      "report", "bootstrap", "traj"):
            assert main(["--config", str(cfg), stage]) == 0, stage
    work = tmp_path / "work"
    # every file the run writes; the config holds the work dir's path, the lock nothing
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in work.iterdir()
               if path.name not in (".lock", "effective_config.txt")}
    # the k-NN digests were computed when every reader recomputed each pair's distances;
    # the distances.tsv digest is of the 3 rows per language, in features.csv order, that
    # have the smallest combined distance (ties by code) in the earlier dump of every pair
    assert digests == {
        "predictions.tsv": "ea3c9c2800896bb53112cab0590ffde2d6add65efe29867a49b9b4ca80cbcab4",
        "report.tsv": "a8c014db512de53446f9b706c635666c0c480fe0f9e369957dcf469ec8d171a9",
        "trajectory.csv": "14a86f19043b7f595aba261d6cde5da2688fa75e464fd6439c8e11b4cf7996fa",
        "knn_vectors.tsv": "5ce008cfe1ddbafc01a407fe33a41ccdd40d8b2a3dac8b79d4eedd3a1f6dabc1",
        "distances.tsv": "c3787adf812293708126106c728cefa94f81bc7607a7e927e0879029a3eaf4a7",
        "registry.tsv": "3eb911ee0f7ef6f439060991703b15fc8f960f446eb1749a44e543a20bf77147",
        # taken before every text artifact had the one writer
        "corpus.txt": "4435c55c80266013df366a65675613d81193bcac8c49e615395a67e4a93562e0",
        "features.csv": "d33e45e35a60a2e80fba41e71ab08cb47323c017f6ef8199cce362c5a0b2438a",
        "ingest_summary.txt": "0734f95f59506f6ec5a330830e799b701f517f0b5916d8f033e6fcd43d9154ec",
        "merges.txt": "5d6cc490536cfdf50dd3354925e3ffcbb14cc1744c9764745c37603313cdbe68",
        "vocab.tsv": "a065b6f55e4facc4d5becc6e277afe98655486f863e9285719ddec03c5fcf793",
        "nmt.ckpt": "998e450048d9fc0846eba8ce7caf3b3948d87745d6cbf938f72a20d68ee09671",
        "nmt.model": "75272888c262d773af1b1e28cb914cfaf321f80c137834720f6fbd595d058648",
        "vectors_MTVec.tsv": "dd77111359f17ae8a34d2c10737e3015dea2b539151ce16f169ffca0ae0e32bd",
        "vectors_MTCell.tsv": "efa9bb554f4f854ae1e058643a8520c9fcc0068cfffce07a8474e44fa51d1f7c",
        "vectors_MTBoth.tsv": "c7a4b57ca3e19ca047aef61d1757d76228873a541e518b154b3dcbe0d17b165b",
        "feature_accuracy.tsv": "ad358ff4d42497836ae2f7574cd7bd3cdc23aff3e61bde835058c0963cb6f9b3",
        "predict_meta.txt": "f0743837ffcfe568625183543ac7e4088c17b5a520ca57eafd3c1976a3622338",
        "table_main.md": "9ade61660b5812a420d2765d53435db77158a6ddb3b6c2fbf50851f447381629",
        "table_gains.md": "f161f99a041f456a7a5fd5a1e24ad06b3850fba2db2d1b90d7d161ba5ff35963",
        "bootstrap.txt": "ab3fc1b1d5d796dbf36f126b5816148ea810fdcc1f3cb4b9628645becbd980a6",
        "synth.manifest": "31e34a07f5ecfac79fec74ba7472c9ceba41ff351f614a2b56eeb3aec7b72bca",
        "ingest.manifest": "a166b048c9a543f8151e5331fe938c8b55707b6438779529289c42b8e2b5b3ec",
        "bpe_learn.manifest": "a2f935a47fdb5842e3058903cb83f71f441f0c9afd79fb11856b7e289994c894",
        "train_nmt.manifest": "9239b22d977507d9e82f2a3973d950ae37f188ed7d65eca8ad7476d5f5e2d811",
        # taken when extract's only param became methods
        "extract.manifest": "015b752d80576f0055f2441f164b72d91d48f6c3d227c7d7d48e5b70a3f9c329",
        "baseline.manifest": "2540643a0de21cd3762820f6c15e575264e6725c5571f41053d1b9e5d06ea680",
        "predict.manifest": "80de49239febe96cb1baac60efca50037c7bdcb95c7ae7f20bed065e8cc025ba",
        "report.manifest": "b75b0d67894d6fc3b72e059529101266522773ba03dafe8e0fc718ff917f84ea",
        "bootstrap.manifest": "8744657690776a4e9391a9cc0454225df65af9a3f5b14844ba9988a4b9a8f24d",
        "traj.manifest": "b4fb03537ab16b8daebc2088aaf30e279fddb8982ef55183363826ad375ad4e7",
    }
    assert (work / "effective_config.txt").read_bytes().decode("utf-8") == (
        f"# effective pipeline configuration\nworkdir={work}\nseed=5\nregistry=\ncorpus=\nfeatures=\n"
        "num_merges=40\nhidden_size=8\nembed_size=8\nlr=0.02\ndropout=0.0\nepochs=1\nbatch_size=16\n"
        "clip_norm=5.0\nattention=0\nknn_k=3\ngeodesic_weight=1.0\ngenetic_weight=1.0\nl2=1.0\n"
        "n_folds=5\nmethods=MTVec,MTCell,MTBoth\n"
        "bootstrap_n=10000\nbootstrap_a=None+Aux\nbootstrap_b=MTBoth+Aux\n"
        "traj_feature=S_OBJECT_BEFORE_VERB\ntraj_langs=\ntraj_sentences=3\nsynth_langs=14\n"
        "synth_sentences=16\nsynth_lexicon=12\n")
