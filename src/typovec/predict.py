"""Per-feature logistic regression with 10-fold cross-validation over
languages, the +-Aux input conditions, paired bootstrap significance, and
cell-trajectory export.

Prediction conditions:

- "None -Aux" is the majority-class chance rate over the evaluated
  instances (no trained model).
- "None +Aux" thresholds the language's k-NN feature component at 0.5,
  i.e. a pure 3-NN classification; exactly 0.5 falls back to the majority
  value over the other labeled languages.
- Every other (method, aux) cell trains one L2-regularized logistic
  regression per feature per fold, on inputs standardized with
  training-fold statistics only.

The same fold assignment is reused for every method (paired design).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .bpe import EncodedCorpus, SubwordVocab
from .models import Seq2SeqModel, encoder_batch, lstm_states
from .typology import CATEGORIES, FeatureMatrix, majority_value
from .vectors import LangVector


@dataclass
class LogRegModel:
    weights: np.ndarray
    bias: float
    feature: str = ""
    l2: float = 0.0

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if not (np.all(np.isfinite(self.weights)) and math.isfinite(self.bias)):
            raise ValueError(f"{self.feature}: non-finite classifier parameters")


@dataclass
class FoldAssignment:
    assignment: dict[str, int]
    n_folds: int
    seed: int

    def fold_of(self, lang: str) -> int:
        return self.assignment[lang]

    @property
    def digest(self) -> str:
        payload = ";".join(f"{lang}:{fold}" for lang, fold in sorted(self.assignment.items()))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def make_folds(languages, n_folds: int = 10, seed: int = 0) -> FoldAssignment:
    """Seeded shuffle then round-robin assignment; fold sizes differ by <= 1."""
    languages = sorted(languages)
    if len(languages) < n_folds:
        raise ValueError(f"need at least {n_folds} languages for {n_folds} folds, have {len(languages)}")
    rng = np.random.default_rng([seed, 5])
    shuffled = [languages[i] for i in rng.permutation(len(languages))]
    return FoldAssignment({lang: i % n_folds for i, lang in enumerate(shuffled)}, n_folds, seed)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def train_logreg(X: np.ndarray, y: np.ndarray, l2: float = 1.0,
                 feature: str = "", tol: float = 1e-8, max_iter: int = 200) -> LogRegModel:
    """Minimize mean logistic loss + l2*||w||^2/2 (bias unregularized) by
    damped Newton iteration, down to gradient norm <= ``tol``."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError(f"bad shapes X {X.shape}, y {y.shape}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite training inputs")
    if X.shape[0] == 0:
        raise ValueError("no training examples")
    n, d = X.shape
    Xb = np.hstack([X, np.ones((n, 1))])
    w = np.zeros(d + 1)
    reg = np.zeros(d + 1)
    reg[:d] = l2

    def loss_grad(w):
        z = Xb @ w
        # log(1 + e^z) - y z, computed stably
        loss = float(np.mean(np.logaddexp(0.0, z) - y * z)) + 0.5 * l2 * float(w[:d] @ w[:d])
        p = _sigmoid(z)
        grad = Xb.T @ (p - y) / n + reg * w
        return loss, grad, p

    loss, grad, p = loss_grad(w)
    for _ in range(max_iter):
        if float(np.linalg.norm(grad)) <= tol:
            break
        s = p * (1.0 - p)
        hess = (Xb.T * s) @ Xb / n + np.diag(reg) + 1e-12 * np.eye(d + 1)
        step = np.linalg.solve(hess, grad)
        t = 1.0
        for _ in range(40):
            new_loss, new_grad, new_p = loss_grad(w - t * step)
            if new_loss <= loss + 1e-15:
                break
            t *= 0.5
        w = w - t * step
        loss, grad, p = new_loss, new_grad, new_p
    return LogRegModel(w[:d].copy(), float(w[d]), feature=feature, l2=l2)


def predict_proba(model: LogRegModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    return _sigmoid(X @ model.weights + model.bias)


def _predict_labels(probs: np.ndarray, tie_label: int) -> np.ndarray:
    labels = np.where(probs > 0.5, 1, 0)
    labels[probs == 0.5] = tie_label
    return labels


@dataclass
class Scaler:
    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "Scaler":
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        std[std == 0.0] = 1.0
        return cls(mean, std)

    def apply(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean) / self.std


def assemble_inputs(lang: str, method: str, aux: bool,
                    vectors: dict[str, dict[str, LangVector]],
                    knn_vectors: dict[str, np.ndarray] | None = None) -> np.ndarray:
    """Classifier input: method vector (empty for "None"), then the k-NN
    averaged feature vector when aux is on."""
    if method == "None":
        base = np.empty(0)
    else:
        by_lang = vectors.get(method)
        if by_lang is None or lang not in by_lang:
            raise ValueError(f"missing {method} vector for language {lang!r}")
        base = by_lang[lang].values
    if not aux:
        return np.asarray(base, dtype=np.float64)
    if knn_vectors is None or lang not in knn_vectors:
        raise ValueError(f"missing k-NN feature vector for language {lang!r}")
    return np.concatenate([base, knn_vectors[lang]])


@dataclass
class EvalReport:
    methods: list[str]
    aux_settings: list[bool]
    categories: list[str]
    fold_digest: str
    # (method, aux) -> category -> accuracy percent
    cells: dict[tuple[str, bool], dict[str, float]] = field(default_factory=dict)
    # (method, aux) -> feature -> accuracy percent
    feature_accuracy: dict[tuple[str, bool], dict[str, float]] = field(default_factory=dict)
    # (method, aux) -> (lang, feature) -> (pred, gold)
    predictions: dict[tuple[str, bool], dict[tuple[str, str], tuple[int, int]]] = field(default_factory=dict)
    excluded: list[tuple[str, str]] = field(default_factory=list)

    def cell(self, method: str, category: str, aux: bool) -> float:
        return self.cells[(method, aux)][category]

    def validate(self) -> None:
        for method in self.methods:
            for aux in self.aux_settings:
                for category in self.categories:
                    acc = self.cells[(method, aux)][category]
                    if not 0.0 <= acc <= 100.0:
                        raise ValueError(f"accuracy {acc} out of range for {method}/{category}/aux={aux}")


def _labeled_languages(matrix: FeatureMatrix, feature: str) -> list[str]:
    return [lang for lang in matrix.languages if not math.isnan(matrix.value(lang, feature))]


def _evaluate_feature_none(matrix, feature, labeled, aux, knn_vectors):
    feat_idx = matrix.feature_names().index(feature)
    preds: dict[str, int] = {}
    if not aux:
        maj = majority_value(matrix.value(lang, feature) for lang in labeled)
        for lang in labeled:
            preds[lang] = maj
        return preds
    for lang in labeled:
        if knn_vectors is None or lang not in knn_vectors:
            raise ValueError(f"missing k-NN feature vector for language {lang!r}")
        component = knn_vectors[lang][feat_idx]
        if component > 0.5:
            preds[lang] = 1
        elif component < 0.5:
            preds[lang] = 0
        else:
            others = [matrix.value(o, feature) for o in labeled if o != lang]
            preds[lang] = majority_value(others) if others else 1
    return preds


def _evaluate_feature_learned(matrix, feature, labeled, method, aux, vectors,
                              knn_vectors, folds, l2):
    inputs = {lang: assemble_inputs(lang, method, aux, vectors, knn_vectors) for lang in labeled}
    preds: dict[str, int] = {}
    for fold in range(folds.n_folds):
        train_langs = [l for l in labeled if folds.fold_of(l) != fold]
        test_langs = [l for l in labeled if folds.fold_of(l) == fold]
        if not train_langs or not test_langs:
            continue
        y_train = np.array([matrix.value(l, feature) for l in train_langs])
        X_train = np.stack([inputs[l] for l in train_langs])
        scaler = Scaler.fit(X_train)
        model = train_logreg(scaler.apply(X_train), y_train, l2=l2, feature=feature)
        tie = majority_value(y_train)
        X_test = np.stack([inputs[l] for l in test_langs])
        labels = _predict_labels(predict_proba(model, scaler.apply(X_test)), tie)
        for lang, label in zip(test_langs, labels):
            preds[lang] = int(label)
    return preds


def evaluate(matrix: FeatureMatrix, vectors: dict[str, dict[str, LangVector]],
             folds: FoldAssignment, methods, aux_settings=(False, True),
             knn_vectors: dict[str, np.ndarray] | None = None,
             l2: float = 1.0) -> EvalReport:
    """Cross-validated accuracy per (method, category, aux) cell.

    Features with fewer than 2 labeled languages are excluded and reported.
    Accuracy is macro-averaged over features within a category, as percent.
    """
    methods = list(methods)
    aux_settings = list(aux_settings)
    missing = set(matrix.languages) - set(folds.assignment)
    if missing:
        raise ValueError(f"fold assignment missing languages: {sorted(missing)}")
    categories = [c for c in CATEGORIES if matrix.feature_names(c)]
    report = EvalReport(methods, aux_settings, categories, folds.digest)

    usable: dict[str, list[str]] = {}
    for feature in matrix.feature_names():
        labeled = _labeled_languages(matrix, feature)
        if len(labeled) < 2:
            report.excluded.append((feature, f"only {len(labeled)} labeled languages"))
        else:
            usable[feature] = labeled

    for method in methods:
        for aux in aux_settings:
            key = (method, aux)
            report.feature_accuracy[key] = {}
            report.predictions[key] = {}
            for feature, labeled in usable.items():
                if method == "None":
                    preds = _evaluate_feature_none(matrix, feature, labeled, aux, knn_vectors)
                else:
                    preds = _evaluate_feature_learned(
                        matrix, feature, labeled, method, aux, vectors, knn_vectors, folds, l2
                    )
                if not preds:
                    continue
                correct = 0
                for lang, pred in preds.items():
                    gold = int(matrix.value(lang, feature))
                    report.predictions[key][(lang, feature)] = (pred, gold)
                    correct += int(pred == gold)
                report.feature_accuracy[key][feature] = 100.0 * correct / len(preds)
            report.cells[key] = {}
            for category in categories:
                names = [f for f in matrix.feature_names(category) if f in report.feature_accuracy[key]]
                report.cells[key][category] = (
                    float(np.mean([report.feature_accuracy[key][f] for f in names])) if names else 0.0
                )
    report.validate()
    return report


@dataclass
class BootstrapResult:
    observed_gain: float
    p_value: float
    n_resamples: int

    def __post_init__(self) -> None:
        if self.n_resamples < 1000:
            raise ValueError(f"resample count must be >= 1000, got {self.n_resamples}")
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p-value {self.p_value} out of [0, 1]")


def paired_bootstrap(preds_a, preds_b, gold, n: int = 10000, seed: int = 0) -> BootstrapResult:
    """Resample evaluation instances with replacement; p is the fraction of
    resamples where system B fails to beat system A on accuracy."""
    preds_a = np.asarray(preds_a)
    preds_b = np.asarray(preds_b)
    gold = np.asarray(gold)
    if not (preds_a.shape == preds_b.shape == gold.shape) or preds_a.ndim != 1:
        raise ValueError(f"prediction vectors must be aligned 1-D arrays, got "
                         f"{preds_a.shape}, {preds_b.shape}, {gold.shape}")
    if len(gold) == 0:
        raise ValueError("no evaluation instances")
    correct_a = (preds_a == gold).astype(np.float64)
    correct_b = (preds_b == gold).astype(np.float64)
    observed = 100.0 * float(correct_b.mean() - correct_a.mean())
    rng = np.random.default_rng([seed, 13])
    fails = 0
    done = 0
    while done < n:
        chunk = min(1000, n - done)
        idx = rng.integers(0, len(gold), size=(chunk, len(gold)))
        gains = correct_b[idx].mean(axis=1) - correct_a[idx].mean(axis=1)
        fails += int(np.sum(gains <= 0.0))
        done += chunk
    return BootstrapResult(observed, fails / n, n)


@dataclass
class GainRow:
    feature: str
    before: float
    after: float
    gain: float


def top_gains(acc_a: dict[str, float], acc_b: dict[str, float],
              category: str, n: int = 5) -> list[GainRow]:
    """Largest per-feature accuracy improvements from A to B in a category."""
    from .typology import category_of

    rows = [
        GainRow(f, acc_a[f], acc_b[f], acc_b[f] - acc_a[f])
        for f in acc_a
        if f in acc_b and category_of(f) == category
    ]
    rows.sort(key=lambda r: (-r.gain, r.feature))
    return rows if n >= len(rows) else rows[:n]


def select_trajectory_node(logreg: LogRegModel, hidden_size: int) -> int:
    """The encoder cell dimension with the largest absolute classifier weight."""
    if len(logreg.weights) != hidden_size:
        raise ValueError(
            f"classifier has {len(logreg.weights)} inputs; expected one per encoder "
            f"cell dimension ({hidden_size}), so it is not a cell-state classifier"
        )
    return int(np.argmax(np.abs(logreg.weights)))


def export_trajectory(nmt: Seq2SeqModel, logreg: LogRegModel, encoded: EncodedCorpus,
                      vocab: SubwordVocab, langs, max_sentences: int | None = None,
                      node: int | None = None):
    """Per-sentence time series of one encoder cell dimension.

    Returns (node, rows) where rows are (lang, sentence index, step, value)
    and each sentence contributes len(source) + 2 steps. ``max_sentences``
    keeps the first n sentences of each language.
    """
    if node is None:
        node = select_trajectory_node(logreg, nmt.hidden_size)
    if not 0 <= node < nmt.hidden_size:
        raise ValueError(f"node {node} outside hidden size {nmt.hidden_size}")
    rows: list[tuple[str, int, int, float]] = []
    for lang in langs:
        sentences = encoded.by_lang.get(lang)
        if not sentences:
            raise ValueError(f"no sentences for language {lang!r}")
        if max_sentences is not None:
            sentences = sentences[:max_sentences]
        ids, lens, order = encoder_batch(vocab, lang, sentences)
        series = np.stack([c[:, node] for _, c in lstm_states(nmt.encoder, nmt.embedding.value, ids, lens)],
                          axis=1)
        for sent_idx, row in enumerate(np.argsort(order)):
            rows.extend((lang, sent_idx, step, float(series[row, step])) for step in range(lens[row]))
    return node, rows


def write_trajectory_csv(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("lang,sentence,step,value\n")
        for lang, sent, step, value in rows:
            fh.write(f"{lang},{sent},{step},{value!r}\n")
