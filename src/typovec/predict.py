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

Each condition reads one (n_languages, d) input array, rows in matrix
order: each method's vectors and the k-NN vectors are stacked once, and a
+Aux input is [vector; k-NN]. Its labels go into one (n_languages,
n_features) array, -1 where it makes none: an unlabeled cell, or, in a
learned cell, a feature whose labeled languages all sit in one fold. The
accuracies and predictions are read off that array.

One solver, :func:`_fit_batch`, fits a batch of logistic regressions at
once by damped Newton iteration; :func:`train_logreg` is its one-fit case,
in the full input space. Each fit minimizes mean logistic
loss + l2*||w||^2/2 (bias unregularized) from w = 0, stopping at gradient
norm <= ``_TOL`` (1e-8) or after ``_MAX_ITER`` (200) steps. A step solves
(H + 1e-12 I) s = g, where H is the Hessian, and halves s until the loss
does not rise by more than 1e-15, at most 40 times (then it keeps the last
trial point). Each Newton step is one stacked solve over the fits not yet
converged.

A cell's fit runs in the row space of its standardized (n, d) inputs X:
with the thin QR Xᵀ = QR (Q of k = min(n, d) orthonormal columns) it fits
the (n, k) inputs Z = Rᵀ and maps the weights back as w = Qβ. This is
exact in exact arithmetic. From w = 0 the gradient Xᵀr/n + l2·w lies in
span(Q), and the Hessian XᵀSX/n + l2·I + 1e-12·I maps span(Q) to itself,
so every Newton iterate stays in span(Q) ⊕ bias and equals Q times the
reduced iterate; since Q has orthonormal columns, the gradient norm, and so
the stopping rule, is the same. When n >= d the reduction is a rotation.
The features of a cell that share a labeled-language set share each fold's
scaler and QR. The folds of a cell whose row-space inputs have one shape
are one batch, each fit reading its own fold's inputs, so a batch needs no
row mask or zero padding; fold sizes differ by at most one, so a
labeled-language set has at most two shapes. ``_BATCH_BYTES`` bounds a
batch: pending folds are fitted before their inputs and bases would pass
it, and a batch's fits are solved in chunks whose input copies and
Hessians stay under it, so memory does not grow with the number of
features or folds.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from . import models
from .autograd import _logistic
from .config import CATEGORIES, MIN_RESAMPLES
from .corpus import write_records
from .report import GainRow, top_gains  # re-exported
from .typology import majority_label

if TYPE_CHECKING:
    from .bpe import EncodedCorpus, SubwordVocab
    from .models import Seq2SeqModel
    from .typology import FeatureMatrix
    from .vectors import LangVector


@dataclass
class LogRegModel:
    weights: np.ndarray
    bias: float
    feature: str = ""
    converged: bool = True

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if not (np.all(np.isfinite(self.weights)) and math.isfinite(self.bias)):
            raise ValueError(f"{self.feature}: non-finite classifier parameters")


@dataclass
class FoldAssignment:
    assignment: dict[str, int]
    n_folds: int

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
    return FoldAssignment({lang: i % n_folds for i, lang in enumerate(shuffled)}, n_folds)


def _with_bias(X: np.ndarray) -> np.ndarray:
    return np.hstack([X, np.ones((len(X), 1))])


def _row_space(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Q, Z): the thin QR Xᵀ = QR, Q's orthonormal columns spanning X's
    rows, and the row-space inputs Z = Rᵀ with a bias column, so that
    X = Z[:, :-1] Qᵀ."""
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite training inputs")
    Q, R = np.linalg.qr(X.T)
    return Q, _with_bias(R.T)


def _loss_grad(Zb, Y, l2, beta):
    """Loss (B,), gradient (B, k + 1) and probabilities (B, n) at ``beta``
    (B, k + 1) of the fits of the labels Y (B, n) on the inputs Zb
    (B, n, k + 1), whose last column is the bias."""
    n = Y.shape[1]
    z = np.matmul(Zb, beta[:, :, None])[:, :, 0]
    # log(1 + e^z) - y z, computed stably
    loss = np.sum(np.logaddexp(0.0, z) - Y * z, axis=1) / n + 0.5 * l2 * np.sum(beta[:, :-1] ** 2, axis=1)
    p = _logistic(z)
    grad = np.matmul((p - Y)[:, None, :], Zb)[:, 0, :] / n
    grad[:, :-1] += l2 * beta[:, :-1]
    return loss, grad, p


# Bytes one batch may take: the row-space inputs and bases of its folds,
# and per fit a copy of its inputs, the Hessian's (k + 1, n) factor and the
# Hessian. Folds and fits past it go to the next batch.
_BATCH_BYTES = 16 << 20

# A fit stops at this gradient norm, or unconverged after this many Newton steps.
_TOL, _MAX_ITER = 1e-8, 200


def _fit_batch(Z, slot, Y, l2: float):
    """Damped-Newton fits of the labels Y (B, n), fit b on the inputs
    Z[slot[b]] of the (n, k + 1) arrays Z, whose last column is the bias
    (see the module docstring). Returns the coefficients (B, k), the
    biases (B,) and whether each fit converged (B,)."""
    n, k = Z[0].shape[0], Z[0].shape[1] - 1
    B = len(slot)
    chunk = max(1, _BATCH_BYTES // (8 * (k + 1) * (2 * n + k + 1)))
    if B > chunk:
        parts = [_fit_batch(Z, slot[i:i + chunk], Y[i:i + chunk], l2)
                 for i in range(0, B, chunk)]
        return tuple(np.concatenate(arrays) for arrays in zip(*parts))

    def inputs(fits):
        return np.stack([Z[i] for i in slot[fits]])

    ridge = np.diag(np.append(np.full(k, l2 + 1e-12), 1e-12))
    beta = np.zeros((B, k + 1))
    loss, grad, p = _loss_grad(inputs(slice(None)), Y, l2, beta)
    live = np.arange(B)
    for _ in range(_MAX_ITER):
        live = live[np.linalg.norm(grad[live], axis=1) > _TOL]
        if not live.size:
            break
        Zl = inputs(live)
        s = p[live] * (1.0 - p[live])
        hess = np.matmul(Zl.transpose(0, 2, 1) * s[:, None, :], Zl)
        hess /= n
        hess += ridge
        step = np.linalg.solve(hess, grad[live][:, :, None])[:, :, 0]
        # the fits still halving their step all stand at the same t
        fits, t = live, 1.0
        for halving in range(40):
            trial = beta[fits] - t * step
            new_loss, new_grad, new_p = _loss_grad(inputs(fits), Y[fits], l2, trial)
            ok = (new_loss <= loss[fits] + 1e-15) | (halving == 39)
            done = fits[ok]
            beta[done], loss[done], grad[done], p[done] = trial[ok], new_loss[ok], new_grad[ok], new_p[ok]
            if ok.all():
                break
            fits, step, t = fits[~ok], step[~ok], 0.5 * t
    return beta[:, :k], beta[:, k], np.linalg.norm(grad, axis=1) <= _TOL


def train_logreg(X: np.ndarray, y: np.ndarray, l2: float = 1.0, feature: str = "") -> LogRegModel:
    """Minimize mean logistic loss + l2*||w||^2/2 (bias unregularized) by
    damped Newton iteration, down to gradient norm <= 1e-8: the one-fit case
    of the batched solver, in the full input space."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError(f"bad shapes X {X.shape}, y {y.shape}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite training inputs")
    if X.shape[0] == 0:
        raise ValueError("no training examples")
    coef, bias, converged = _fit_batch([_with_bias(X)], np.zeros(1, dtype=int), y[None], l2)
    return LogRegModel(coef[0], float(bias[0]), feature=feature, converged=bool(converged[0]))


def _predict_labels(probs: np.ndarray, tie_label) -> np.ndarray:
    """Labels of probabilities thresholded at 0.5; exactly 0.5 takes ``tie_label``
    (broadcast against ``probs``, so one per column of a matrix)."""
    return np.where(probs == 0.5, tie_label, probs > 0.5).astype(int)


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
    # logistic-regression fits, and those stopped at _MAX_ITER above _TOL
    fits: int = 0
    unconverged: int = 0

    def cell(self, method: str, category: str, aux: bool) -> float:
        return self.cells[(method, aux)][category]


def _stack(by_lang, languages, what: str) -> np.ndarray:
    """The (n_languages, d) array of the vectors in ``by_lang``, one row per
    language in ``languages`` order."""
    for lang in languages:
        if lang not in by_lang:
            raise ValueError(f"missing {what} for language {lang!r}")
    return np.stack([np.asarray(by_lang[lang], dtype=np.float64) for lang in languages])


def _evaluate_none(X, usable, aux, pred) -> None:
    """Write the None cell's labels into ``pred``: -Aux the majority label of
    each feature's labeled languages, +Aux each language's k-NN component,
    column j of ``X``, thresholded at 0.5."""
    for j, (rows, labels) in usable.items():
        ones, n = labels.sum(), len(labels)
        if aux:  # exactly 0.5 takes the majority label of the other labeled languages
            pred[rows, j] = _predict_labels(X[rows, j], majority_label(ones - labels, n - 1))
        else:
            pred[rows, j] = majority_label(ones, n)


def _fit_slots(slots, l2, pred, names) -> np.ndarray:
    """Fit every feature of the fold ``slots``, which share one input shape,
    in one batch; write their test labels into ``pred`` and return whether
    each fit converged."""
    slot = np.repeat(np.arange(len(slots)), [len(cols) for *_, cols in slots])
    coef, bias, converged = _fit_batch([Z for _, Z, *_ in slots], slot,
                                       np.concatenate([Y.T for _, _, Y, *_ in slots]), l2)
    first = 0
    for Q, _, Y, X_test, test, cols in slots:
        fits = slice(first, first + len(cols))
        first += len(cols)
        finite = np.all(np.isfinite(coef[fits]), axis=1) & np.isfinite(bias[fits])
        if not finite.all():
            raise ValueError(f"{names[cols[int(np.argmin(finite))]]}: non-finite classifier parameters")
        probs = _logistic(X_test @ (Q @ coef[fits].T) + bias[fits])
        # a probability of exactly 0.5 takes the training fold's majority label, ties to 1
        pred[np.ix_(test, cols)] = _predict_labels(probs, majority_label(Y.sum(axis=0), len(Y)))
    return converged


def _evaluate_learned(X, usable, fold_of, n_folds, l2, pred, names) -> np.ndarray:
    """Write the cross-validated labels of one learned (method, aux) cell,
    whose inputs are the rows of ``X``, into ``pred``, and return whether
    each of its fits converged. The features with the same labeled
    languages share each fold's scaler and QR; the folds whose row-space
    inputs have one shape are fitted in one batch, and the pending batches
    are fitted before their inputs and bases would pass ``_BATCH_BYTES``."""
    groups: dict[tuple[int, ...], list[int]] = {}  # labeled rows -> their features' columns
    for j, (rows, _) in usable.items():
        groups.setdefault(tuple(rows.tolist()), []).append(j)
    converged = []
    batches: dict[tuple[int, int], list] = {}  # row-space input shape -> fold slots
    held = 0  # bytes of the row-space inputs and bases in ``batches``

    def flush():
        nonlocal held
        converged.extend(_fit_slots(slots, l2, pred, names) for slots in batches.values())
        batches.clear()
        held = 0

    for labeled, cols in groups.items():
        rows = np.array(labeled)
        Y = np.stack([usable[j][1] for j in cols], axis=1)
        for fold in range(n_folds):
            in_fold = fold_of[rows] == fold
            train, test = rows[~in_fold], rows[in_fold]
            if not (train.size and test.size):
                continue
            n, d = train.size, X.shape[1]
            size = 8 * min(n, d) * d + 8 * n * (min(n, d) + 1)  # Q and Z
            if held + size > _BATCH_BYTES:
                flush()
            held += size
            scaler = Scaler.fit(X[train])
            Q, Z = _row_space(scaler.apply(X[train]))
            batches.setdefault(Z.shape, []).append((Q, Z, Y[~in_fold], scaler.apply(X[test]), test, cols))
    flush()
    return np.concatenate(converged) if converged else np.zeros(0, dtype=bool)


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
    languages, names = matrix.languages, matrix.feature_names()
    missing = set(languages) - set(folds.assignment)
    if missing:
        raise ValueError(f"fold assignment missing languages: {sorted(missing)}")
    categories = [c for c in CATEGORIES if matrix.feature_names(c)]
    report = EvalReport(methods, aux_settings, categories, folds.digest)

    usable: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # column -> its labeled rows and labels
    for j, feature in enumerate(names):
        rows, labels = matrix.labeled(feature)
        if len(rows) < 2:
            report.excluded.append((feature, f"only {len(rows)} labeled languages"))
        else:
            usable[j] = rows, labels
    fold_of = np.array([folds.assignment[lang] for lang in languages])
    knn = _stack(knn_vectors or {}, languages, "k-NN feature vector") if any(aux_settings) else None

    for method in methods:
        vector = np.empty((len(languages), 0)) if method == "None" else _stack(
            {lang: v.values for lang, v in vectors.get(method, {}).items()}, languages, f"{method} vector")
        for aux in aux_settings:
            key = (method, aux)
            X = np.hstack([vector, knn]) if aux else vector
            pred = np.full(matrix.values.shape, -1)  # -1: no label
            if method == "None":
                _evaluate_none(X, usable, aux, pred)
            else:
                converged = _evaluate_learned(X, usable, fold_of, folds.n_folds, l2, pred, names)
                report.fits += converged.size
                report.unconverged += int(np.sum(~converged))
            graded = pred >= 0
            hits, counts = np.sum(pred == matrix.values, axis=0), np.sum(graded, axis=0)
            report.feature_accuracy[key] = {feature: 100.0 * int(hits[j]) / int(counts[j])
                                            for j, feature in enumerate(names) if counts[j]}
            report.predictions[key] = {(languages[i], names[j]): (int(pred[i, j]), int(matrix.values[i, j]))
                                       for i, j in zip(*np.nonzero(graded))}
            report.cells[key] = {}
            for category in categories:
                accs = [report.feature_accuracy[key][f] for f in matrix.feature_names(category)
                        if f in report.feature_accuracy[key]]
                report.cells[key][category] = float(np.mean(accs)) if accs else 0.0
    return report


@dataclass
class BootstrapResult:
    observed_gain: float
    p_value: float
    n_resamples: int


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
    if n < MIN_RESAMPLES:
        raise ValueError(f"resample count must be >= {MIN_RESAMPLES}, got {n}")
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


def select_trajectory_node(logreg: LogRegModel, hidden_size: int) -> int:
    """The encoder cell dimension with the largest absolute classifier weight."""
    if len(logreg.weights) != hidden_size:
        raise ValueError(
            f"classifier has {len(logreg.weights)} inputs; expected one per encoder "
            f"cell dimension ({hidden_size}), so it is not a cell-state classifier"
        )
    return int(np.argmax(np.abs(logreg.weights)))


def export_trajectory(nmt: Seq2SeqModel, logreg: LogRegModel, encoded: EncodedCorpus,
                      vocab: SubwordVocab, langs, max_sentences: int | None = None):
    """Per-sentence time series of the encoder cell dimension that
    :func:`select_trajectory_node` picks for ``logreg``.

    Returns (node, rows) where rows are (lang, sentence index, step, value)
    and each sentence contributes len(source) + 2 steps. ``max_sentences``
    keeps the first n sentences of each language, which run as one batch
    through :func:`typovec.models.language_states`.
    """
    node = select_trajectory_node(logreg, nmt.hidden_size)
    rows: list[tuple[str, int, int, float]] = []
    for lang in langs:
        lens, order, states = models.language_states(nmt, vocab, lang,
                                                     encoded.by_lang.get(lang, [])[:max_sentences])
        series = np.stack([c[:, node] for _, c in states], axis=1)
        for sent_idx, row in enumerate(np.argsort(order)):
            rows.extend((lang, sent_idx, step, float(series[row, step])) for step in range(lens[row]))
    return node, rows


def write_trajectory_csv(path, rows) -> None:
    write_records(path, chain([("lang", "sentence", "step", "value")], rows), sep=",")
