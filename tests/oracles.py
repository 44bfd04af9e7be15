"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's incremental/efficient code paths:
the BPE oracle recounts every pair from scratch at every step, the k-NN
oracle materializes and sorts the full distance list, the logistic
regression is fitted one problem at a time in the full input space, and
gradients are checked against central finite differences.
"""

from __future__ import annotations

import math

import numpy as np

MARKER = "⟨/w⟩"


def _strip(sym: str) -> str:
    return sym[: -len(MARKER)] if sym.endswith(MARKER) else sym


def _merge_pass(symbols: list[str], pair: tuple[str, str]) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and symbols[i] == pair[0] and _strip(symbols[i + 1]) == pair[1]:
            suffix = MARKER if symbols[i + 1].endswith(MARKER) else ""
            out.append(pair[0] + pair[1] + suffix)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


def brute_force_learn_bpe(word_freqs: dict[str, int], num_merges: int) -> list[tuple[str, str]]:
    """Recount all pair frequencies from scratch at every merge step."""
    words = {}
    for w in word_freqs:
        syms = list(w)
        syms[-1] += MARKER
        words[w] = syms
    merges: list[tuple[str, str]] = []
    for _ in range(num_merges):
        counts: dict[tuple[str, str], int] = {}
        for w, syms in words.items():
            for i in range(len(syms) - 1):
                pair = (syms[i], _strip(syms[i + 1]))
                counts[pair] = counts.get(pair, 0) + word_freqs[w]
        if not counts or max(counts.values()) < 2:
            break
        best_count = max(counts.values())
        best = min(p for p, c in counts.items() if c == best_count)
        merges.append(best)
        for w in words:
            words[w] = _merge_pass(words[w], best)
    return merges


def naive_apply_bpe(word: str, merge_list: list[tuple[str, str]]) -> list[str]:
    """Apply merges strictly in rank order, one pass per rule."""
    syms = list(word)
    syms[-1] += MARKER
    for pair in merge_list:
        if len(syms) == 1:
            break
        syms = _merge_pass(syms, pair)
    return syms


def brute_force_knn_vector(lang, records, languages, values, k,
                           geo_weight=1.0, gen_weight=1.0) -> np.ndarray:
    """Full-sort k-NN averaged feature vector.

    ``records`` maps code -> (lat, lon, lineage tuple); ``values`` is the
    (L, F) matrix with NaN for missing, rows aligned with ``languages``.
    Normalization bounds are recomputed here over all distinct pairs.
    """

    def geo(a, b):
        lat1, lon1 = math.radians(a[0]), math.radians(a[1])
        lat2, lon2 = math.radians(b[0]), math.radians(b[1])
        s = math.sin((lat2 - lat1) / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2) ** 2
        return 2 * 6371.0 * math.asin(min(1.0, math.sqrt(s)))

    def gen(a, b):
        shared = 0
        for x, y in zip(a[2], b[2]):
            if x != y:
                break
            shared += 1
        return 1.0 - 2.0 * shared / (len(a[2]) + len(b[2]))

    codes = sorted(records)
    geo_all, gen_all = [], []
    for i in range(len(codes)):
        for j in range(i + 1, len(codes)):
            geo_all.append(geo(records[codes[i]], records[codes[j]]))
            gen_all.append(gen(records[codes[i]], records[codes[j]]))
    geo_lo, geo_hi = min(geo_all), max(geo_all)
    gen_lo, gen_hi = min(gen_all), max(gen_all)

    def combined(a_code, b_code):
        if a_code == b_code:
            return 0.0
        a, b = records[a_code], records[b_code]
        g1 = (geo(a, b) - geo_lo) / (geo_hi - geo_lo) if geo_hi > geo_lo else 0.0
        g2 = (gen(a, b) - gen_lo) / (gen_hi - gen_lo) if gen_hi > gen_lo else 0.0
        return (geo_weight * g1 + gen_weight * g2) / (geo_weight + gen_weight)

    ranked = sorted(
        ((combined(lang, other), other) for other in languages if other != lang)
    )
    neighbors = [code for _, code in ranked[:k]]
    lang_row = languages.index(lang)
    out = np.empty(values.shape[1])
    for f in range(values.shape[1]):
        vals = [values[languages.index(nb), f] for nb in neighbors]
        vals = [v for v in vals if not math.isnan(v)]
        if vals:
            out[f] = sum(vals) / len(vals)
        else:
            rest = [values[i, f] for i in range(len(languages))
                    if i != lang_row and not math.isnan(values[i, f])]
            out[f] = sum(rest) / len(rest) if rest else 0.5
    return out


def per_language_none_predictions(languages, names, values, aux: bool,
                                  knn_vectors=None) -> dict[tuple[str, str], int]:
    """{(lang, feature): label} of the None condition, one language at a time.

    Features with fewer than 2 labeled languages are skipped. -Aux predicts
    the majority label of the feature's labeled languages, ties to 1; +Aux
    thresholds the language's k-NN component at 0.5, and exactly 0.5 takes
    the majority label of the other labeled languages. ``values`` is the
    (L, F) matrix with NaN for missing, rows aligned with ``languages``.
    """

    def majority(labels):
        ones = sum(1 for v in labels if v == 1.0)
        return 1 if ones >= len(labels) - ones else 0

    preds: dict[tuple[str, str], int] = {}
    for f, feature in enumerate(names):
        labeled = [(lang, values[i, f]) for i, lang in enumerate(languages) if not math.isnan(values[i, f])]
        if len(labeled) < 2:
            continue
        labels = [label for _, label in labeled]
        for i, (lang, _) in enumerate(labeled):
            if not aux:
                preds[(lang, feature)] = majority(labels)
                continue
            component = knn_vectors[lang][f]
            if component > 0.5:
                preds[(lang, feature)] = 1
            elif component < 0.5:
                preds[(lang, feature)] = 0
            else:
                preds[(lang, feature)] = majority(labels[:i] + labels[i + 1:])
    return preds


def finite_difference_grads(loss_fn, params, h: float = 1e-5) -> dict[str, np.ndarray]:
    """Central finite differences of ``loss_fn()`` w.r.t. each parameter."""
    grads: dict[str, np.ndarray] = {}
    for p in params:
        g = np.zeros_like(p.value)
        flat, gflat = p.value.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            gflat[i] = (up - down) / (2 * h)
        grads[p.name] = g
    return grads


def max_relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def per_fit_newton_logreg(X, y, l2: float = 1.0, tol: float = 1e-8,
                          max_iter: int = 200) -> tuple[np.ndarray, float]:
    """(weights, bias) minimizing mean logistic loss + l2*||w||^2/2 (bias
    unregularized): damped Newton on one problem in the full (d + 1)-dim space."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    Xb = np.hstack([X, np.ones((n, 1))])
    w = np.zeros(d + 1)
    reg = np.zeros(d + 1)
    reg[:d] = l2

    def loss_grad(w):
        z = Xb @ w
        loss = float(np.mean(np.logaddexp(0.0, z) - y * z)) + 0.5 * l2 * float(w[:d] @ w[:d])
        e = np.exp(-np.abs(z))
        p = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
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
    return w[:d].copy(), float(w[d])
