"""Typological feature matrix, language distances, and the k-NN baseline.

Features are binary and fall into three categories keyed by their name
prefix: syntax ("S_"), phonology ("P_"), phonetic inventory ("I_").
Missing cells are allowed and represented as NaN internally.

Feature CSV format: header ``lang,<feature names...>``, one row per
language, cells "0", "1", or empty for missing. Each line is read and
written as one CSV record, so no quoted cell spans lines.

Distances are computed once per registry pair: :class:`DistanceContext`
calls the scalar :func:`geodesic_distance` and :func:`genetic_distance` for
each distinct pair and keeps the results as two symmetric (n, n) float64
arrays, 8·n² bytes each (8.3 MB at 1,017 languages). The normalization
bounds, the k-NN ranking and the ``distances.tsv`` table of each language's
k neighbors all read those arrays; the ranking combines one row per target
language, never the whole matrix. The haversine stays scalar Python, as
the only definition of the distance: on the 1,017-language synthetic suite
(seed 7) a numpy haversine differs from it for 33,139 of the 516,636 pairs
(225 with ``math.asin`` kept), and since the k-NN ranking breaks exact
distance ties by language code, one differing bit can change a neighbor set.
"""

from __future__ import annotations

import csv
import heapq
import io
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .config import CATEGORIES, KnnConfig, category_of  # re-exported
from .corpus import CorpusError, LanguageRecord, Registry, read_records, read_tsv, write_records

EARTH_RADIUS_KM = 6371.0


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    category: str

    def __post_init__(self) -> None:
        if category_of(self.name) != self.category:
            raise ValueError(f"feature {self.name!r} prefix does not match category {self.category!r}")


class FeatureMatrix:
    """languages x features with values in {0, 1, missing(NaN)}."""

    def __init__(self, languages: list[str], features: list[FeatureSpec], values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (len(languages), len(features)):
            raise ValueError(f"values shape {values.shape} != ({len(languages)}, {len(features)})")
        valid = np.isnan(values) | (values == 0.0) | (values == 1.0)
        if not valid.all():
            raise ValueError("feature values must be 0, 1, or missing")
        self.languages = list(languages)
        self.features = list(features)
        self.values = values
        self._lang_index = {lang: i for i, lang in enumerate(self.languages)}
        self._feat_index = {f.name: j for j, f in enumerate(self.features)}
        if len(self._lang_index) != len(self.languages):
            raise ValueError("duplicate language rows")
        if len(self._feat_index) != len(self.features):
            raise ValueError("duplicate feature columns")

    def column(self, feature: str) -> np.ndarray:
        return self.values[:, self._feat_index[feature]]

    def labeled(self, feature: str) -> tuple[np.ndarray, np.ndarray]:
        """(rows, labels): the row indices of the languages that label
        ``feature``, in row order, and their 0/1 values."""
        column = self.column(feature)
        rows = np.flatnonzero(~np.isnan(column))
        return rows, column[rows]

    def feature_names(self, category: str | None = None) -> list[str]:
        return [f.name for f in self.features if category is None or f.category == category]

    def category_counts(self) -> dict[str, int]:
        counts = {cat: 0 for cat in CATEGORIES}
        for f in self.features:
            counts[f.category] += 1
        return counts


def _csv_record(line) -> list[str]:
    try:
        return next(csv.reader([line]))
    except csv.Error as exc:
        raise CorpusError(str(exc)) from None


def _csv_line(cells) -> str:
    """``cells`` as one CSV record, the inverse of :func:`_csv_record`."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(cells)
    return buffer.getvalue()[:-1]


def load_features(path, registry: Registry) -> FeatureMatrix:
    def parse_header(line):
        header = _csv_record(line)
        if not header or header[0] != "lang":
            raise CorpusError("first header column must be 'lang'")
        for j, name in enumerate(header):
            if name in header[:j]:
                raise CorpusError(f"duplicate feature column {name!r}")
        return header

    def parse(header, line):
        row = _csv_record(line)
        if len(row) != len(header):
            raise CorpusError(f"expected {len(header)} cells, got {len(row)}")
        lang = row[0]
        if lang not in registry:
            raise CorpusError(f"unknown language {lang!r} (not in {registry.source})")
        if lang in seen_langs:
            raise CorpusError(f"duplicate language row {lang!r}")
        seen_langs.add(lang)
        cells: list[float] = []
        for name, cell in zip(header[1:], row[1:]):
            if cell == "":
                cells.append(math.nan)
            elif cell in ("0", "1"):
                cells.append(float(cell))
            else:
                raise CorpusError(f"feature {name} has value {cell!r}, expected 0, 1 or empty")
        return lang, cells

    seen_langs: set[str] = set()
    header, *rows = read_records(path, parse, header=parse_header)
    if len(header) == 1 or not rows:
        raise CorpusError(f"{path}: no {'feature columns' if len(header) == 1 else 'language rows'}")
    try:
        features = [FeatureSpec(name, category_of(name)) for name in header[1:]]
        values = np.array([cells for _, cells in rows]).reshape(len(rows), len(features))
        return FeatureMatrix([lang for lang, _ in rows], features, values)
    except ValueError as exc:
        raise CorpusError(f"{path}: {exc}") from None


def write_features(path, matrix: FeatureMatrix) -> None:
    write_records(path, ([_csv_line(row)] for row in chain(
        [("lang", *matrix.feature_names())],
        ((lang, *("" if math.isnan(v) else int(v) for v in values))
         for lang, values in zip(matrix.languages, matrix.values)))))


def write_knn_vectors(path, matrix: FeatureMatrix, knn: dict[str, np.ndarray]) -> None:
    write_records(path, chain([("lang", *matrix.feature_names())],
                          ((lang, *knn[lang].tolist()) for lang in matrix.languages)))


def read_knn_vectors(path) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}

    def row(fields):
        if fields[0] in out:
            raise ValueError(f"duplicate language {fields[0]!r}")
        values = out[fields[0]] = np.array([float(v) for v in fields[1:]])
        if not np.all((values >= 0.0) & (values <= 1.0)):  # NaN fails too
            raise ValueError("k-NN feature values must lie in [0, 1]")

    read_tsv(path, ("lang",), row)
    return out


# --- distances ---------------------------------------------------------------

def geodesic_distance(a: LanguageRecord, b: LanguageRecord) -> float:
    """Great-circle (haversine) distance in kilometers, Earth radius 6371 km."""
    lat1, lon1, lat2, lon2 = map(math.radians, (a.lat, a.lon, b.lat, b.lon))
    s = (
        math.sin((lat2 - lat1) / 2.0) ** 2
        + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(s)))


def genetic_distance(a: LanguageRecord, b: LanguageRecord) -> float:
    """Lineage dissimilarity: 1 - 2*|shared prefix| / (|a| + |b|)."""
    shared = 0
    for x, y in zip(a.lineage, b.lineage):
        if x != y:
            break
        shared += 1
    return 1.0 - 2.0 * shared / (len(a.lineage) + len(b.lineage))


def _normalized(d: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Min-max scaled distances; a degenerate span (all pairs equal) gives 0."""
    span = hi - lo
    return (d - lo) / span if span > 0 else np.zeros_like(d)


def _bounds(distances: np.ndarray) -> tuple[float, float]:
    return (float(distances.min()), float(distances.max())) if distances.size else (0.0, 0.0)


class DistanceContext:
    """Symmetric (n, n) geodesic and genetic distance arrays in registry order,
    and their min-max normalization bounds over the distinct pairs."""

    def __init__(self, registry: Registry):
        self.registry = registry
        records = list(registry)
        n = len(records)
        self.index = {record.code: i for i, record in enumerate(records)}
        self.geo, self.gen = np.zeros((n, n)), np.zeros((n, n))
        for i, a in enumerate(records):
            self.geo[i, i + 1:] = self.geo[i + 1:, i] = [geodesic_distance(a, b) for b in records[i + 1:]]
            self.gen[i, i + 1:] = self.gen[i + 1:, i] = [genetic_distance(a, b) for b in records[i + 1:]]
        pairs = np.triu_indices(n, 1)
        self.geo_min, self.geo_max = _bounds(self.geo[pairs])
        self.gen_min, self.gen_max = _bounds(self.gen[pairs])

    def combined_row(self, code: str, config: KnnConfig) -> np.ndarray:
        """Combined distances (w_geo·ngeo + w_gen·ngen) / wsum from ``code`` to every
        registry language, 0 to itself."""
        i = self.index[code]
        w_geo, w_gen = config.geodesic_weight, config.genetic_weight
        row = (w_geo * _normalized(self.geo[i], self.geo_min, self.geo_max)
               + w_gen * _normalized(self.gen[i], self.gen_min, self.gen_max)) / (w_geo + w_gen)
        row[i] = 0.0
        return row


def nearest_neighbors(lang: str, matrix: FeatureMatrix, registry: Registry,
                      config: KnnConfig, context: DistanceContext) -> list[str]:
    """The k nearest other languages by combined distance; distance ties are
    broken lexicographically by language code. ``context`` must be built from
    ``registry`` itself."""
    if context.registry is not registry:
        raise ValueError("the distance context was built from another registry")
    candidates = [code for code in matrix.languages if code != lang]
    if len(candidates) < config.k:
        raise ValueError(f"{lang}: need at least {config.k} candidate languages, have {len(candidates)}")
    distances = context.combined_row(lang, config)[[context.index[code] for code in candidates]].tolist()
    return [code for _, code in heapq.nsmallest(config.k, zip(distances, candidates))]


def knn_feature_vector(lang: str, matrix: FeatureMatrix, registry: Registry,
                       config: KnnConfig, context: DistanceContext,
                       neighbors: list[str] | None = None) -> np.ndarray:
    """Average feature vector of the language's k nearest neighbors.

    Per feature, neighbors missing that feature are skipped (the divisor
    shrinks); if all k are missing, falls back to the global non-missing
    mean over all other languages, and to 0.5 if that is empty too. The
    target language's own row is never used. ``neighbors``, when given, is
    the list :func:`nearest_neighbors` returned for these arguments, so a
    caller that also needs the list ranks once.
    """
    if neighbors is None:
        neighbors = nearest_neighbors(lang, matrix, registry, config, context)
    rows = matrix.values[[matrix._lang_index[nb] for nb in neighbors]]
    counts = np.sum(~np.isnan(rows), axis=0)
    # values are 0 or 1, so the sum is exact in any order
    out = np.nansum(rows, axis=0) / np.maximum(counts, 1)
    for j in np.flatnonzero(counts == 0):
        labeled, labels = matrix.labeled(matrix.features[j].name)
        others = labels[labeled != matrix._lang_index[lang]]
        out[j] = float(others.mean()) if len(others) else 0.5
    return out


def majority_label(ones, n):
    """The most common label of ``n`` 0/1 labels of which ``ones`` are 1, ties
    to 1; elementwise over arrays of counts."""
    return (2 * np.asarray(ones) >= n).astype(int)


def majority_rate(feature: str, matrix: FeatureMatrix) -> float:
    """Accuracy in [0,1] of always predicting the feature's most common value."""
    _, labels = matrix.labeled(feature)
    if not len(labels):
        raise ValueError(f"{feature}: all values missing")
    majority = majority_label(np.count_nonzero(labels), len(labels))
    return np.count_nonzero(labels == majority) / len(labels)


def write_neighbors(path, neighbors: dict[str, list[str]], config: KnnConfig,
                    context: DistanceContext) -> None:
    """The ``baseline`` stage's TSV of the neighbors the k-NN vectors average:
    ``neighbors`` maps each language, in the order its rows are written (the
    stage's is the feature matrix's), to its :func:`nearest_neighbors` in rank
    order; each row is lang rank neighbor geodesic genetic combined."""
    def rows():
        yield "lang", "rank", "neighbor", "geodesic", "genetic", "combined"
        for lang, ranked in neighbors.items():
            i, combined = context.index[lang], context.combined_row(lang, config)
            for rank, neighbor in enumerate(ranked, 1):
                j = context.index[neighbor]
                yield (lang, rank, neighbor,
                       float(context.geo[i, j]), float(context.gen[i, j]), float(combined[j]))

    write_records(path, rows())
