"""Geodesic and genetic distances, and the k-NN averaged feature baseline.

A handful of real-ish languages with coordinates and lineages; shows raw
distances, the normalized combination, nearest neighbors, the averaged
feature vector, and the majority-class chance rate.
"""

import numpy as np

from typovec.corpus import LanguageRecord, Registry
from typovec.typology import (
    DistanceContext,
    FeatureMatrix,
    FeatureSpec,
    KnnConfig,
    genetic_distance,
    geodesic_distance,
    knn_feature_vector,
    majority_rate,
    nearest_neighbors,
)

registry = Registry([
    LanguageRecord("fra", ("IndoEuropean", "Italic", "Romance"), 48.0, 2.0),
    LanguageRecord("spa", ("IndoEuropean", "Italic", "Romance"), 40.4, -3.7),
    LanguageRecord("deu", ("IndoEuropean", "Germanic"), 51.0, 10.0),
    LanguageRecord("nld", ("IndoEuropean", "Germanic"), 52.0, 5.0),
    LanguageRecord("kor", ("Koreanic",), 37.5, 128.0),
    LanguageRecord("jpn", ("Japonic",), 35.7, 139.7),
])

ctx = DistanceContext(registry)
config = KnnConfig(k=3)
print("pairwise distances (km / lineage / combined):")
codes = registry.codes
for i, a in enumerate(codes):
    combined = ctx.combined_row(a, config)
    for b in codes[i + 1:]:
        ra, rb = registry[a], registry[b]
        print(f"  {a}-{b}: {geodesic_distance(ra, rb):8.0f} km, "
              f"genetic {genetic_distance(ra, rb):.2f}, "
              f"combined {combined[ctx.index[b]]:.3f}")

# two syntax features: verb-final order, postpositions
features = [FeatureSpec("S_OBJECT_BEFORE_VERB", "syntax"),
            FeatureSpec("S_ADPOSITION_AFTER_NOUN", "syntax")]
values = np.array([
    [0.0, 0.0],        # fra
    [0.0, 0.0],        # spa
    [0.0, 0.0],        # deu
    [0.0, np.nan],     # nld (one entry missing)
    [1.0, 1.0],        # kor
    [1.0, 1.0],        # jpn
])
matrix = FeatureMatrix(codes, features, values)

for lang in ("fra", "kor"):
    neighbors = nearest_neighbors(lang, matrix, registry, config, ctx)
    vec = knn_feature_vector(lang, matrix, registry, config, ctx)
    print(f"\n{lang}: 3 nearest neighbors {neighbors}")
    print(f"{lang}: averaged neighbor feature vector {np.round(vec, 3)}")

for feat in matrix.feature_names():
    print(f"chance rate for {feat}: {100 * majority_rate(feat, matrix):.1f}%")
