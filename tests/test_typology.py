import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from typovec import typology
from typovec.corpus import CorpusError, LanguageRecord, Registry
from typovec.typology import (
    DistanceContext,
    FeatureMatrix,
    FeatureSpec,
    KnnConfig,
    genetic_distance,
    geodesic_distance,
    knn_feature_vector,
    load_features,
    majority_label,
    majority_rate,
    nearest_neighbors,
    write_features,
    write_neighbors,
)

from oracles import brute_force_knn_vector


def rec(code, lat, lon, lineage):
    return LanguageRecord(code, tuple(lineage), lat, lon)


class TestGeodesic:
    def test_zero_on_identical(self):
        a = rec("aaa", 12.0, 34.0, ["F"])
        assert geodesic_distance(a, a) == 0.0

    def test_half_great_circle(self):
        a = rec("aaa", 0.0, 0.0, ["F"])
        b = rec("bbb", 0.0, 180.0, ["G"])
        assert geodesic_distance(a, b) == pytest.approx(math.pi * 6371.0, rel=1e-9)

    @given(st.floats(-90, 90), st.floats(-180, 180), st.floats(-90, 90), st.floats(-180, 180))
    def test_symmetric_and_nonnegative(self, lat1, lon1, lat2, lon2):
        a = rec("aaa", lat1, lon1, ["F"])
        b = rec("bbb", lat2, lon2, ["G"])
        assert geodesic_distance(a, b) == geodesic_distance(b, a)
        assert geodesic_distance(a, b) >= 0.0


class TestGenetic:
    def test_identical_lineages(self):
        a = rec("aaa", 0, 0, ["IE", "Romance"])
        b = rec("bbb", 1, 1, ["IE", "Romance"])
        assert genetic_distance(a, b) == 0.0

    def test_disjoint_lineages(self):
        a = rec("aaa", 0, 0, ["IE", "Romance"])
        b = rec("bbb", 1, 1, ["Koreanic"])
        assert genetic_distance(a, b) == 1.0

    def test_half_shared(self):
        a = rec("aaa", 0, 0, ["IE", "Romance"])
        b = rec("bbb", 1, 1, ["IE", "Germanic"])
        assert genetic_distance(a, b) == pytest.approx(0.5)

    def test_symmetric(self):
        a = rec("aaa", 0, 0, ["IE", "Romance", "Gallo"])
        b = rec("bbb", 1, 1, ["IE", "Germanic"])
        assert genetic_distance(a, b) == genetic_distance(b, a)


class TestCombined:
    @pytest.fixture
    def registry(self):
        return Registry([
            rec("aaa", 0.0, 0.0, ["F1", "B1"]),
            rec("bbb", 0.0, 10.0, ["F1", "B2"]),
            rec("ccc", 0.0, 180.0, ["F2"]),
        ])

    def test_identical_is_zero(self, registry):
        ctx = DistanceContext(registry)
        assert ctx.combined_row("aaa", KnnConfig())[ctx.index["aaa"]] == 0.0

    def test_pair_attaining_both_maxima_is_one(self, registry):
        ctx = DistanceContext(registry)
        # aaa-ccc attains both the geodesic max and the genetic max
        assert ctx.combined_row("aaa", KnnConfig())[ctx.index["ccc"]] == pytest.approx(1.0)

    def test_symmetric(self, registry):
        ctx = DistanceContext(registry)
        d1 = ctx.combined_row("aaa", KnnConfig())[ctx.index["bbb"]]
        d2 = ctx.combined_row("bbb", KnnConfig())[ctx.index["aaa"]]
        assert d1 == d2
        assert 0.0 <= d1 <= 1.0

    def test_degenerate_component_contributes_zero(self):
        registry = Registry([
            rec("aaa", 5.0, 5.0, ["F1", "B1"]),
            rec("bbb", 5.0, 5.0, ["F1", "B2"]),
            rec("ccc", 5.0, 5.0, ["F2"]),
        ])
        ctx = DistanceContext(registry)
        # all geodesic distances equal (zero): only the genetic half remains,
        # and aaa-ccc attains the genetic max
        d = ctx.combined_row("aaa", KnnConfig())[ctx.index["ccc"]]
        assert d == pytest.approx(0.5)


def grid_registry(n: int, seed: int) -> Registry:
    """A3's registries: grid coordinates and few lineages, so equal distances occur."""
    rng = np.random.default_rng(seed)
    lineages = [("F1", "B1"), ("F1", "B2"), ("F1", "B1", "C1"), ("F2",), ("F2", "B1"), ("F3", "B1")]
    return Registry([rec(f"l{i:02d}", float(rng.integers(0, 4) * 15), float(rng.integers(0, 4) * 15),
                         lineages[int(rng.integers(len(lineages)))]) for i in range(n)])


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestDistanceContext:
    @pytest.mark.parametrize("seed", [303, 304])
    def test_arrays_and_combined_match_the_scalar_definitions_bitwise(self, seed):
        registry = grid_registry(30, seed)
        records = list(registry)
        ctx = DistanceContext(registry)
        for distance, array in ((geodesic_distance, ctx.geo), (genetic_distance, ctx.gen)):
            np.testing.assert_array_equal(bits(array), bits([[distance(a, b) for b in records] for a in records]))
            np.testing.assert_array_equal(bits(array), bits([[distance(b, a) for b in records] for a in records]))
        pairs = [(a, b) for i, a in enumerate(records) for b in records[i + 1:]]
        geo_min = min(geodesic_distance(a, b) for a, b in pairs)
        geo_span = max(geodesic_distance(a, b) for a, b in pairs) - geo_min
        gen_min = min(genetic_distance(a, b) for a, b in pairs)
        gen_span = max(genetic_distance(a, b) for a, b in pairs) - gen_min
        for config in (KnnConfig(), KnnConfig(3, 0.3, 1.7), KnnConfig(3, 0.0, 1.0)):
            w_geo, w_gen = config.geodesic_weight, config.genetic_weight

            def scalar(a, b):
                # the combined distance as computed pair by pair, from the scalar distances
                if a.code == b.code:
                    return 0.0
                ngeo = (geodesic_distance(a, b) - geo_min) / geo_span if geo_span > 0 else 0.0
                ngen = (genetic_distance(a, b) - gen_min) / gen_span if gen_span > 0 else 0.0
                return (w_geo * ngeo + w_gen * ngen) / (w_geo + w_gen)

            for a in records:
                np.testing.assert_array_equal(bits(ctx.combined_row(a.code, config)),
                                              bits([scalar(a, b) for b in records]))

    def test_each_pair_distance_is_computed_once(self, monkeypatch, tmp_path):
        registry = grid_registry(20, 303)
        calls = {"geo": 0, "gen": 0}

        def counting(name, distance):
            def wrapped(a, b):
                calls[name] += 1
                return distance(a, b)
            return wrapped

        monkeypatch.setattr(typology, "geodesic_distance", counting("geo", geodesic_distance))
        monkeypatch.setattr(typology, "genetic_distance", counting("gen", genetic_distance))
        matrix = FeatureMatrix(registry.codes, [FeatureSpec("S_X", "syntax")], np.ones((20, 1)))
        config = KnnConfig()
        ctx = DistanceContext(registry)
        for lang in registry.codes:
            knn_feature_vector(lang, matrix, registry, config, ctx)
        neighbors = {lang: nearest_neighbors(lang, matrix, registry, config, ctx) for lang in registry.codes}
        write_neighbors(tmp_path / "distances.tsv", neighbors, config, ctx)
        assert calls == {"geo": 20 * 19 // 2, "gen": 20 * 19 // 2}


def matrix_from(rows: dict[str, list[float]], names: list[str]) -> FeatureMatrix:
    features = [FeatureSpec(n, {"S": "syntax", "P": "phonology", "I": "inventory"}[n[0]]) for n in names]
    return FeatureMatrix(list(rows), features, np.array(list(rows.values())))


class TestFeatureMatrix:
    def test_load_counts_categories(self, tmp_path, small_registry):
        names = [f"S_F{i}" for i in range(103)] + [f"P_F{i}" for i in range(28)] + [f"I_F{i}" for i in range(158)]
        lines = ["lang," + ",".join(names)]
        for code in ("deu", "fra"):
            lines.append(code + "," + ",".join("1" for _ in names))
        path = tmp_path / "f.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        matrix = load_features(path, small_registry)
        assert matrix.category_counts() == {"syntax": 103, "phonology": 28, "inventory": 158}

    def test_invalid_cell_rejected(self, tmp_path, small_registry):
        path = tmp_path / "f.csv"
        path.write_text("lang,S_X\ndeu,2\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="expected 0, 1 or empty"):
            load_features(path, small_registry)

    def test_empty_cell_is_missing(self, tmp_path, small_registry):
        path = tmp_path / "f.csv"
        path.write_text("lang,S_X,S_Y\ndeu,,1\n", encoding="utf-8")
        matrix = load_features(path, small_registry)
        assert matrix.languages == ["deu"]
        assert math.isnan(matrix.column("S_X")[0])
        assert matrix.column("S_Y")[0] == 1.0

    def test_unknown_language_rejected(self, tmp_path, small_registry):
        path = tmp_path / "f.csv"
        path.write_text("lang,S_X\nzzz,1\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="unknown language"):
            load_features(path, small_registry)

    @pytest.mark.parametrize("text, message", [
        ("lang,S_X,P_Y\ndeu,1,0\nfra,0,1\ndeu,1,1\n", "4: duplicate language row 'deu'"),
        ("lang,S_X,P_Y,S_X\ndeu,1,0,1\n", "1: duplicate feature column 'S_X'"),
    ], ids=["row", "column"])
    def test_duplicate_names_path_line_and_value(self, tmp_path, small_registry, text, message):
        path = tmp_path / "f.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CorpusError, match=re.escape(f"{path}:{message}")):
            load_features(path, small_registry)

    def test_repeated_knn_language_names_path_and_line(self, tmp_path):
        path = tmp_path / "knn_vectors.tsv"
        path.write_text("lang\tS_X\nbbb\t0.5\naaa\t1.0\naaa\t0.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: duplicate language 'aaa'")):
            typology.read_knn_vectors(path)

    def test_write_read_round_trip(self, tmp_path, small_registry):
        matrix = matrix_from({"deu": [1.0, math.nan], "fra": [0.0, 1.0]}, ["S_A", "P_B"])
        path = tmp_path / "f.csv"
        write_features(path, matrix)
        loaded = load_features(path, small_registry)
        assert loaded.languages == matrix.languages
        np.testing.assert_array_equal(np.isnan(loaded.values), np.isnan(matrix.values))


class TestKnn:
    @pytest.fixture
    def registry(self):
        # bbb, ccc, ddd are closest to aaa in that order; eee is far
        return Registry([
            rec("aaa", 0.0, 0.0, ["F1", "B1"]),
            rec("bbb", 0.0, 1.0, ["F1", "B1"]),
            rec("ccc", 0.0, 2.0, ["F1", "B1"]),
            rec("ddd", 0.0, 3.0, ["F1", "B1"]),
            rec("eee", 50.0, 120.0, ["F2"]),
        ])

    def test_mean_of_neighbor_values(self, registry):
        matrix = matrix_from(
            {"aaa": [0.0], "bbb": [1.0], "ccc": [1.0], "ddd": [0.0], "eee": [1.0]}, ["S_X"]
        )
        out = knn_feature_vector("aaa", matrix, registry, KnnConfig(k=3), DistanceContext(registry))
        assert out[0] == pytest.approx(2.0 / 3.0)

    def test_missing_neighbor_skipped(self, registry):
        matrix = matrix_from(
            {"aaa": [0.0], "bbb": [1.0], "ccc": [math.nan], "ddd": [0.0], "eee": [1.0]}, ["S_X"]
        )
        out = knn_feature_vector("aaa", matrix, registry, KnnConfig(k=3), DistanceContext(registry))
        assert out[0] == pytest.approx(0.5)

    def test_all_neighbors_missing_falls_back_to_global_mean(self):
        registry = Registry([
            rec("aaa", 0.0, 0.0, ["F1", "B1"]),
            rec("bbb", 0.0, 1.0, ["F1", "B1"]),
            rec("ccc", 0.0, 2.0, ["F1", "B1"]),
            rec("ddd", 0.0, 3.0, ["F1", "B1"]),
            rec("eee", 50.0, 120.0, ["F2"]),
            rec("fff", 51.0, 121.0, ["F2"]),
            rec("ggg", 52.0, 122.0, ["F2"]),
            rec("hhh", 53.0, 123.0, ["F2"]),
        ])
        matrix = matrix_from(
            {"aaa": [1.0], "bbb": [math.nan], "ccc": [math.nan], "ddd": [math.nan],
             "eee": [1.0], "fff": [0.0], "ggg": [0.0], "hhh": [0.0]},
            ["S_X"],
        )
        # the 3 nearest (bbb, ccc, ddd) are all missing; the global non-missing
        # mean over the other languages is (1+0+0+0)/4 = 0.25
        out = knn_feature_vector("aaa", matrix, registry, KnnConfig(k=3), DistanceContext(registry))
        assert out[0] == pytest.approx(0.25)

    def test_own_row_never_used(self, registry):
        m1 = matrix_from({"aaa": [0.0], "bbb": [1.0], "ccc": [1.0], "ddd": [1.0], "eee": [1.0]}, ["S_X"])
        m2 = matrix_from({"aaa": [1.0], "bbb": [1.0], "ccc": [1.0], "ddd": [1.0], "eee": [1.0]}, ["S_X"])
        out1 = knn_feature_vector("aaa", m1, registry, KnnConfig(k=3), DistanceContext(registry))
        out2 = knn_feature_vector("aaa", m2, registry, KnnConfig(k=3), DistanceContext(registry))
        np.testing.assert_array_equal(out1, out2)

    def test_context_of_another_registry_rejected(self, registry):
        matrix = matrix_from({code: [1.0] for code in registry.codes}, ["S_X"])
        with pytest.raises(ValueError, match="another registry"):
            knn_feature_vector("aaa", matrix, registry, KnnConfig(k=3), DistanceContext(Registry(list(registry))))

    def test_too_few_candidates_rejected(self):
        registry = Registry([rec("aaa", 0, 0, ["F"]), rec("bbb", 1, 1, ["F"])])
        matrix = matrix_from({"aaa": [1.0], "bbb": [1.0]}, ["S_X"])
        with pytest.raises(ValueError, match="candidate"):
            knn_feature_vector("aaa", matrix, registry, KnnConfig(k=3), DistanceContext(registry))

    def test_outputs_in_unit_interval(self, registry):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 2, size=(5, 4)).astype(float)
        matrix = FeatureMatrix(
            ["aaa", "bbb", "ccc", "ddd", "eee"],
            [FeatureSpec(f"S_F{i}", "syntax") for i in range(4)],
            values,
        )
        out = knn_feature_vector("bbb", matrix, registry, KnnConfig(k=3), DistanceContext(registry))
        assert np.all((out >= 0.0) & (out <= 1.0))

    def test_matches_full_sort_oracle_with_ties_and_missing(self):
        rng = np.random.default_rng(42)
        for trial in range(10):
            n = int(rng.integers(5, 25))
            codes = [f"l{i:02d}" for i in range(n)]
            records = {}
            lineages = [("F1", "B1"), ("F1", "B2"), ("F2",), ("F2", "B1", "C1")]
            # coordinates drawn from a tiny grid so exact distance ties occur
            for code in codes:
                records[code] = (
                    float(rng.integers(0, 3) * 10),
                    float(rng.integers(0, 3) * 10),
                    lineages[int(rng.integers(len(lineages)))],
                )
            n_feats = int(rng.integers(1, 5))
            values = rng.integers(0, 2, size=(n, n_feats)).astype(float)
            mask = rng.random((n, n_feats)) < 0.3
            values[mask] = math.nan
            registry = Registry([rec(c, records[c][0], records[c][1], records[c][2]) for c in codes])
            matrix = FeatureMatrix(codes, [FeatureSpec(f"S_F{i}", "syntax") for i in range(n_feats)], values)
            config = KnnConfig(k=3)
            context = DistanceContext(registry)
            for lang in codes:
                mine = knn_feature_vector(lang, matrix, registry, config, context)
                oracle = brute_force_knn_vector(lang, records, codes, values, k=3)
                np.testing.assert_array_equal(mine, oracle, err_msg=f"trial {trial} lang {lang}")

    def test_given_neighbors_give_the_ranked_vector(self):
        registry = grid_registry(12, 7)
        values = np.random.default_rng(5).integers(0, 2, size=(12, 4)).astype(float)
        values[np.random.default_rng(6).random(values.shape) < 0.3] = math.nan
        matrix = FeatureMatrix(registry.codes, [FeatureSpec(f"S_F{i}", "syntax") for i in range(4)], values)
        config, context = KnnConfig(k=3), DistanceContext(registry)
        for lang in registry.codes:
            ranked = nearest_neighbors(lang, matrix, registry, config, context)
            np.testing.assert_array_equal(
                knn_feature_vector(lang, matrix, registry, config, context, ranked),
                knn_feature_vector(lang, matrix, registry, config, context))


class TestMajority:
    def test_rate(self):
        matrix = matrix_from({f"l{i:02d}": [1.0 if i < 7 else 0.0] for i in range(10)}, ["S_X"])
        assert majority_rate("S_X", matrix) == pytest.approx(0.70)

    def test_tie_breaks_toward_one(self):
        matrix = matrix_from({f"l{i:02d}": [1.0 if i < 5 else 0.0] for i in range(10)}, ["S_X"])
        assert majority_rate("S_X", matrix) == pytest.approx(0.50)
        assert majority_label(5, 10) == 1

    def test_unanimous(self):
        matrix = matrix_from({f"l{i:02d}": [1.0] for i in range(4)}, ["S_X"])
        assert majority_rate("S_X", matrix) == 1.0

    def test_all_missing_rejected(self):
        matrix = matrix_from({"l00": [math.nan], "l01": [math.nan]}, ["S_X"])
        with pytest.raises(ValueError, match="missing"):
            majority_rate("S_X", matrix)
