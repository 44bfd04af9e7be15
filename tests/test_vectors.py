import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import typovec
from typovec.bpe import EncodedCorpus, build_vocab, encode_corpus, learn_bpe
from typovec.models import Seq2SeqModel, TrainConfig, encode
from typovec.vectors import (
    LangVector,
    combine_mtboth,
    extract_lmvec,
    extract_mtcell,
    extract_mtvec,
    extract_variant,
    load_vectors,
    save_vectors,
)


# MTCell first: its tests keep their original names, the others are parametrized
VARIANTS = {
    "MTCell": extract_mtcell,
    "MTCellFinal": lambda *args: extract_variant(*args, "final-cell"),
    "MTHiddenMean": lambda *args: extract_variant(*args, "mean-hidden"),
}

# extracts every encoder vector of a small suite and prints their sha256
THREAD_SCRIPT = """
import hashlib
import numpy as np
from typovec.bpe import build_vocab, encode_corpus, learn_bpe
from typovec.models import Seq2SeqModel, TrainConfig
from typovec.synth import generate_suite
from typovec.vectors import extract_encoder_vectors
suite = generate_suite(4, 60, seed=5)
merges = learn_bpe(suite.corpus, 40)
vocab = build_vocab(suite.corpus, merges, suite.registry)
encoded = encode_corpus(suite.corpus, merges, vocab)
model = Seq2SeqModel(len(vocab), TrainConfig(hidden_size=64, seed=5), np.random.default_rng(5))
digest = hashlib.sha256()
for lang in sorted(encoded.by_lang):
    for v in extract_encoder_vectors(model, encoded, vocab, lang).values():
        digest.update(v.values.tobytes())
print(digest.hexdigest())
"""


# trains a small translation model (GEMMs over T*B = 64 x ~15 rows are large enough for
# OpenBLAS to split them across threads) and prints the sha256 of its checkpoint
TRAIN_THREAD_SCRIPT = """
import hashlib, pathlib, tempfile
from typovec.bpe import build_vocab, encode_corpus, learn_bpe
from typovec.models import TrainConfig, save_model
from typovec.synth import generate_suite
from typovec.training import train_nmt
suite = generate_suite(4, 60, seed=5)
merges = learn_bpe(suite.corpus, 40)
vocab = build_vocab(suite.corpus, merges, suite.registry)
encoded = encode_corpus(suite.corpus, merges, vocab)
config = TrainConfig(hidden_size=32, lr=0.01, dropout=0.1, epochs=2, batch_size=64, seed=5)
model, curve = train_nmt(encoded, vocab, config)
with tempfile.TemporaryDirectory() as tmp:
    ckpt = pathlib.Path(tmp) / "nmt.ckpt"
    save_model(ckpt, pathlib.Path(tmp) / "nmt.model", model, config, curve, "vocab")
    print(hashlib.sha256(ckpt.read_bytes()).hexdigest())
"""


def digests_across_blas_threads(script: str) -> set[str]:
    """The script's output under OPENBLAS_NUM_THREADS 1 and 2."""
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": str(Path(typovec.__file__).resolve().parents[1])}
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True)
        digests.add(out.stdout.strip())
    return digests


@pytest.fixture
def setup(small_registry, small_corpus):
    merges = learn_bpe(small_corpus, 15)
    vocab = build_vocab(small_corpus, merges, small_registry)
    encoded = encode_corpus(small_corpus, merges, vocab)
    model = Seq2SeqModel(len(vocab), TrainConfig(hidden_size=6, embed_size=5, epochs=1, seed=3),
                         np.random.default_rng(3))
    return vocab, encoded, model


class TestEmbeddingExtractors:
    def test_mtvec_is_the_language_token_row(self, setup):
        vocab, _, model = setup
        v = extract_mtvec(model, vocab, "fra")
        np.testing.assert_array_equal(v.values, model.embedding.value[vocab.lang_id("fra")])
        assert v.dim == model.embed_size
        assert v.n_sentences == 0

    def test_lmvec_same_contract(self, setup, small_registry, small_corpus):
        from typovec.models import RnnLmModel

        vocab, _, _ = setup
        lm = RnnLmModel(len(vocab), TrainConfig(hidden_size=6, embed_size=5, epochs=1),
                        np.random.default_rng(4))
        v = extract_lmvec(lm, vocab, "kor")
        np.testing.assert_array_equal(v.values, lm.embedding.value[vocab.lang_id("kor")])
        assert v.method == "LMVec"

    def test_repeated_calls_identical(self, setup):
        vocab, _, model = setup
        a = extract_mtvec(model, vocab, "deu")
        b = extract_mtvec(model, vocab, "deu")
        np.testing.assert_array_equal(a.values, b.values)

    def test_unknown_language_rejected(self, setup):
        vocab, _, model = setup
        with pytest.raises(ValueError, match="unknown language"):
            extract_mtvec(model, vocab, "qqq")


class TestMtcell:
    def test_matches_concatenate_then_mean_oracle(self, setup):
        vocab, encoded, model = setup
        v = extract_mtcell(model, encoded, vocab, "deu")
        all_cells = []
        for pair in encoded.by_lang["deu"]:
            all_cells.extend(c for _, c in encode(model, vocab, "deu", pair.source_ids))
        oracle = np.stack(all_cells).mean(axis=0)
        np.testing.assert_allclose(v.values, oracle, atol=1e-12)
        assert v.n_sentences == len(encoded.by_lang["deu"])
        assert v.dim == model.hidden_size

    def test_permutation_invariance_is_exact(self, setup):
        self.test_variant_permutation_invariance_is_exact(setup, "MTCell")

    @pytest.mark.parametrize("variant", list(VARIANTS)[1:])
    def test_variant_permutation_invariance_is_exact(self, setup, variant):
        vocab, encoded, model = setup
        v1 = VARIANTS[variant](model, encoded, vocab, "deu")
        reordered = EncodedCorpus()
        for pair in reversed(encoded.by_lang["deu"]):
            reordered.add(pair)
        v2 = VARIANTS[variant](model, reordered, vocab, "deu")
        np.testing.assert_array_equal(v1.values, v2.values)

    def test_simple_average(self, setup):
        # gates saturate exactly (i = 1, f = 0) so c_t = g_t: the source steps
        # record cells [1,0] and [0,1]; language token and EOS record [0,0]
        from typovec.bpe import EncodedPair

        vocab, _, _ = setup
        model = Seq2SeqModel(len(vocab), TrainConfig(hidden_size=2, embed_size=2, epochs=1),
                             np.random.default_rng(0))
        enc = model.encoder
        for p in (model.embedding, enc.w, enc.u, enc.b):
            p.value[...] = 0.0
        enc.b.value[0:2] = 40.0
        enc.b.value[2:4] = -40.0
        enc.w.value[:, 6:8] = 40.0 * np.eye(2)
        model.embedding.value[10] = [1.0, 0.0]
        model.embedding.value[11] = [0.0, 1.0]
        single = EncodedCorpus()
        single.add(EncodedPair("fra", (10, 11), ()))
        flat = extract_mtcell(model, single, vocab, "fra")
        np.testing.assert_array_equal(flat.values, [0.25, 0.25])

    def test_no_sentences_rejected(self, setup):
        vocab, encoded, model = setup
        with pytest.raises(ValueError, match="no sentences"):
            extract_mtcell(model, EncodedCorpus(), vocab, "deu")

    def test_extraction_isolation_across_languages(self, setup):
        self.test_variant_isolation_across_languages(setup, "MTCell")

    @pytest.mark.parametrize("variant", list(VARIANTS)[1:])
    def test_variant_isolation_across_languages(self, setup, variant):
        vocab, encoded, model = setup
        v1 = VARIANTS[variant](model, encoded, vocab, "fra")
        bigger = EncodedCorpus()
        for pair in encoded.ordered:
            bigger.add(pair)
            if pair.lang == "deu":
                bigger.add(pair)  # extend another language's corpus
        v2 = VARIANTS[variant](model, bigger, vocab, "fra")
        np.testing.assert_array_equal(v1.values, v2.values)

    def test_vectors_identical_across_blas_thread_counts(self):
        digests = digests_across_blas_threads(THREAD_SCRIPT)
        assert len(digests) == 1, digests

    def test_training_identical_across_blas_thread_counts(self):
        digests = digests_across_blas_threads(TRAIN_THREAD_SCRIPT)
        assert len(digests) == 1, digests


class TestVariants:
    def test_final_cell_equals_mtcell_on_single_step_input(self, setup, small_registry):
        from typovec.bpe import EncodedPair

        vocab, _, model = setup
        single = EncodedCorpus()
        single.add(EncodedPair("fra", (), ()))  # only language token + EOS... two steps
        final = extract_variant(model, single, vocab, "fra", "final-cell")
        # a true one-step comparison needs a one-step sentence: empty source
        # has two steps, so compare against the mean of the final step only
        states = encode(model, vocab, "fra", ())
        np.testing.assert_allclose(final.values, states[-1][1], atol=1e-15)

    def test_mean_hidden_values_bounded(self, setup):
        vocab, encoded, model = setup
        v = extract_variant(model, encoded, vocab, "por", "mean-hidden")
        assert np.all(np.abs(v.values) < 1.0)
        assert v.method == "MTHiddenMean"

    def test_hidden_variance_not_greater_report(self, setup, capsys):
        vocab, encoded, model = setup
        cell = extract_mtcell(model, encoded, vocab, "deu")
        hidden = extract_variant(model, encoded, vocab, "deu", "mean-hidden")
        print(f"variance mean-hidden={hidden.values.var():.3e} mtcell={cell.values.var():.3e}")

    def test_unknown_kind_rejected(self, setup):
        vocab, encoded, model = setup
        with pytest.raises(ValueError, match="variant"):
            extract_variant(model, encoded, vocab, "deu", "blah")


class TestMtboth:
    def test_concatenation_layout(self, setup):
        vocab, encoded, model = setup
        v1 = extract_mtvec(model, vocab, "kor")
        v2 = extract_mtcell(model, encoded, vocab, "kor")
        both = combine_mtboth(v1, v2)
        assert both.dim == v1.dim + v2.dim
        np.testing.assert_array_equal(both.values[: v1.dim], v1.values)
        np.testing.assert_array_equal(both.values[v1.dim :], v2.values)
        assert both.method == "MTBoth"

    def test_language_mismatch_rejected(self, setup):
        vocab, encoded, model = setup
        v1 = extract_mtvec(model, vocab, "kor")
        v2 = extract_mtcell(model, encoded, vocab, "deu")
        with pytest.raises(ValueError, match="mismatch"):
            combine_mtboth(v1, v2)

    def test_wrong_method_order_rejected(self, setup):
        vocab, encoded, model = setup
        v2 = extract_mtcell(model, encoded, vocab, "kor")
        with pytest.raises(ValueError, match="MTVec"):
            combine_mtboth(v2, v2)


class TestStore:
    def test_full_precision_round_trip(self, setup, tmp_path):
        vocab, encoded, model = setup
        vectors = [extract_mtcell(model, encoded, vocab, lang) for lang in sorted(encoded.by_lang)]
        path = tmp_path / "vectors.tsv"
        save_vectors(path, vectors)
        loaded = load_vectors(path, "MTCell")
        assert [v.lang for v in loaded] == [v.lang for v in vectors]
        for a, b in zip(vectors, loaded):
            np.testing.assert_array_equal(a.values, b.values)
            assert a.n_sentences == b.n_sentences
            assert a.method == b.method

    def test_round_trip_is_bitwise(self, tmp_path):
        # random bit patterns cover every exponent, subnormals included
        bits = np.random.default_rng(11).integers(0, 2**64, size=4000, dtype=np.uint64).view(np.float64)
        special = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 0.1, -1 / 3]
        values = np.concatenate([special, bits[np.isfinite(bits)]])
        # the rows of a store share one dim
        vectors = [LangVector(f"l{i:02d}", "MTCell", chunk, i)
                   for i, chunk in enumerate(np.split(values[:len(values) // 16 * 16], 16))]
        path = tmp_path / "vectors.tsv"
        save_vectors(path, vectors)
        loaded = load_vectors(path, "MTCell")
        assert [(v.lang, v.method, v.n_sentences) for v in loaded] == \
            [(v.lang, v.method, v.n_sentences) for v in vectors]
        for a, b in zip(vectors, loaded):
            assert a.values.view(np.uint64).tolist() == b.values.view(np.uint64).tolist()

    def test_header_check(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("nope\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            load_vectors(path, "MTVec")

    @pytest.mark.parametrize("row", [
        "aaa\tMTVec\t2\t5\t0.5 x0.25",
        "aaa\tMTVec\ttwo\t5\t0.5 0.25",
        "aaa\tMTVec\t2\t5.0\t0.5 0.25",
        "aaa\tMTVec\t3\t5\t0.5 0.25",
        "aaa\tMTVec\t2\t5\t0.5 inf",
        # a repeated language would leave predict one of its rows without a word, and
        # a dim of its own would fail only in predict's np.stack, naming no file
        "bbb\tMTVec\t2\t5\t0.125 1.0",
        "bbb\tMTCell\t2\t5\t0.125 1.0",
        "aaa\tMTVec\t3\t5\t0.5 0.25 1.0",
        # a row of another method would be reported as the store's method
        "aaa\tMTCell\t2\t5\t0.125 1.0",
    ], ids=["float", "dim", "n_sentences", "value-count", "non-finite", "repeated-language",
            "repeated-language-other-method", "dim-other-than-first", "other-method"])
    def test_bad_number_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "vectors.tsv"
        path.write_text("lang\tmethod\tdim\tn_sentences\n"
                        "bbb\tMTVec\t2\t5\t0.5 0.25\n" + row + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: ")):
            load_vectors(path, "MTVec")

    def test_mtboth_dim_invariant(self, setup):
        vocab, encoded, model = setup
        v1 = extract_mtvec(model, vocab, "deu")
        v2 = extract_mtcell(model, encoded, vocab, "deu")
        assert combine_mtboth(v1, v2).dim == v1.dim + v2.dim
