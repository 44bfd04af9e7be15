import pytest
from hypothesis import given, strategies as st

from typovec.bpe import corpus_word_frequencies
from typovec.corpus import (
    CorpusError,
    LanguageRecord,
    load_parallel,
    load_registry,
    preprocess,
    read_pairs,
    serialize_parallel,
    write_parallel,
    write_registry,
)
from typovec.synth import generate_suite

REGISTRY_TEXT = (
    "# code\tlat\tlon\tlineage\n"
    "fra\t46.0\t2.0\tIndo-European|Romance\n"
    "deu\t51.0\t10.0\tIndo-European|Germanic\n"
    "kor\t37.5\t128.0\tKoreanic\n"
)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestRegistry:
    def test_loads_records(self, tmp_path):
        reg = load_registry(_write(tmp_path, "r.tsv", REGISTRY_TEXT))
        assert len(reg) == 3
        fra = reg["fra"]
        assert fra.lineage == ("Indo-European", "Romance")
        assert (fra.lat, fra.lon) == (46.0, 2.0)

    def test_duplicate_code_rejected(self, tmp_path):
        path = _write(tmp_path, "r.tsv", "fra\t1\t1\tA\nfra\t2\t2\tB\n")
        with pytest.raises(CorpusError, match="duplicate"):
            load_registry(path)

    def test_latitude_out_of_range(self, tmp_path):
        path = _write(tmp_path, "r.tsv", "fra\t95.0\t2.0\tA\n")
        with pytest.raises(CorpusError, match="latitude"):
            load_registry(path)

    def test_malformed_line_names_line_number(self, tmp_path):
        path = _write(tmp_path, "r.tsv", "fra\t46.0\t2.0\tA\nbroken line\n")
        with pytest.raises(CorpusError, match=":2:"):
            load_registry(path)

    def test_empty_lineage_node_rejected(self):
        with pytest.raises(CorpusError):
            LanguageRecord("fra", ("A", ""), 0.0, 0.0)


class TestParallel:
    def test_counts_per_language(self, tmp_path):
        reg = load_registry(_write(tmp_path, "r.tsv", REGISTRY_TEXT))
        text = (
            "deu\tein hund ||| a dog\n"
            "deu\tzwei katzen ||| two cats\n"
            "deu\tdrei ||| three\n"
            "kor\tgae ||| dog\n"
            "kor\tgoyangi ||| cat\n"
        )
        store = load_parallel(_write(tmp_path, "c.txt", text), reg)
        assert store.counts == {"deu": 3, "kor": 2}
        assert sum(store.counts.values()) == len(store)

    def test_unknown_language_rejected(self, tmp_path):
        reg = load_registry(_write(tmp_path, "r.tsv", REGISTRY_TEXT))
        path = _write(tmp_path, "c.txt", "xyz\tein hund ||| a dog\n")
        with pytest.raises(CorpusError, match="unknown language"):
            load_parallel(path, reg)

    def test_empty_source_rejected(self, tmp_path):
        reg = load_registry(_write(tmp_path, "r.tsv", REGISTRY_TEXT))
        path = _write(tmp_path, "c.txt", "deu\t ||| hello\n")
        with pytest.raises(CorpusError, match="empty source"):
            load_parallel(path, reg)

    def test_round_trip_is_byte_identical(self, tmp_path):
        reg = load_registry(_write(tmp_path, "r.tsv", REGISTRY_TEXT))
        text = (
            "deu\tein hund läuft ||| a dog runs\n"
            "kor\tgae ga dallinda ||| a dog runs\n"
            "deu\tzwei katzen ||| two cats\n"
        )
        store = load_parallel(_write(tmp_path, "c.txt", text), reg)
        assert serialize_parallel(store) == text

    def test_streamed_word_counts_equal_the_stores(self, tmp_path):
        suite = generate_suite(12, 10, seed=3, lexicon_size=20)
        write_registry(tmp_path / "r.tsv", suite.registry)
        write_parallel(tmp_path / "c.txt", suite.corpus)
        reg = load_registry(tmp_path / "r.tsv")
        store = load_parallel(tmp_path / "c.txt", reg)
        assert list(read_pairs(tmp_path / "c.txt", reg)) == store.ordered
        streamed = corpus_word_frequencies(read_pairs(tmp_path / "c.txt", reg))
        # equal counts in the same first-seen order, which fixes the learner's word order
        assert list(streamed.items()) == list(corpus_word_frequencies(store).items())

    def test_reader_yields_each_pair_before_it_reads_the_next_line(self, tmp_path):
        reg = load_registry(_write(tmp_path, "r.tsv", REGISTRY_TEXT))
        pairs = read_pairs(_write(tmp_path, "c.txt", "deu\tein hund ||| a dog\nbroken\n"), reg)
        assert next(pairs).source == ("ein", "hund")
        with pytest.raises(CorpusError, match=r"c\.txt:2: missing tab"):
            next(pairs)


class TestPreprocess:
    def test_whitespace_split(self):
        assert preprocess("Der Hund  läuft") == ["Der", "Hund", "läuft"]

    def test_empty(self):
        assert preprocess("") == []

    def test_nfc_normalization(self):
        decomposed = "é"  # e + combining acute
        assert preprocess(decomposed) == preprocess("é")

    @given(st.text(max_size=80))
    def test_idempotent(self, text):
        once = preprocess(text)
        assert preprocess(" ".join(once)) == once
