import re

import pytest
from hypothesis import given, strategies as st

from typovec.bpe import corpus_word_frequencies, load_merges, load_vocab
from typovec.config import ConfigError, read_kv
from typovec.corpus import (
    CorpusError,
    LanguageRecord,
    load_parallel,
    load_registry,
    preprocess,
    read_pairs,
    read_records,
    write_parallel,
    write_registry,
)
from typovec.report import read_report_tsv
from typovec.synth import generate_suite
from typovec.typology import load_features, read_knn_vectors
from typovec.vectors import load_vectors

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
        counts = {lang: len(pairs) for lang, pairs in store.by_lang.items()}
        assert counts == {"deu": 3, "kor": 2}
        assert sum(counts.values()) == len(store)

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
        write_parallel(tmp_path / "out.txt", store)
        assert (tmp_path / "out.txt").read_bytes() == text.encode("utf-8")

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


def _registry(tmp_path):
    return load_registry(_write(tmp_path, "registry.tsv", REGISTRY_TEXT))


# One well-formed file of each text format, and the loader that reads it: every
# line before a bad one parses, so the error can only be the bad byte's.
TEXT_FORMATS = [
    pytest.param(REGISTRY_TEXT, lambda path, tmp_path: load_registry(path), id="registry"),
    pytest.param("lang,S_A,P_B\nfra,1,0\ndeu,,1\n",
                 lambda path, tmp_path: load_features(path, _registry(tmp_path)), id="features"),
    pytest.param("a b\nab c\nx y\n", lambda path, tmp_path: load_merges(path), id="merges"),
    pytest.param("<pad>\t0\n<bos>\t1\n<eos>\t2\n<unk>\t3\nab\t4\n",
                 lambda path, tmp_path: load_vocab(path), id="vocab"),
    pytest.param("lang\tmethod\tdim\tn_sentences\nfra\tMTVec\t2\t5\t0.5 0.25\n"
                 "deu\tMTVec\t2\t5\t0.125 1.0\n", lambda path, tmp_path: load_vectors(path, "MTVec"), id="vectors"),
    pytest.param("lang\tS_A\tP_B\nfra\t0.5\t1.0\ndeu\t0.0\t0.25\n",
                 lambda path, tmp_path: read_knn_vectors(path), id="knn_vectors"),
    pytest.param("method\tcategory\taux\taccuracy\nNone\tsyntax\t-Aux\t0.5\nNone\tsyntax\t+Aux\t0.75\n",
                 lambda path, tmp_path: read_report_tsv(path), id="report"),
    pytest.param("# comment\nworkdir=w\nseed=1\nlr=0.1\n", lambda path, tmp_path: read_kv(path),
                 id="key-value"),
]

HEADED = ("features", "vectors", "knn_vectors", "report")


class TestReadRecords:
    @pytest.mark.parametrize("text, load", TEXT_FORMATS)
    def test_bad_byte_on_line_k_names_path_and_k(self, tmp_path, text, load):
        lines = text.encode("utf-8").splitlines(keepends=True)
        path = tmp_path / "input"
        for k in range(1, len(lines) + 1):
            bad = lines[k - 1][:1] + b"\xff" + lines[k - 1][1:]
            path.write_bytes(b"".join([*lines[:k - 1], bad, *lines[k:]]))
            with pytest.raises(CorpusError, match=re.escape(f"{path}:{k}: not UTF-8 text")):
                load(path, tmp_path)

    def test_parse_error_keeps_its_class_and_empty_lines_keep_their_numbers(self, tmp_path):
        def parse(line):
            if line == "bad":
                raise ConfigError("rejected")
            return line

        path = tmp_path / "input"
        path.write_bytes(b"a\n\n\xc3\xa9\r\nbad\n")
        records = read_records(path, parse)
        assert [next(records), next(records)] == ["a", "\u00e9"]
        with pytest.raises(ConfigError, match=re.escape(f"{path}:4: rejected")):
            next(records)

    def test_a_bad_byte_past_the_first_read_buffer_names_its_line(self, tmp_path):
        path = tmp_path / "input"
        lines = [f"line {k}\n".encode() for k in range(1, 3001)]  # about 28 KB
        lines[2499] = b"bad \xff\n"
        path.write_bytes(b"".join(lines))
        records = read_records(path, lambda line: line)
        assert [next(records) for _ in range(2499)][-1] == "line 2499"
        with pytest.raises(CorpusError, match=re.escape(f"{path}:2500: not UTF-8 text")):
            next(records)

    def test_a_malformed_line_before_a_bad_byte_is_named_first(self, tmp_path):
        def parse(line):
            if line == "bad":
                raise ConfigError("rejected")
            return line

        path = tmp_path / "input"
        path.write_bytes(b"a\nbad\nb\xff\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}:2: rejected")):
            list(read_records(path, parse))

    @pytest.mark.parametrize("text, load", [p for p in TEXT_FORMATS if p.id in HEADED])
    def test_the_header_is_line_1(self, tmp_path, text, load):
        path = tmp_path / "input"
        path.write_text("\n" + text, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: ")):
            load(path, tmp_path)


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
