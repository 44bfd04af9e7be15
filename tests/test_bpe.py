import gc
import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from typovec import bpe
from typovec.bpe import (
    END_OF_WORD,
    MergeTable,
    RESERVED,
    UNK_ID,
    apply_bpe,
    apply_word,
    build_vocab,
    corpus_word_frequencies,
    decode_pieces,
    encode_corpus,
    learn_bpe,
    load_merges,
    load_vocab,
    save_merges,
    save_vocab,
)
from typovec.corpus import (
    CorpusStore,
    LanguageRecord,
    Registry,
    SentencePair,
    load_parallel,
    load_registry,
    read_pairs,
    write_parallel,
    write_registry,
)
from typovec.synth import generate_suite

from oracles import brute_force_learn_bpe, naive_apply_bpe


def store_from_words(words: dict[str, int]) -> CorpusStore:
    store = CorpusStore()
    for word, freq in words.items():
        for _ in range(freq):
            store.add(SentencePair("xx", (word,), ("x",)))
    return store


# small alphabets give runs (``aaaa``) and adjacent occurrences (``abab``)
small_alphabet_corpora = st.integers(1, 3).flatmap(lambda size: st.dictionaries(
    st.text(alphabet="abc"[:size], min_size=1, max_size=12), st.integers(1, 6),
    min_size=1, max_size=12))

# non-BMP letters, an emoji, a combining mark and the marker's own characters;
# words may be empty or one character long
exotic_corpora = st.dictionaries(
    st.text(alphabet=f"ab𝔸😀\u0301{END_OF_WORD}", max_size=10), st.integers(1, 6),
    min_size=1, max_size=12)

PINNED_SUITES = [((40, 500, 20250810, 24), 300), ((60, 40, 7, 120), 400)]


class TestLearn:
    def test_most_frequent_pair_wins(self):
        table = learn_bpe({"abab": 1, "abc": 1}, 1)
        assert table.pairs == [("a", "b")]

    def test_single_character_words_learn_nothing(self):
        table = learn_bpe({"a": 5, "b": 9, "c": 2}, 10)
        assert table.pairs == []

    def test_zero_merges_is_an_error(self):
        with pytest.raises(ValueError, match="positive"):
            learn_bpe({"ab": 2}, 0)

    def test_empty_corpus_is_an_error(self):
        with pytest.raises(ValueError, match="empty"):
            learn_bpe({}, 5)

    def test_accepts_corpus_store(self, small_corpus):
        table = learn_bpe(small_corpus, 10)
        assert len(table) > 0

    def test_tie_break_is_lexicographic(self):
        # (a,b) and (c,d) both occur twice; (a,b) sorts first
        table = learn_bpe({"ab": 2, "cd": 2}, 1)
        assert table.pairs == [("a", "b")]

    def test_fallen_pair_is_requeued_into_its_tie(self):
        # (b,c) is pushed at 8; merging (a,b) at 15 drops it to 3, where it ties
        # with (a,d), which sorts before it, and (d,e), which sorts after it
        words = {"ab": 10, "abc": 5, "bc": 3, "ad": 3, "de": 3}
        expect = [("a", "b"), ("ab", "c"), ("a", "d"), ("b", "c"), ("d", "e")]
        assert brute_force_learn_bpe(words, 10) == expect
        assert learn_bpe(words, 10).pairs == expect

    def test_matches_recount_oracle_on_random_corpora(self):
        rng = np.random.default_rng(77)
        alphabet = "abcdef"
        for trial in range(10):
            n_words = int(rng.integers(2, 60))
            words = {}
            for _ in range(n_words):
                length = int(rng.integers(1, 8))
                w = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), length))
                words[w] = int(rng.integers(1, 9))
            merges = int(rng.integers(1, 20))
            got = learn_bpe(dict(words), merges)
            expect = brute_force_learn_bpe(words, merges)
            assert got.pairs == expect, f"trial {trial}: {words}"

    @settings(max_examples=300, deadline=None)
    @given(small_alphabet_corpora, st.integers(1, 25))
    def test_incremental_counts_match_recount_oracle(self, words, merges):
        assert learn_bpe(words, merges).pairs == brute_force_learn_bpe(words, merges)

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.text(alphabet="abc", min_size=1, max_size=12),
                           st.integers(1, 6), min_size=1, max_size=12))
    def test_training_words_split_as_in_order_application(self, words):
        table = learn_bpe(words, 25)
        for word in words:
            assert list(apply_word(word, table)) == naive_apply_bpe(word, table.pairs)

    @pytest.mark.parametrize("suite_args, merges, merges_sha, vocab_sha", [
        # the pinned acceptance suite
        ((40, 500, 20250810, 24), 300,
         "d5c36bcd3d2a7a293115b737fc8359d9fa3f563678c02c864b7731713d89f8b5",
         "8d8739944c14ef93a57d57387b766d9affc28d92b49e3965fe86e715e1e5b8f4"),
        ((60, 40, 7, 120), 400,
         "dfa2932d8005e7a417893cec6200f85ce4c9c7d691d2b0732938117ab8915c07",
         "2172acb43049de7b2d6ebd62d3e56fb3cf6201790bcb1d1cb58487abc53bd812"),
        # the scale of the bpe benchmark workload (36.4k word types)
        ((200, 100, 11, 200), 600,
         "46f84f27a1c15531d1944f85be38b79a3ca2b77ff8e785b76d171bb315c8d1b8",
         "86b76a5d78f2ad6f11d85f3200501d788fac24df0a38aa2d07bc2e1a0499fb00"),
    ])
    def test_files_match_pinned_digests(self, tmp_path, suite_args, merges, merges_sha,
                                        vocab_sha):
        # computed with the earlier learner, which recounted every pair of each changed word
        n_langs, sentences, seed, lexicon = suite_args
        suite = generate_suite(n_langs, sentences, seed=seed, lexicon_size=lexicon)
        table = learn_bpe(suite.corpus, merges)
        save_merges(tmp_path / "merges.txt", table)
        save_vocab(tmp_path / "vocab.tsv", build_vocab(suite.corpus, table, suite.registry))
        digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                        for name in ("merges.txt", "vocab.tsv"))
        assert digests == (merges_sha, vocab_sha)


def apply_word_pieces(words, pairs) -> set[str]:
    """The pieces of ``words`` under a table of ``pairs`` that no learner made."""
    loaded = MergeTable(list(pairs))
    return {piece for word in words for piece in apply_word(word, loaded)}


def one_language() -> Registry:
    return Registry([LanguageRecord("xx", ("F",), 0.0, 0.0)])


def learned_vocab(table: MergeTable) -> set[str] | None:
    """The pieces the learner read off its final symbols, if it kept them."""
    return None if table._learned is None else table._learned[1]


class TestMemo:
    @settings(max_examples=300, deadline=None)
    @given(small_alphabet_corpora, st.integers(1, 25))
    def test_learned_vocab_is_every_training_piece_as_apply_word_splits_it(self, words, merges):
        table = learn_bpe(words, merges)
        products = [left + right for left, right in table.pairs]
        assert len(set(products)) == len(products)
        assert learned_vocab(table) == apply_word_pieces(words, table.pairs)

    @settings(max_examples=300, deadline=None)
    @given(exotic_corpora, st.integers(1, 25))
    def test_any_characters_match_recount_oracle_and_learned_vocab(self, words, merges):
        table = learn_bpe(words, merges)
        # the oracle marks word ends inside the string, so it is given no word
        # holding the whole marker; an empty word has no pairs to count
        if not any(END_OF_WORD in word for word in words):
            nonempty = {word: freq for word, freq in words.items() if word}
            assert table.pairs == brute_force_learn_bpe(nonempty, merges)
        products = [left + right for left, right in table.pairs]
        distinct = len(set(products)) == len(products)
        assert learned_vocab(table) == (apply_word_pieces(words, table.pairs) if distinct else None)

    @pytest.mark.parametrize("suite_args, merges", PINNED_SUITES)
    def test_learned_vocab_on_pinned_suites(self, suite_args, merges):
        n_langs, sentences, seed, lexicon = suite_args
        suite = generate_suite(n_langs, sentences, seed=seed, lexicon_size=lexicon)
        table = learn_bpe(suite.corpus, merges)
        words = corpus_word_frequencies(suite.corpus)
        assert learned_vocab(table) == apply_word_pieces(words, table.pairs)

    def test_learned_rebuilt_and_loaded_tables_are_equal(self, tmp_path):
        words = {"abab": 3, "abc": 2, "bcbc": 2, "cab": 2}
        table = learn_bpe(words, 5)
        save_merges(tmp_path / "m.txt", table)
        loaded = load_merges(tmp_path / "m.txt")
        assert table == MergeTable(list(table.pairs)) == loaded
        assert learned_vocab(table) == apply_word_pieces(words, loaded.pairs)
        assert learned_vocab(loaded) is None
        # the loaded table segments through apply_word and builds the same vocabulary
        registry = one_language()
        store = store_from_words(words)
        assert (build_vocab(store, table, registry).id_to_token
                == build_vocab(store, loaded, registry).id_to_token)

    def test_without_a_learned_vocab_the_words_are_segmented(self):
        # what the learner leaves when two merges make one product; no corpus
        # has been found that makes one, as ("ab", "c") and ("a", "bc") would
        words = {"ab": 3, "bc": 2, "abc": 2}
        table = learn_bpe(words, 5)
        assert len({left + right for left, right in table.pairs}) == len(table)
        table._learned = None
        registry = one_language()
        assert (build_vocab(words, table, registry).id_to_token
                == build_vocab(words, MergeTable(list(table.pairs)), registry).id_to_token)

    def test_apply_bpe_fills_the_memo(self):
        table = MergeTable([("a", "b")])
        assert apply_bpe(["abc", "abc"], table) == ["ab", f"c{END_OF_WORD}"] * 2
        assert table._pieces == {"abc": ("ab", f"c{END_OF_WORD}")}

    def test_append_clears_the_memo(self):
        table = learn_bpe({"abc": 3, "ab": 2}, 1)
        assert apply_bpe(["abc"], table) == ["ab", f"c{END_OF_WORD}"]
        table.append(("ab", "c"))
        assert table._pieces == {}
        assert apply_bpe(["abc"], table) == [f"abc{END_OF_WORD}"]

    def test_append_clears_the_learned_vocab(self):
        words = {"abc": 3, "ab": 2}
        table = learn_bpe(words, 1)
        assert learned_vocab(table) == {"ab", f"c{END_OF_WORD}", f"ab{END_OF_WORD}"}
        table.append(("ab", "c"))
        assert learned_vocab(table) is None
        registry = one_language()
        assert f"abc{END_OF_WORD}" in build_vocab(words, table, registry)

    @pytest.mark.parametrize("other", [
        {"abc": 1},  # fewer words
        {"abc": 3, "ab": 2, "cab": 1},  # more words
        {"abc": 3, "abd": 2},  # as many words, not the same ones
    ])
    def test_learned_table_given_another_corpus_segments_it(self, other):
        table = learn_bpe({"abc": 3, "ab": 2}, 2)
        registry = one_language()
        assert (build_vocab(other, table, registry).id_to_token
                == build_vocab(other, MergeTable(list(table.pairs)), registry).id_to_token)

    def test_learning_and_vocab_never_segment_a_word_again(self, monkeypatch):
        suite_args, merges = PINNED_SUITES[0]
        n_langs, sentences, seed, lexicon = suite_args
        suite = generate_suite(n_langs, sentences, seed=seed, lexicon_size=lexicon)
        words = corpus_word_frequencies(suite.corpus)
        with monkeypatch.context() as patch:
            def refuse(word, merges):
                raise AssertionError(f"apply_word({word!r}) called")
            patch.setattr(bpe, "apply_word", refuse)
            table = learn_bpe(words, merges)
            vocab = build_vocab(words, table, suite.registry)
        assert vocab.id_to_token == build_vocab(words, MergeTable(list(table.pairs)),
                                                suite.registry).id_to_token

    def test_learner_memory(self):
        # the bpe benchmark workload's suite; with the per-word memo the learner
        # peaked 62 bytes per training position above its input, and the table
        # it returned kept 105 bytes per word type (39 and 10 without it)
        suite = generate_suite(200, 100, seed=11, lexicon_size=200)
        words = corpus_word_frequencies(suite.corpus)
        del suite
        gc.collect()
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            table = learn_bpe(words, 200)
            peak = tracemalloc.get_traced_memory()[1] - before
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(table) == 200
        assert peak / sum(map(len, words)) < 50
        assert kept / len(words) < 32


class TestApply:
    def test_merge_crosses_end_of_word_marker(self):
        table = MergeTable([("a", "b")])
        assert apply_bpe(["abab"], table) == ["ab", f"ab{END_OF_WORD}"]

    def test_empty_sequence(self):
        assert apply_bpe([], MergeTable([("a", "b")])) == []

    def test_empty_word_has_no_pieces(self):
        words = {"ab": 3, "": 2, "abab": 2}
        table = learn_bpe(words, 1)
        assert apply_word("", table) == ()
        registry = one_language()
        assert (build_vocab(words, table, registry).id_to_token
                == build_vocab(words, MergeTable(list(table.pairs)), registry).id_to_token
                == list(RESERVED) + ["<xx>", "ab", f"ab{END_OF_WORD}"])

    def test_unseen_characters_stay_as_characters(self):
        table = MergeTable([("a", "b")])
        assert apply_bpe(["xyz"], table) == ["x", "y", f"z{END_OF_WORD}"]

    def test_matches_in_order_application(self):
        rng = np.random.default_rng(99)
        alphabet = "abcd"
        for _ in range(30):
            words = {}
            for _ in range(int(rng.integers(2, 30))):
                length = int(rng.integers(1, 9))
                w = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), length))
                words[w] = int(rng.integers(1, 5))
            table = learn_bpe(dict(words), 12)
            probe = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), 7))
            assert list(apply_word(probe, table)) == naive_apply_bpe(probe, table.pairs)

    @given(st.text(alphabet="abcde", min_size=1, max_size=12))
    def test_pieces_reconstruct_the_word(self, word):
        table = learn_bpe({"ababab": 3, "bcbc": 2, "dede": 2}, 6)
        pieces = apply_word(word, table)
        assert decode_pieces(pieces) == [word]


class TestVocab:
    @pytest.fixture
    def setup(self):
        registry = Registry([
            LanguageRecord("aaa", ("F",), 0.0, 0.0),
            LanguageRecord("bbb", ("G",), 1.0, 1.0),
        ])
        store = CorpusStore()
        store.add(SentencePair("aaa", ("ab", "ab"), ("cd",)))
        store.add(SentencePair("bbb", ("ef",), ("cd",)))
        table = learn_bpe(store, 3)
        return registry, store, table

    def test_size_is_reserved_plus_languages_plus_subwords(self, setup):
        registry, store, _ = setup
        # no merges apply (all pairs unique): subwords are pure characters
        empty = MergeTable([])
        vocab = build_vocab(store, empty, registry)
        # chars: a b⟨/w⟩ c d⟨/w⟩ e f⟨/w⟩ -> 6 distinct pieces
        assert len(vocab) == 4 + 2 + 6

    def test_encode_decode_round_trip(self, setup):
        registry, store, table = setup
        vocab = build_vocab(store, table, registry)
        pieces = apply_bpe(["ab", "ef"], table)
        assert vocab.decode(vocab.encode(pieces)) == pieces

    def test_unknown_token_maps_to_unk(self, setup):
        registry, store, table = setup
        vocab = build_vocab(store, table, registry)
        assert vocab.encode(["never-seen"]) == [UNK_ID]

    def test_language_tokens_present(self, setup):
        registry, store, table = setup
        vocab = build_vocab(store, table, registry)
        assert vocab.lang_id("aaa") != vocab.lang_id("bbb")
        with pytest.raises(ValueError, match="unknown language"):
            vocab.lang_id("zzz")

    def test_ids_dense_and_bijective(self, setup):
        registry, store, table = setup
        vocab = build_vocab(store, table, registry)
        assert sorted(vocab.token_to_id.values()) == list(range(len(vocab)))

    def test_file_round_trips(self, setup, tmp_path):
        registry, store, table = setup
        vocab = build_vocab(store, table, registry)
        save_merges(tmp_path / "m.txt", table)
        save_vocab(tmp_path / "v.tsv", vocab)
        assert load_merges(tmp_path / "m.txt").pairs == table.pairs
        assert load_vocab(tmp_path / "v.tsv").id_to_token == vocab.id_to_token

    def test_non_integer_id_names_file_and_line(self, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text("<pad>\t0\n<bos>\t1\n<eos>\tx\n", encoding="utf-8")
        message = re.escape(f"{path}:3: id 'x' is not an integer")
        with pytest.raises(ValueError, match=message):
            load_vocab(path)

    def test_duplicate_token_names_file_line_and_token(self, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text("<pad>\t0\n<bos>\t1\n<eos>\t2\n<unk>\t3\nab\t4\nab\t5\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:6: duplicate token 'ab'")):
            load_vocab(path)

    def test_encode_corpus_groups_by_language(self, setup):
        registry, store, table = setup
        vocab = build_vocab(store, table, registry)
        encoded = encode_corpus(store, table, vocab)
        assert set(encoded.by_lang) == {"aaa", "bbb"}
        assert len(encoded.ordered) == 2
        assert all(UNK_ID not in p.source_ids for p in encoded.ordered)


def test_encoding_the_streamed_corpus_equals_encoding_its_store(tmp_path):
    suite = generate_suite(6, 20, seed=4)
    write_registry(tmp_path / "registry.tsv", suite.registry)
    write_parallel(tmp_path / "corpus.txt", suite.corpus)
    registry = load_registry(tmp_path / "registry.tsv")
    table = learn_bpe(suite.corpus, 40)
    vocab = build_vocab(suite.corpus, table, registry)
    streamed = encode_corpus(read_pairs(tmp_path / "corpus.txt", registry), table, vocab)
    stored = encode_corpus(load_parallel(tmp_path / "corpus.txt", registry), table, vocab)
    assert len(streamed) == 120
    assert streamed.ordered == stored.ordered
    assert streamed.by_lang == stored.by_lang


def test_learning_is_deterministic(small_corpus):
    a = learn_bpe(small_corpus, 15)
    b = learn_bpe(small_corpus, 15)
    assert a.pairs == b.pairs
