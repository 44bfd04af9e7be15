import contextlib
import hashlib
import io
import re
from collections import defaultdict

import numpy as np
import pytest

from typovec.cli import main
from typovec.synth import SYNTH_FEATURES, SynthGrammar, SynthLanguage, generate_suite


def grammar_of(obj_before_verb, adposition_after_noun, numeral_before_noun, **kwargs):
    flags = (obj_before_verb, adposition_after_noun, numeral_before_noun)
    return SynthGrammar(dict(zip(SYNTH_FEATURES, flags)), **kwargs)


def classify(language: SynthLanguage, token: str) -> str:
    for name in ("nouns", "verbs", "numerals", "adpositions"):
        if token in getattr(language, name):
            return name
    raise AssertionError(f"token {token!r} not in lexicon")


def check_sentence(language: SynthLanguage, tokens: list[str]) -> None:
    flags = language.grammar.flags
    classes = [classify(language, t) for t in tokens]
    verb_idx = classes.index("verbs")
    noun_positions = [i for i, c in enumerate(classes) if c == "nouns"]
    # clause structure: subject NP, verb, object NP, optional PP
    if "adpositions" in classes:
        adp_idx = classes.index("adpositions")
        pp_noun = adp_idx - 1 if flags["S_ADPOSITION_AFTER_NOUN"] else adp_idx + 1
        assert classes[pp_noun] == "nouns", "adposition must be adjacent to its noun"
        noun_positions = [i for i in noun_positions if i != pp_noun]
    obj_idx = noun_positions[1]  # second core noun is the object
    if flags["S_OBJECT_BEFORE_VERB"]:
        assert obj_idx < verb_idx
    else:
        assert obj_idx > verb_idx
    for i, c in enumerate(classes):
        if c == "numerals":
            neighbor = i + 1 if flags["S_NUMERAL_BEFORE_NOUN"] else i - 1
            assert 0 <= neighbor < len(classes) and classes[neighbor] == "nouns"


class TestLanguage:
    def test_object_position_respects_flag(self):
        for flag in (True, False):
            grammar = grammar_of(flag, False, True, lexicon_seed=5, lexicon_size=12)
            language = SynthLanguage(grammar)
            rng = np.random.default_rng(0)
            for _ in range(200):
                source, _ = language.sentence(rng)
                check_sentence(language, source)

    def test_all_flag_combinations_parse(self):
        for combo in range(8):
            grammar = grammar_of(bool(combo & 1), bool(combo & 2), bool(combo & 4),
                                 lexicon_seed=100 + combo, lexicon_size=14)
            language = SynthLanguage(grammar)
            rng = np.random.default_rng(combo)
            for _ in range(100):
                source, target = language.sentence(rng)
                check_sentence(language, source)
                assert target  # canonical side always non-empty

    def test_different_seeds_have_disjoint_lexicons(self):
        a = SynthLanguage(grammar_of(True, True, True, lexicon_seed=1, lexicon_size=20))
        b = SynthLanguage(grammar_of(True, True, True, lexicon_seed=2, lexicon_size=20))
        words_a, words_b = (set(language.nouns + language.verbs + language.numerals + language.adpositions)
                            for language in (a, b))
        assert not (words_a & words_b)

    def test_same_seed_same_stream(self):
        grammar = grammar_of(False, True, False, lexicon_seed=9, lexicon_size=16)
        s1 = [SynthLanguage(grammar).sentence(np.random.default_rng(3)) for _ in range(1)]
        s2 = [SynthLanguage(grammar).sentence(np.random.default_rng(3)) for _ in range(1)]
        assert s1 == s2

    def test_small_lexicon_rejected(self):
        with pytest.raises(ValueError, match=">= 10"):
            SynthLanguage(grammar_of(True, True, True, lexicon_seed=1, lexicon_size=5))

    def test_target_is_canonical_order(self):
        # same meaning frame must realize identically regardless of flags:
        # compare a fully flagged and an unflagged language drawing the same
        # random choices
        g1 = grammar_of(True, True, True, lexicon_seed=8, lexicon_size=12)
        g2 = grammar_of(False, False, False, lexicon_seed=8, lexicon_size=12)
        l1, l2 = SynthLanguage(g1), SynthLanguage(g2)
        _, t1 = l1.sentence(np.random.default_rng(42))
        _, t2 = l2.sentence(np.random.default_rng(42))
        assert t1 == t2


class TestSuite:
    def test_balanced_flags_at_40(self):
        suite = generate_suite(40, 2, seed=3)
        for name in SYNTH_FEATURES:
            column = suite.features.column(name)
            assert int(column.sum()) == 20

    def test_gold_matrix_matches_grammars(self):
        suite = generate_suite(8, 2, seed=4)
        for code, grammar in suite.grammars.items():
            row = suite.features.languages.index(code)
            for name, flag in grammar.flags.items():
                assert suite.features.column(name)[row] == float(flag)

    def test_all_features_are_syntax(self):
        suite = generate_suite(8, 1, seed=4)
        assert all(f.category == "syntax" for f in suite.features.features)

    def test_regeneration_is_identical(self):
        a = generate_suite(8, 5, seed=11)
        b = generate_suite(8, 5, seed=11)
        assert [p.source for p in a.corpus.ordered] == [p.source for p in b.corpus.ordered]
        assert [(r.code, r.lat, r.lon, r.lineage) for r in a.registry] == \
               [(r.code, r.lat, r.lon, r.lineage) for r in b.registry]

    def test_corpus_counts(self):
        suite = generate_suite(6, 7, seed=2)
        counts = {lang: len(pairs) for lang, pairs in suite.corpus.by_lang.items()}
        assert all(count == 7 for count in counts.values())
        assert len(counts) == 6

    def test_every_sentence_parses_under_its_grammar(self):
        suite = generate_suite(8, 25, seed=6)
        languages = {code: SynthLanguage(g) for code, g in suite.grammars.items()}
        for pair in suite.corpus.ordered:
            check_sentence(languages[pair.lang], list(pair.source))

    def test_too_few_languages_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            generate_suite(2, 5, seed=1)


@pytest.fixture(scope="module")
def synth_stage(tmp_path_factory):
    """Runs the ``synth`` stage once per (seed, languages, sentences, lexicon)
    and returns the work dir it wrote."""
    works = {}

    def run(seed, n_langs, sentences, lexicon):
        key = (seed, n_langs, sentences, lexicon)
        if key not in works:
            root = tmp_path_factory.mktemp("synth")
            cfg = root / "cfg.txt"
            cfg.write_text(f"workdir={root / 'work'}\nseed={seed}\nsynth_langs={n_langs}\n"
                           f"synth_sentences={sentences}\nsynth_lexicon={lexicon}\n",
                           encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["--config", str(cfg), "synth"]) == 0
            works[key] = root / "work"
        return works[key]

    return run


@pytest.mark.parametrize("suite, digests", [
    # the suite of the small pinned pipeline in test_predict
    ((5, 14, 16, 12), {
        "registry.tsv": "3eb911ee0f7ef6f439060991703b15fc8f960f446eb1749a44e543a20bf77147",
        "corpus.txt": "4435c55c80266013df366a65675613d81193bcac8c49e615395a67e4a93562e0",
        "features.csv": "d33e45e35a60a2e80fba41e71ab08cb47323c017f6ef8199cce362c5a0b2438a",
    }),
    # the pinned acceptance suite (A5)
    ((20250810, 40, 500, 24), {
        "registry.tsv": "88c7ac89af78441789e9b647c5cc300dcf7614ded8c695dfb46cebdb95209f28",
        "corpus.txt": "48cfb3cbf861fe006e4724fdcea67c5deb0c8ef8793239711b3edf1defaf592b",
        "features.csv": "85c6aee7d03bac2be6867db8b0bf9e0ba6444a2e914049f136174c408cd879f8",
    }),
])
def test_synth_stage_files_match_pinned_digests(synth_stage, suite, digests):
    work = synth_stage(*suite)
    assert {name: hashlib.sha256((work / name).read_bytes()).hexdigest()
            for name in digests} == digests


# For each flag: the target shape of the sentences it is read from, and the two
# source positions it orders, the first being the closed class's when it is set.
ORACLE_SHAPES = {
    "S_OBJECT_BEFORE_VERB": ("n v n", (2, 1)),  # subject object verb | subject verb object
    "S_ADPOSITION_AFTER_NOUN": ("n v n p n", (4, 3)),  # ... noun adposition | adposition noun
    "S_NUMERAL_BEFORE_NOUN": ("num n v n", (0, 1)),  # numeral noun ... | noun numeral ...
}


@pytest.mark.parametrize("suite", [(20250810, 40, 500, 24), (3, 40, 120, 24)])
def test_word_order_oracle_recovers_every_flag_from_the_corpus(synth_stage, suite):
    # reads corpus.txt alone, with no lexicon: of the two source positions a flag
    # orders, the closed class (verb, adposition, numeral) shows fewer distinct types
    work = synth_stage(*suite)
    types = defaultdict(set)  # (lang, target shape, source position) -> tokens seen there
    for line in (work / "corpus.txt").read_text(encoding="utf-8").splitlines():
        lang, pair = line.split("\t")
        source, target = (side.split() for side in pair.split(" ||| "))
        shape = " ".join(re.fullmatch(r"en_([a-z]+)\d+", tok).group(1) for tok in target)
        for position, tok in enumerate(source):
            types[lang, shape, position].add(tok)
    header, *rows = (work / "features.csv").read_text(encoding="utf-8").splitlines()
    names = header.split(",")[1:]
    assert set(names) == set(ORACLE_SHAPES)
    for row in rows:
        lang, *gold = row.split(",")
        for name, value in zip(names, gold):
            shape, positions = ORACLE_SHAPES[name]
            n_set, n_unset = (len(types[lang, shape, position]) for position in positions)
            assert n_set != n_unset and (n_set < n_unset) == (value == "1"), (lang, name)
