import numpy as np
import pytest

from typovec.synth import SYNTH_FEATURES, SynthGrammar, SynthLanguage, generate_suite


def classify(language: SynthLanguage, token: str) -> str:
    for name in ("nouns", "verbs", "numerals", "adpositions"):
        if token in getattr(language, name):
            return name
    raise AssertionError(f"token {token!r} not in lexicon")


def check_sentence(language: SynthLanguage, tokens: list[str]) -> None:
    g = language.grammar
    classes = [classify(language, t) for t in tokens]
    verb_idx = classes.index("verbs")
    noun_positions = [i for i, c in enumerate(classes) if c == "nouns"]
    # clause structure: subject NP, verb, object NP, optional PP
    if "adpositions" in classes:
        adp_idx = classes.index("adpositions")
        pp_noun = adp_idx - 1 if g.adposition_after_noun else adp_idx + 1
        assert classes[pp_noun] == "nouns", "adposition must be adjacent to its noun"
        noun_positions = [i for i in noun_positions if i != pp_noun]
    obj_idx = noun_positions[1]  # second core noun is the object
    if g.obj_before_verb:
        assert obj_idx < verb_idx
    else:
        assert obj_idx > verb_idx
    for i, c in enumerate(classes):
        if c == "numerals":
            neighbor = i + 1 if g.numeral_before_noun else i - 1
            assert 0 <= neighbor < len(classes) and classes[neighbor] == "nouns"


class TestLanguage:
    def test_object_position_respects_flag(self):
        for flag in (True, False):
            grammar = SynthGrammar(flag, False, True, lexicon_seed=5, lexicon_size=12)
            language = SynthLanguage(grammar)
            rng = np.random.default_rng(0)
            for _ in range(200):
                source, _ = language.sentence(rng)
                check_sentence(language, source)

    def test_all_flag_combinations_parse(self):
        for combo in range(8):
            grammar = SynthGrammar(bool(combo & 1), bool(combo & 2), bool(combo & 4),
                                   lexicon_seed=100 + combo, lexicon_size=14)
            language = SynthLanguage(grammar)
            rng = np.random.default_rng(combo)
            for _ in range(100):
                source, target = language.sentence(rng)
                check_sentence(language, source)
                assert target  # canonical side always non-empty

    def test_different_seeds_have_disjoint_lexicons(self):
        a = SynthLanguage(SynthGrammar(True, True, True, lexicon_seed=1, lexicon_size=20))
        b = SynthLanguage(SynthGrammar(True, True, True, lexicon_seed=2, lexicon_size=20))
        assert not (a.lexicon & b.lexicon)

    def test_same_seed_same_stream(self):
        grammar = SynthGrammar(False, True, False, lexicon_seed=9, lexicon_size=16)
        s1 = [SynthLanguage(grammar).sentence(np.random.default_rng(3)) for _ in range(1)]
        s2 = [SynthLanguage(grammar).sentence(np.random.default_rng(3)) for _ in range(1)]
        assert s1 == s2

    def test_small_lexicon_rejected(self):
        with pytest.raises(ValueError, match=">= 10"):
            SynthLanguage(SynthGrammar(True, True, True, lexicon_seed=1, lexicon_size=5))

    def test_target_is_canonical_order(self):
        # same meaning frame must realize identically regardless of flags:
        # compare a fully flagged and an unflagged language drawing the same
        # random choices
        g1 = SynthGrammar(True, True, True, lexicon_seed=8, lexicon_size=12)
        g2 = SynthGrammar(False, False, False, lexicon_seed=8, lexicon_size=12)
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
            for name, flag in grammar.flags.items():
                assert suite.features.value(code, name) == float(flag)

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
        assert all(count == 7 for count in suite.corpus.counts.values())
        assert len(suite.corpus.languages()) == 6

    def test_every_sentence_parses_under_its_grammar(self):
        suite = generate_suite(8, 25, seed=6)
        languages = {code: SynthLanguage(g) for code, g in suite.grammars.items()}
        for pair in suite.corpus.ordered:
            check_sentence(languages[pair.lang], list(pair.source))

    def test_too_few_languages_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            generate_suite(2, 5, seed=1)
