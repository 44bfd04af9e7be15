"""Synthetic mini-languages with controlled word order.

``SYNTH_FEATURES`` is the one table of synthetic features: the grammar's
flags, their balanced assignment over languages, the sentence generator's
reads and the gold matrix's columns all come from it, and a feature's
URIEL category (syntax, phonology or inventory) comes from its name's
``S_``/``P_``/``I_`` prefix. Its rows are three word-order flags, each the
gold value of the syntax feature of the same name.

Each language has a disjoint lexicon (tokens end in the decimal lexicon
seed, bodies are letters only, so cross-language collisions are impossible).
Sentences are subject-verb-object clauses with optional numeral modifiers
and an optional adpositional phrase, ordered by the flags. The target side
is a canonical fixed-order realization with a single lexicon shared by all
languages, standing in for English in a many-to-one setup. Geography and
lineage are assigned at random so nearest-neighbor features carry no signal
about the flags.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import category_of
from .corpus import CorpusStore, LanguageRecord, Registry, SentencePair
from .typology import FeatureMatrix, FeatureSpec

SYNTH_FEATURES = ("S_OBJECT_BEFORE_VERB", "S_ADPOSITION_AFTER_NOUN", "S_NUMERAL_BEFORE_NOUN")

_CONSONANTS = "ptkbdgmnlrsv"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class SynthGrammar:
    flags: dict[str, bool]  # keyed by the names of SYNTH_FEATURES
    lexicon_seed: int
    lexicon_size: int = 24


def _ordered(flag: bool, first: list[str], second: list[str]) -> list[str]:
    """``first`` before ``second`` if ``flag`` is set, else after it."""
    return first + second if flag else second + first


class SynthLanguage:
    """A lexicon plus a sentence generator obeying the grammar's flags."""

    def __init__(self, grammar: SynthGrammar):
        if grammar.lexicon_size < 10:
            raise ValueError(f"lexicon size must be >= 10, got {grammar.lexicon_size}")
        self.grammar = grammar
        rng = np.random.default_rng([grammar.lexicon_seed, 23])
        n_verbs = max(2, grammar.lexicon_size // 5)
        n_numerals = max(2, grammar.lexicon_size // 8)
        n_adps = max(2, grammar.lexicon_size // 8)
        n_nouns = grammar.lexicon_size - n_verbs - n_numerals - n_adps
        words = self._make_words(rng, grammar.lexicon_size, str(grammar.lexicon_seed))
        self.nouns = tuple(words[:n_nouns])
        self.verbs = tuple(words[n_nouns : n_nouns + n_verbs])
        self.numerals = tuple(words[n_nouns + n_verbs : n_nouns + n_verbs + n_numerals])
        self.adpositions = tuple(words[n_nouns + n_verbs + n_numerals :])

    @staticmethod
    def _make_words(rng: np.random.Generator, count: int, tag: str) -> list[str]:
        words: list[str] = []
        seen: set[str] = set()
        while len(words) < count:
            n_syll = 2 + int(rng.integers(2))
            body = "".join(
                _CONSONANTS[rng.integers(len(_CONSONANTS))] + _VOWELS[rng.integers(len(_VOWELS))]
                for _ in range(n_syll)
            )
            word = body + tag
            if word not in seen:
                seen.add(word)
                words.append(word)
        return words

    def sentence(self, rng: np.random.Generator) -> tuple[list[str], list[str]]:
        """One (source, target) pair; the target realization is canonical
        SVO with numerals before nouns and prepositions."""
        flags = self.grammar.flags
        subj = int(rng.integers(len(self.nouns)))
        verb = int(rng.integers(len(self.verbs)))
        obj = int(rng.integers(len(self.nouns)))
        subj_num = int(rng.integers(len(self.numerals))) if rng.random() < 0.4 else None
        obj_num = int(rng.integers(len(self.numerals))) if rng.random() < 0.4 else None
        pp = None
        if rng.random() < 0.5:
            pp = (int(rng.integers(len(self.adpositions))), int(rng.integers(len(self.nouns))))

        def src_np(noun_i: int, num_i: int | None) -> list[str]:
            noun = [self.nouns[noun_i]]
            if num_i is None:
                return noun
            return _ordered(flags["S_NUMERAL_BEFORE_NOUN"], [self.numerals[num_i]], noun)

        def tgt_np(noun_i: int, num_i: int | None) -> list[str]:
            out = [] if num_i is None else [f"en_num{num_i}"]
            return out + [f"en_n{noun_i}"]

        source = src_np(subj, subj_num) + _ordered(
            flags["S_OBJECT_BEFORE_VERB"], src_np(obj, obj_num), [self.verbs[verb]])
        target = tgt_np(subj, subj_num) + [f"en_v{verb}"] + tgt_np(obj, obj_num)
        if pp is not None:
            adp_i, ppn_i = pp
            source += _ordered(flags["S_ADPOSITION_AFTER_NOUN"],
                               [self.nouns[ppn_i]], [self.adpositions[adp_i]])
            target += [f"en_p{adp_i}", f"en_n{ppn_i}"]
        return source, target


@dataclass
class SynthSuite:
    registry: Registry
    corpus: CorpusStore
    features: FeatureMatrix
    grammars: dict[str, SynthGrammar]


def generate_suite(n_langs: int, sentences_per_lang: int, seed: int,
                   lexicon_size: int = 24) -> SynthSuite:
    """A balanced suite: language ``i`` sets the j-th feature of
    ``SYNTH_FEATURES`` where bit j of ``i`` is set, so flag combinations
    cycle over languages; geography and lineage are random, and the gold
    matrix mirrors the flags."""
    if n_langs < 4:
        raise ValueError(f"need at least 4 languages, got {n_langs}")
    if sentences_per_lang < 1:
        raise ValueError("sentences_per_lang must be positive")
    width = max(2, len(str(n_langs - 1)))
    geo_rng = np.random.default_rng([seed, 29])
    registry = Registry()
    corpus = CorpusStore()
    grammars: dict[str, SynthGrammar] = {}
    rows = []
    for i in range(n_langs):
        code = f"s{i:0{width}d}"
        flags = {name: bool(i >> j & 1) for j, name in enumerate(SYNTH_FEATURES)}
        grammar = SynthGrammar(flags, lexicon_seed=seed * 1000 + i, lexicon_size=lexicon_size)
        grammars[code] = grammar
        language = SynthLanguage(grammar)
        registry.add(LanguageRecord(
            code=code,
            lineage=(f"fam{int(geo_rng.integers(6))}", f"br{int(geo_rng.integers(4))}"),
            lat=float(geo_rng.uniform(-60, 60)),
            lon=float(geo_rng.uniform(-179, 179)),
        ))
        sent_rng = np.random.default_rng([seed, 31, i])
        for _ in range(sentences_per_lang):
            source, target = language.sentence(sent_rng)
            corpus.add(SentencePair(code, tuple(source), tuple(target)))
        rows.append([float(flags[name]) for name in SYNTH_FEATURES])
    features = FeatureMatrix(
        list(grammars),
        [FeatureSpec(name, category_of(name)) for name in SYNTH_FEATURES],
        np.array(rows),
    )
    return SynthSuite(registry, corpus, features, grammars)
