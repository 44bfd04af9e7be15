"""Extract per-language vectors from trained models and compare them.

Uses a small synthetic suite so related languages exist by construction:
languages that share word-order flags should end up with more similar
vectors. Shows LMVec, MTVec, MTCell, MTBoth, the two ablation variants and
each language's nearest other language by cosine distance of MTCell.
"""

import numpy as np

from typovec.bpe import build_vocab, encode_corpus, learn_bpe
from typovec.models import TrainConfig
from typovec.synth import generate_suite
from typovec.training import train_lm, train_nmt
from typovec.vectors import (
    combine_mtboth,
    extract_lmvec,
    extract_mtcell,
    extract_mtvec,
    extract_variant,
)

suite = generate_suite(n_langs=8, sentences_per_lang=120, seed=5, lexicon_size=14)
merges = learn_bpe(suite.corpus, 60)
vocab = build_vocab(suite.corpus, merges, suite.registry)
encoded = encode_corpus(suite.corpus, merges, vocab)

config = TrainConfig(hidden_size=32, embed_size=32, lr=0.01, dropout=0.0,
                     epochs=4, batch_size=32, seed=5)
nmt, _ = train_nmt(encoded, vocab, config)
lm, _ = train_lm(encoded, vocab, config)

langs = sorted(encoded.by_lang)
mtcell = {}
for lang in langs:
    lmv = extract_lmvec(lm, vocab, lang)
    mtv = extract_mtvec(nmt, vocab, lang)
    mtc = extract_mtcell(nmt, encoded, vocab, lang)
    both = combine_mtboth(mtv, mtc)
    mtcell[lang] = mtc
    print(f"{lang}: LMVec dim {lmv.dim}, MTVec dim {mtv.dim}, "
          f"MTCell dim {mtc.dim} over {mtc.n_sentences} sentences, MTBoth dim {both.dim}")

final = extract_variant(nmt, encoded, vocab, langs[0], "final-cell")
hidden = extract_variant(nmt, encoded, vocab, langs[0], "mean-hidden")
print(f"\nablation variants for {langs[0]}: final-cell var {final.values.var():.4f}, "
      f"mean-hidden var {hidden.values.var():.4f} (hidden is gated, flatter)")

# cosine distance 1 - cos(u, v) between every pair of MTCell vectors
unit = np.stack([mtcell[lang].values / np.linalg.norm(mtcell[lang].values) for lang in langs])
distance = 1.0 - unit @ unit.T
np.fill_diagonal(distance, np.inf)
print("\nnearest other language by cosine distance of MTCell:")
for lang, row in zip(langs, distance):
    j = int(np.argmin(row))
    print(f"  {lang} -> {langs[j]} at {row[j]:.4f}")

flags = {code: suite.grammars[code].flags["S_OBJECT_BEFORE_VERB"] for code in langs}
print("\nobject-before-verb flags:", flags)
