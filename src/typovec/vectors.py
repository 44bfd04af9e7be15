"""Per-language representation vectors extracted from trained models.

Methods:

- ``LMVec``: embedding row of the language token in the language model.
- ``MTVec``: embedding row of the language token in the translation model.
- ``MTCell``: flat mean of encoder cell states c over every time step of
  every selected sentence (language-token and EOS steps included by
  default).
- ``MTBoth``: concatenation [MTVec; MTCell].
- ``MTCellFinal`` / ``MTHiddenMean``: ablation variants (mean of final cell
  states, and mean of hidden states h over all steps).

One encoder pass per language, :func:`extract_encoder_vectors`, yields all
three cell/hidden methods, keyed by method name; :func:`extract_mtcell` is
its MTCell and :func:`extract_variant` its ablation variants. The pass runs
on the language's canonical batch (sentences sorted by (length, ids)), so
every sum is taken in an order fixed by the sentence multiset: results are
exactly invariant under sentence permutation and each language's vector
depends on its own sentences only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from . import models
from .config import METHODS  # re-exported
from .corpus import read_records, write_records

if TYPE_CHECKING:
    from .bpe import EncodedCorpus, SubwordVocab
    from .models import RnnLmModel, Seq2SeqModel

@dataclass
class LangVector:
    """One language's representation vector, tagged with how it was made."""

    lang: str
    method: str
    values: np.ndarray
    n_sentences: int = 0

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError(f"{self.lang}/{self.method}: values must be 1-D")
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"{self.lang}/{self.method}: non-finite values")
        if self.method not in METHODS:
            raise ValueError(f"unknown extraction method {self.method!r}")

    @property
    def dim(self) -> int:
        return len(self.values)


def extract_lmvec(lm: RnnLmModel, vocab: SubwordVocab, lang: str) -> LangVector:
    """The embedding row learned for the language token in the LM."""
    row = lm.embedding.value[vocab.lang_id(lang)]
    return LangVector(lang, "LMVec", row.copy(), 0)


def extract_mtvec(nmt: Seq2SeqModel, vocab: SubwordVocab, lang: str) -> LangVector:
    """The embedding row learned for the language token in the NMT model."""
    row = nmt.embedding.value[vocab.lang_id(lang)]
    return LangVector(lang, "MTVec", row.copy(), 0)


def _select_sentences(encoded: EncodedCorpus, lang: str,
                      max_sentences: int | None, seed: int):
    sentences = encoded.by_lang.get(lang, [])
    if not sentences:
        raise ValueError(f"no sentences for language {lang!r}")
    if max_sentences is not None and 0 < max_sentences < len(sentences):
        rng = np.random.default_rng([seed, 3])
        keep = sorted(rng.choice(len(sentences), size=max_sentences, replace=False))
        sentences = [sentences[i] for i in keep]
    return sentences


def extract_encoder_vectors(nmt: Seq2SeqModel, encoded: EncodedCorpus, vocab: SubwordVocab,
                            lang: str, max_sentences: int | None = None, *,
                            include_special: bool = True, sentence_equal: bool = False,
                            seed: int = 0) -> dict[str, LangVector]:
    """MTCell, MTCellFinal and MTHiddenMean of one language from one pass.

    See :func:`extract_mtcell` for the MTCell options; the two ablation
    variants always average over all time steps (MTHiddenMean) or over
    sentences (MTCellFinal).
    """
    sentences = _select_sentences(encoded, lang, max_sentences, seed)
    ids, lens, _ = models.encoder_batch(vocab, lang, sentences)
    skip = 0 if include_special else 1  # MTCell steps left out at each end: language token, EOS
    sums, hidden_sums = (np.zeros((len(lens), nmt.hidden_size)) for _ in range(2))
    # encoder_batch sorts rows by length, so the rows with lens > t are a
    # suffix; adding only it leaves the other sums as they were (x + 0.0 == x,
    # and a sum started at +0.0 never reads -0.0)
    for t, (h, c) in enumerate(models.lstm_states(nmt.encoder, nmt.embedding.value, ids, lens)):
        live = np.searchsorted(lens, t, side="right")
        hidden_sums[live:] += h[live:]
        if t >= skip:
            counted = np.searchsorted(lens, t + skip, side="right") if skip else live
            sums[counted:] += c[counted:]
    counts = lens - 2 * skip
    keep = counts > 0
    if not keep.any():
        raise ValueError(f"no time steps selected for language {lang!r}")
    if sentence_equal:
        mtcell = (sums[keep] / counts[keep, None]).sum(axis=0) / int(keep.sum())
    else:
        mtcell = sums.sum(axis=0) / int(counts.sum())
    means = {"MTCell": mtcell, "MTCellFinal": c.sum(axis=0) / len(lens),
             "MTHiddenMean": hidden_sums.sum(axis=0) / int(lens.sum())}
    return {method: LangVector(lang, method, v, len(lens)) for method, v in means.items()}


def extract_mtcell(nmt: Seq2SeqModel, encoded: EncodedCorpus, vocab: SubwordVocab,
                   lang: str, max_sentences: int | None = None, *,
                   include_special: bool = True, sentence_equal: bool = False,
                   seed: int = 0) -> LangVector:
    """Mean encoder cell state over all time steps of all selected sentences.

    ``include_special=False`` drops the language-token and EOS steps from
    the mean. ``sentence_equal=True`` weights sentences equally instead of
    tokens; the default is the flat token-equal mean. Subsampling under
    ``max_sentences`` is seeded and uniform.
    """
    return extract_encoder_vectors(nmt, encoded, vocab, lang, max_sentences, seed=seed,
                                   include_special=include_special,
                                   sentence_equal=sentence_equal)["MTCell"]


def extract_variant(nmt: Seq2SeqModel, encoded: EncodedCorpus, vocab: SubwordVocab,
                    lang: str, kind: str, max_sentences: int | None = None, *,
                    seed: int = 0) -> LangVector:
    """Ablation extractors: ``final-cell`` or ``mean-hidden``."""
    methods = {"final-cell": "MTCellFinal", "mean-hidden": "MTHiddenMean"}
    if kind not in methods:
        raise ValueError(f"unknown variant kind {kind!r}")
    return extract_encoder_vectors(nmt, encoded, vocab, lang, max_sentences, seed=seed)[methods[kind]]


def combine_mtboth(v1: LangVector, v2: LangVector) -> LangVector:
    """[MTVec; MTCell] concatenation for one language."""
    if v1.lang != v2.lang:
        raise ValueError(f"language mismatch: {v1.lang!r} vs {v2.lang!r}")
    if v1.method != "MTVec" or v2.method != "MTCell":
        raise ValueError(f"expected (MTVec, MTCell), got ({v1.method}, {v2.method})")
    return LangVector(v1.lang, "MTBoth", np.concatenate([v1.values, v2.values]), v2.n_sentences)


# --- vector store -----------------------------------------------------------

STORE_HEADER = "lang\tmethod\tdim\tn_sentences"


def save_vectors(path, vectors: list[LangVector]) -> None:
    """Write a vector store; float repr keeps full round-trip precision."""
    write_records(path, chain([STORE_HEADER.split("\t")], (
        (v.lang, v.method, v.dim, v.n_sentences, " ".join(map(repr, v.values.tolist()))) for v in vectors)))


def load_vectors(path) -> list[LangVector]:
    def check_header(line):
        if line != STORE_HEADER:
            raise ValueError(f"bad vector store header {line!r}")

    def parse(_, line):
        fields = line.split("\t")
        if len(fields) != 5:
            raise ValueError("expected 5 tab-separated fields")
        lang, method, dim_s, n_s, values_s = fields
        dim, n_sentences = int(dim_s), int(n_s)
        values = np.array(values_s.split(" "), dtype=np.float64)
        if len(values) != dim:
            raise ValueError(f"dim {dim_s} but {len(values)} values")
        return LangVector(lang, method, values, n_sentences)

    _, *vectors = read_records(path, parse, header=check_header)
    return vectors
