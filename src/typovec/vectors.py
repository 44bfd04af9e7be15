"""Per-language representation vectors extracted from trained models.

Methods:

- ``LMVec``: embedding row of the language token in the language model.
- ``MTVec``: embedding row of the language token in the translation model.
- ``MTCell``: flat mean of encoder cell states c over every time step of
  every sentence of the language, its language-token and EOS steps
  included.
- ``MTBoth``: concatenation [MTVec; MTCell].
- ``MTCellFinal`` / ``MTHiddenMean``: ablation variants (mean of final cell
  states, and mean of hidden states h over all steps).

One encoder pass per language, :func:`extract_encoder_vectors`, yields all
three cell/hidden methods, keyed by method name; :func:`extract_mtcell` is
its MTCell and :func:`extract_variant` its ablation variants. The pass is
:func:`typovec.models.language_states`, which runs the encoder over the
language's canonical batch (sentences sorted by (length, ids)), so every
sum is taken in an order fixed by the sentence multiset: results are
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


def extract_encoder_vectors(nmt: Seq2SeqModel, encoded: EncodedCorpus, vocab: SubwordVocab,
                            lang: str) -> dict[str, LangVector]:
    """MTCell, MTCellFinal and MTHiddenMean of one language from one pass."""
    lens, _, states = models.language_states(nmt, vocab, lang, encoded.by_lang.get(lang))
    sums, hidden_sums = (np.zeros((len(lens), nmt.hidden_size)) for _ in range(2))
    # the rows are sorted by length, so the rows with lens > t are a suffix;
    # adding only it leaves the other sums as they were (x + 0.0 == x, and a
    # sum started at +0.0 never reads -0.0)
    for t, (h, c) in enumerate(states):
        live = np.searchsorted(lens, t, side="right")
        hidden_sums[live:] += h[live:]
        sums[live:] += c[live:]
    steps = int(lens.sum())
    means = {"MTCell": sums.sum(axis=0) / steps, "MTCellFinal": c.sum(axis=0) / len(lens),
             "MTHiddenMean": hidden_sums.sum(axis=0) / steps}
    return {method: LangVector(lang, method, v, len(lens)) for method, v in means.items()}


def extract_mtcell(nmt: Seq2SeqModel, encoded: EncodedCorpus, vocab: SubwordVocab,
                   lang: str) -> LangVector:
    """Mean encoder cell state over every time step of every sentence of ``lang``."""
    return extract_encoder_vectors(nmt, encoded, vocab, lang)["MTCell"]


def extract_variant(nmt: Seq2SeqModel, encoded: EncodedCorpus, vocab: SubwordVocab,
                    lang: str, kind: str) -> LangVector:
    """Ablation extractors: ``final-cell`` or ``mean-hidden``."""
    methods = {"final-cell": "MTCellFinal", "mean-hidden": "MTHiddenMean"}
    if kind not in methods:
        raise ValueError(f"unknown variant kind {kind!r}")
    return extract_encoder_vectors(nmt, encoded, vocab, lang)[methods[kind]]


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


def load_vectors(path, method: str) -> list[LangVector]:
    """The vectors of the ``method`` store in file order; a row of another
    method, a repeated language, or a dim other than the first row's, raises
    ValueError naming ``path`` and the line."""
    def check_header(line):
        if line != STORE_HEADER:
            raise ValueError(f"bad vector store header {line!r}")

    def parse(_, line):
        fields = line.split("\t")
        if len(fields) != 5:
            raise ValueError("expected 5 tab-separated fields")
        lang, row_method, dim_s, n_s, values_s = fields
        if row_method != method:
            raise ValueError(f"a {row_method!r} row in the {method!r} store")
        dim, n_sentences = int(dim_s), int(n_s)
        values = np.array(values_s.split(" "), dtype=np.float64)
        if len(values) != dim:
            raise ValueError(f"dim {dim_s} but {len(values)} values")
        if lang in dims:
            raise ValueError(f"duplicate language {lang!r}")
        dims[lang] = dim
        first = next(iter(dims.values()))
        if dim != first:
            raise ValueError(f"dim {dim}, but the first row's is {first}")
        return LangVector(lang, method, values, n_sentences)

    dims: dict[str, int] = {}  # language -> dim, in file order
    _, *vectors = read_records(path, parse, header=check_header)
    return vectors
