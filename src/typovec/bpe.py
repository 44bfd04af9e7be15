"""Joint byte-pair encoding over all languages plus the shared vocabulary.

One BPE model is learned over the union of every language's source text and
the English target text, so a single merge table and a single vocabulary are
shared by all models.

Conventions:

- A word is split into characters. The end-of-word marker ``⟨/w⟩`` belongs
  to the word's final symbol, but inside this module it is a position, not
  part of a symbol: symbols carry no marker, and a pair is two adjacent
  symbols ``(s[i], s[i + 1])``. A merge ``(a, b)`` therefore applies both
  inside a word and at its end, where the merged symbol is the last one.
- ``apply_word`` attaches the marker to the last piece when it returns, so
  pieces, ``vocab.tsv`` and ``merges.txt`` look as they always have: merge
  tables store unmarked pairs and the vocabulary stores marked pieces.
- Equal-frequency pairs are broken lexicographically by ``(left, right)``,
  which makes learning a pure function of (corpus, num_merges).

Learning keeps incremental pair statistics (Sennrich et al. 2016): after a
merge of ``(L, R)`` only the pairs next to each merged occurrence change,
``(p, L)`` becoming ``(p, LR)`` and ``(R, n)`` becoming ``(LR, n)``, with
two adjacent occurrences giving ``(LR, LR)``. The most frequent pair comes
from a max-heap keyed on ``(-count, pair)`` whose stale entries are skipped
when popped.

A ``MergeTable`` memoizes word -> marked pieces. ``learn_bpe`` seeds the
memo with the training words' final symbols, so ``build_vocab`` does not
segment them again; ``apply_bpe`` reads the memo and fills it with the words
it segments. ``apply_word`` itself is the plain algorithm and keeps no memo.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import repeat

from .corpus import CorpusStore, Registry

END_OF_WORD = "⟨/w⟩"

PAD, BOS, EOS, UNK = "<pad>", "<bos>", "<eos>", "<unk>"
RESERVED = (PAD, BOS, EOS, UNK)
PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3


def _merge(symbols: list[str], left: str, right: str) -> tuple[list[str], list[int]]:
    """One left-to-right pass merging the non-overlapping occurrences of
    ``(left, right)``; returns the new symbols and the merged positions."""
    out: list[str] = []
    at: list[int] = []
    i, n = 0, len(symbols)
    while i < n:
        symbol = symbols[i]
        if symbol == left and i + 1 < n and symbols[i + 1] == right:
            at.append(len(out))
            out.append(left + right)
            i += 2
        else:
            out.append(symbol)
            i += 1
    return out, at


@dataclass
class MergeTable:
    """Ordered BPE merges; position in the list is the rank.

    ``_pieces`` memoizes word -> marked pieces under this table and holds
    every word the table has segmented. It is not a field, so it takes no
    part in construction or equality, and ``append`` clears it: a table that
    grows makes earlier segmentations stale.
    """

    pairs: list[tuple[str, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(set(self.pairs)) != len(self.pairs):
            raise ValueError("merge table contains duplicate pairs")
        self._ranks = {pair: rank for rank, pair in enumerate(self.pairs)}
        self._pieces: dict[str, tuple[str, ...]] = {}

    def append(self, pair: tuple[str, str]) -> None:
        if pair in self._ranks:
            raise ValueError(f"duplicate merge pair {pair!r}")
        self._ranks[pair] = len(self.pairs)
        self.pairs.append(pair)
        self._pieces.clear()

    def rank(self, pair: tuple[str, str]) -> int | None:
        return self._ranks.get(pair)

    def __len__(self) -> int:
        return len(self.pairs)


def corpus_word_frequencies(corpus: CorpusStore) -> Counter:
    freqs: Counter = Counter()
    for pair in corpus.ordered:
        freqs.update(pair.source)
        freqs.update(pair.target)
    return freqs


def learn_bpe(corpus: CorpusStore, num_merges: int) -> MergeTable:
    """Greedy BPE learning over the word-frequency-weighted joint vocabulary.

    At each step the most frequent adjacent symbol pair is merged; learning
    stops early once no pair occurs at least twice. Overlapping occurrences
    within a word are all counted.

    The returned table's memo holds every training word's final symbols when
    every merge product ``left + right`` is a distinct string. The learner's
    state is the table applied in rank order, one pass per merge, while
    ``apply_word`` merges the lowest-rank pair present until none is left.
    The two agree unless a merge re-forms a pair of earlier rank. A pass
    leaves no occurrence of its own pair, so a re-formed pair would hold a
    symbol made by a later merge; that symbol existed when the earlier pair
    was counted and is longer than one character, so an earlier merge made
    it too, and two products would be equal. Otherwise the memo stays empty.
    """
    if num_merges <= 0:
        raise ValueError(f"num_merges must be positive, got {num_merges}")
    if isinstance(corpus, CorpusStore):
        word_freqs = corpus_word_frequencies(corpus)
    else:
        word_freqs = Counter(dict(corpus))
    if not word_freqs:
        raise ValueError("corpus is empty")

    words = [list(word) for word in word_freqs]
    freqs = list(word_freqs.values())
    counts: dict[tuple[str, str], int] = defaultdict(int)
    # pair -> indices of the words that hold it; a superset once merges run
    where: dict[tuple[str, str], set[int]] = defaultdict(set)
    for idx, symbols in enumerate(words):
        freq = freqs[idx]
        for pair in zip(symbols, symbols[1:]):
            counts[pair] += freq
            where[pair].add(idx)
    heap = [(-count, pair) for pair, count in counts.items()]
    heapq.heapify(heap)

    table = MergeTable()
    while heap and len(table) < num_merges:
        neg, best = heapq.heappop(heap)
        if counts.get(best) != -neg:
            continue  # stale: the pair's count changed after this entry
        if -neg < 2:
            break
        table.append(best)
        left, right = best
        merged = left + right
        delta: dict[tuple[str, str], int] = defaultdict(int)
        for idx in where.pop(best):
            symbols, at = _merge(words[idx], left, right)
            if not at:
                continue
            words[idx] = symbols
            freq = freqs[idx]
            last = len(symbols) - 1
            delta[best] -= freq * len(at)
            for k, j in enumerate(at):
                if j:
                    # the left neighbour is ``merged`` itself after (L, R, L, R)
                    prev = symbols[j - 1]
                    delta[(right, left) if k and at[k - 1] == j - 1 else (prev, left)] -= freq
                    delta[prev, merged] += freq
                    where[prev, merged].add(idx)
                if j < last and not (k + 1 < len(at) and at[k + 1] == j + 1):
                    after = symbols[j + 1]
                    delta[right, after] -= freq
                    delta[merged, after] += freq
                    where[merged, after].add(idx)
        for pair, change in delta.items():
            if change:
                count = counts.get(pair, 0) + change
                if count > 0:
                    counts[pair] = count
                    heapq.heappush(heap, (-count, pair))
                else:
                    counts.pop(pair, None)
    del counts, where, heap  # freed before the memo is built, so peak memory does not grow
    if len({left + right for left, right in table.pairs}) == len(table):
        table._pieces.update((word, _marked(symbols))
                             for word, symbols in zip(word_freqs, words) if symbols)
    return table


def _marked(symbols: list[str]) -> tuple[str, ...]:
    """The pieces of a word: its symbols with the marker on the last one."""
    symbols[-1] += END_OF_WORD
    return tuple(symbols)


def apply_word(word: str, merges: MergeTable) -> tuple[str, ...]:
    """Split one word into subword pieces under ``merges``.

    Repeatedly merges the lowest-rank pair present in the word, which is
    equivalent to applying the table in rank order.
    """
    ranks, pairs = merges._ranks, merges.pairs
    none = len(pairs)
    symbols = list(word)
    while len(symbols) > 1:
        rank = min(map(ranks.get, zip(symbols, symbols[1:]), repeat(none)))
        if rank == none:
            break
        symbols, _ = _merge(symbols, *pairs[rank])
    return _marked(symbols)


def apply_bpe(tokens, merges: MergeTable) -> list[str]:
    """Apply BPE to a token sequence through the table's word -> pieces memo."""
    memo = merges._pieces
    out: list[str] = []
    for word in tokens:
        pieces = memo.get(word)
        if pieces is None:
            pieces = memo[word] = apply_word(word, merges)
        out.extend(pieces)
    return out


def decode_pieces(pieces) -> list[str]:
    """Reassemble words from subword pieces using the end-of-word marker."""
    words: list[str] = []
    current: list[str] = []
    for piece in pieces:
        if piece.endswith(END_OF_WORD):
            current.append(piece.removesuffix(END_OF_WORD))
            words.append("".join(current))
            current = []
        else:
            current.append(piece)
    if current:
        words.append("".join(current))
    return words


class SubwordVocab:
    """Token/id bijection with reserved ids 0..3 and one token per language."""

    def __init__(self, tokens: list[str]):
        self.id_to_token = list(tokens)
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("vocabulary tokens are not unique")
        if self.id_to_token[:4] != list(RESERVED):
            raise ValueError("ids 0..3 must be PAD, BOS, EOS, UNK")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def lang_token(self, code: str) -> str:
        return f"<{code}>"

    def lang_id(self, code: str) -> int:
        token = self.lang_token(code)
        ident = self.token_to_id.get(token)
        if ident is None:
            raise ValueError(f"unknown language token {token!r}")
        return ident

    def encode(self, tokens) -> list[int]:
        return [self.token_to_id.get(tok, UNK_ID) for tok in tokens]

    def decode(self, ids) -> list[str]:
        return [self.id_to_token[i] for i in ids]


def build_vocab(corpus: CorpusStore, merges: MergeTable, registry: Registry) -> SubwordVocab:
    """Reserved tokens, one token per registry language, then all corpus subwords."""
    subwords = set(apply_bpe(corpus_word_frequencies(corpus), merges))
    tokens = list(RESERVED)
    tokens.extend(f"<{code}>" for code in sorted(registry.codes))
    seen = set(tokens)
    for sub in sorted(subwords):
        if sub not in seen:
            tokens.append(sub)
            seen.add(sub)
    return SubwordVocab(tokens)


@dataclass
class EncodedPair:
    lang: str
    source_ids: tuple[int, ...]
    target_ids: tuple[int, ...]


@dataclass
class EncodedCorpus:
    """Corpus mapped to subword ids, grouped by language and in file order."""

    by_lang: dict[str, list[EncodedPair]] = field(default_factory=dict)
    ordered: list[EncodedPair] = field(default_factory=list)

    def add(self, pair: EncodedPair) -> None:
        self.by_lang.setdefault(pair.lang, []).append(pair)
        self.ordered.append(pair)

    def __len__(self) -> int:
        return len(self.ordered)


def encode_corpus(store: CorpusStore, merges: MergeTable, vocab: SubwordVocab) -> EncodedCorpus:
    encoded = EncodedCorpus()
    for pair in store.ordered:
        src = vocab.encode(apply_bpe(pair.source, merges))
        tgt = vocab.encode(apply_bpe(pair.target, merges))
        encoded.add(EncodedPair(pair.lang, tuple(src), tuple(tgt)))
    return encoded


def save_merges(path, merges: MergeTable) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for left, right in merges.pairs:
            fh.write(f"{left} {right}\n")


def load_merges(path) -> MergeTable:
    pairs: list[tuple[str, str]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split(" ")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'left right'")
            pairs.append((parts[0], parts[1]))
    return MergeTable(pairs)


def save_vocab(path, vocab: SubwordVocab) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, tok in enumerate(vocab.id_to_token):
            fh.write(f"{tok}\t{i}\n")


def load_vocab(path) -> SubwordVocab:
    entries: list[tuple[int, str]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            tok, tab, ident = line.partition("\t")
            if not tab:
                raise ValueError(f"{path}:{lineno}: expected 'token<TAB>id'")
            try:
                entries.append((int(ident), tok))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: id {ident!r} is not an integer") from None
    entries.sort()
    if [i for i, _ in entries] != list(range(len(entries))):
        raise ValueError(f"{path}: vocabulary ids are not dense and contiguous")
    return SubwordVocab([tok for _, tok in entries])
