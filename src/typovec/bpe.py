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
two adjacent occurrences giving ``(LR, LR)``. The training words sit end to
end in flat numpy arrays of symbol ids with next/previous links, so one
merge is a few whole-array operations over its occurrences rather than a
Python loop over the words that hold them. The most frequent pair comes
from a heap ordered on ``(-count, pair)`` with lazy decrease: a pair whose
count rises is pushed at its new count, a pair whose count falls is not
pushed at all, and a popped entry whose count has since fallen is pushed
again at its current count. Every pair keeps an entry at or above its
count, so an entry popped at its current count is the true first pair in
that order, and the merges are those of a full recount.

A ``MergeTable`` memoizes word -> marked pieces. ``learn_bpe`` seeds the
memo with the training words' final symbols, so ``build_vocab`` does not
segment them again; ``apply_bpe`` reads the memo and fills it with the words
it segments. ``apply_word`` itself is the plain algorithm and keeps no memo.
"""

from __future__ import annotations

import heapq
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .corpus import CorpusStore, PairStore, Registry, SentencePair, read_each, read_records, write_tsv

END_OF_WORD = "⟨/w⟩"

PAD, BOS, EOS, UNK = "<pad>", "<bos>", "<eos>", "<unk>"
RESERVED = (PAD, BOS, EOS, UNK)
PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3


def _merge(symbols: list[str], left: str, right: str) -> list[str]:
    """One left-to-right pass merging the non-overlapping occurrences of
    ``(left, right)``."""
    out: list[str] = []
    i, n = 0, len(symbols)
    while i < n:
        symbol = symbols[i]
        if symbol == left and i + 1 < n and symbols[i + 1] == right:
            out.append(left + right)
            i += 2
        else:
            out.append(symbol)
            i += 1
    return out


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


def corpus_word_frequencies(pairs: Iterable[SentencePair]) -> Counter:
    """Word -> frequency over both sides of every pair, in first-seen order.

    ``pairs`` is a store or any other iterable of pairs, such as the stream
    of ``corpus.read_pairs``, which the count consumes as the file is read.
    """
    return Counter(chain.from_iterable(chain.from_iterable((p.source, p.target) for p in pairs)))


def _word_frequencies(corpus: CorpusStore | Mapping[str, int]) -> Mapping[str, int]:
    """Word -> frequency: counted from a corpus, or given as a mapping."""
    return corpus_word_frequencies(corpus) if isinstance(corpus, CorpusStore) else corpus


def learn_bpe(corpus: CorpusStore | Mapping[str, int], num_merges: int) -> MergeTable:
    """Greedy BPE learning over the word-frequency-weighted joint vocabulary.

    At each step the most frequent adjacent symbol pair is merged; learning
    stops early once no pair occurs at least twice. Overlapping occurrences
    within a word are all counted.

    The training words lie end to end in flat arrays indexed by position:
    int32 ``sym`` (symbol id, -1 once merged away), int32 ``nxt`` and ``prv``
    (the neighbouring position in the word, -1 at its edges) and float64
    ``weight`` (the word's frequency; sums of integers below 2**53 are exact
    in float64). A pair is keyed ``left * stride + right`` by symbol id.
    ``index`` maps a symbol to the positions that held it with a right
    neighbour, a superset that a merge with that symbol on the left filters
    to the positions still holding it. A merge of ``(L, R)`` takes its
    occurrences in position order; for ``L == R`` it keeps every other one
    in a run of overlapping occurrences, greedy from the left as
    ``apply_word`` merges. It relinks the merged positions, and each pair
    that starts at or just before a merged site changes the counts by its
    weight after the merge minus its weight before: one sort of the changed
    keys and one ``np.add.reduceat`` per merge, and Python work per distinct
    changed pair only.

    The heap is lazy on decrease. A pair is pushed when its count rises and
    not when it falls, so each pair in ``counts`` has an entry at or above
    its count. A popped entry above the current count is pushed again at
    that count; one below it is dropped, since the rise pushed a higher
    entry; one for a pair no longer counted is dropped. An entry popped at
    its current count is first on ``(-count, pair)``: another pair first on
    that order would have an entry first too, and would have been popped
    before it. So the pop order, with its lexicographic ties, is that of a
    full recount, and the learner pushes one entry per rise and per requeue
    instead of one per change.

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
    word_freqs = _word_frequencies(corpus)
    if not word_freqs:
        raise ValueError("corpus is empty")

    words = list(word_freqs)
    lengths = np.fromiter(map(len, words), np.int64, len(words))
    starts = np.concatenate(([0], np.cumsum(lengths)))
    codes = np.frombuffer("".join(words).encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    # a character's symbol id is its rank among the corpus's code points
    present = np.zeros(int(codes.max(initial=0)) + 1, dtype=bool)
    present[codes] = True
    sym = (np.cumsum(present, dtype=np.int32) - 1)[codes]
    names = [chr(code) for code in np.flatnonzero(present).tolist()]  # symbol id -> string
    ids = {name: i for i, name in enumerate(names)}
    stride = len(names) + num_merges  # more than any symbol id
    weight = np.repeat(np.array(list(word_freqs.values()), dtype=np.float64), lengths)
    nxt = np.arange(1, len(sym) + 1, dtype=np.int32)
    prv = np.arange(-1, len(sym) - 1, dtype=np.int32)
    nxt[starts[1:][lengths > 0] - 1] = -1
    prv[starts[:-1][lengths > 0]] = -1

    def keys_at(pos):
        return sym[pos].astype(np.int64) * stride + sym[nxt[pos]]

    def pair_of(key):
        left, right = divmod(key, stride)
        return names[left], names[right]

    pos = np.flatnonzero(nxt >= 0).astype(np.int32)
    keys, sums = _sum_by_key(keys_at(pos), weight[pos])
    counts = dict(zip(keys.tolist(), sums.astype(np.int64).tolist()))
    heap = [(-count, pair_of(key), key) for key, count in counts.items()]
    heapq.heapify(heap)
    # a position keeps its right neighbour while it holds its symbol, so
    # every position the filter keeps has one
    bounds = np.cumsum(np.bincount(sym[pos], minlength=len(names)))[:-1]
    held = sym[pos] if len(names) > 1 << 16 else sym[pos].astype(np.uint16)  # 16 bits sort by radix
    index = dict(enumerate(np.split(pos[np.argsort(held, kind="stable")], bounds)))

    table = MergeTable()
    while heap and len(table) < num_merges:
        neg, best, key = heapq.heappop(heap)
        count = counts.get(key)
        if count != -neg:
            if count is not None and count < -neg:
                heapq.heappush(heap, (-count, best, key))  # fell since pushed: requeue
            continue  # else gone, or a later entry holds its higher count
        if -neg < 2:
            break
        table.append(best)
        left, right = divmod(key, stride)
        merged = ids.setdefault(best[0] + best[1], len(names))
        if merged == len(names):
            names.append(best[0] + best[1])
        at = index[left] = index[left][sym[index[left]] == left]
        to = nxt[at]
        found = sym[to] == right
        at, to = at[found], to[found]
        if left == right:
            # in a run such as ``aaaa`` the occurrences overlap; merge every other one
            chained = np.zeros(len(at), dtype=bool)
            chained[1:] = at[1:] == to[:-1]
            if chained.any():
                k = np.arange(len(at))
                keep = (k - np.maximum.accumulate(np.where(chained, 0, k))) % 2 == 0
                at, to = at[keep], to[keep]
        after = nxt[to]
        joined = after >= 0
        # in (L, R, L, R) the pair between the two sites is counted once, at the first
        lead = prv[at] >= 0
        lead[1:] &= after[:-1] != at[1:]
        old = np.concatenate((prv[at][lead], at, to[joined]))
        old_keys = keys_at(old)
        sym[at], sym[to], nxt[at] = merged, -1, after
        prv[after[joined]] = at[joined]
        new = np.concatenate((prv[at][lead], at[joined]))
        grown = index.get(merged)  # a product made before, when products repeat
        index[merged] = at[joined] if grown is None else np.sort(np.concatenate((grown, at[joined])))
        keys, change = _sum_by_key(np.concatenate((keys_at(new), old_keys)),
                                   np.concatenate((weight[new], -weight[old])))
        moved = np.flatnonzero(change)
        for key, delta in zip(keys[moved].tolist(), change[moved].astype(np.int64).tolist()):
            count = counts.get(key, 0) + delta
            if count <= 0:
                counts.pop(key, None)
            else:
                counts[key] = count
                if delta > 0:  # a fall pushes nothing: the pair's entries still bound it
                    heapq.heappush(heap, (-count, pair_of(key), key))
    del counts, index, heap  # freed before the memo is built, so peak memory does not grow
    if len({left + right for left, right in table.pairs}) == len(table):
        live = np.flatnonzero(sym >= 0)
        # piece s is symbol s's name, and piece len(names) + s that name marked,
        # which a word's last symbol takes
        pieces = np.array(names + [name + END_OF_WORD for name in names], dtype=object)
        pieces = pieces[sym[live] + len(names) * (nxt[live] < 0)].tolist()
        bounds = np.searchsorted(live, starts).tolist()
        table._pieces.update((word, tuple(pieces[a:b]))
                             for word, a, b in zip(words, bounds, bounds[1:]) if b > a)
    return table


def _sum_by_key(keys: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and the sum of the weights of each; the
    sums are exact, since every weight is an integer in float64."""
    order = np.argsort(keys)
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    return keys[starts], np.add.reduceat(weights[order], starts)


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
        symbols = _merge(symbols, *pairs[rank])
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


def build_vocab(corpus: CorpusStore | Mapping[str, int], merges: MergeTable,
                registry: Registry) -> SubwordVocab:
    """Reserved tokens, one token per registry language, then all corpus subwords.

    ``corpus`` may be the word frequencies ``learn_bpe`` was given, so a
    caller counts the corpus once.
    """
    subwords = set(apply_bpe(_word_frequencies(corpus), merges))
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


class EncodedCorpus(PairStore):
    """The corpus mapped to subword ids: :class:`EncodedPair` records."""


def encode_corpus(pairs: Iterable[SentencePair], merges: MergeTable, vocab: SubwordVocab) -> EncodedCorpus:
    """The pairs mapped to subword ids, in their order and grouped by language.

    ``pairs`` is a store or any other iterable of pairs, such as the stream
    of ``corpus.read_pairs``: each pair is encoded as it is read, so a caller
    that streams the corpus holds its ids only, never its words.
    """
    encoded = EncodedCorpus()
    for pair in pairs:
        src = vocab.encode(apply_bpe(pair.source, merges))
        tgt = vocab.encode(apply_bpe(pair.target, merges))
        encoded.add(EncodedPair(pair.lang, tuple(src), tuple(tgt)))
    return encoded


def save_merges(path, merges: MergeTable) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for left, right in merges.pairs:
            fh.write(f"{left} {right}\n")


def load_merges(path) -> MergeTable:
    merges = MergeTable()

    def parse(line):
        parts = line.split(" ")
        if len(parts) != 2:
            raise ValueError("expected 'left right'")
        merges.append((parts[0], parts[1]))

    read_each(path, parse)
    return merges


def save_vocab(path, vocab: SubwordVocab) -> None:
    write_tsv(path, ((tok, i) for i, tok in enumerate(vocab.id_to_token)))


def load_vocab(path) -> SubwordVocab:
    def parse(line):
        tok, tab, ident = line.partition("\t")
        if not tab:
            raise ValueError("expected 'token<TAB>id'")
        if tok in seen:
            raise ValueError(f"duplicate token {tok!r}")
        seen.add(tok)
        try:
            return int(ident), tok
        except ValueError:
            raise ValueError(f"id {ident!r} is not an integer") from None

    seen: set[str] = set()
    entries = sorted(read_records(path, parse))
    if [i for i, _ in entries] != list(range(len(entries))):
        raise ValueError(f"{path}: vocabulary ids are not dense and contiguous")
    try:
        return SubwordVocab([tok for _, tok in entries])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
