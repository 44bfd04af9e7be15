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

A table that ``learn_bpe`` returns keeps its learned vocabulary: the set
of marked pieces of its training words, read off the learner's final
symbols, which ``build_vocab`` uses for those words instead of segmenting
them again. The learner's state is the table applied in rank order, one
pass per merge, and it agrees with ``apply_word`` when every merge product
is a distinct string (see ``learn_bpe``); otherwise the table keeps none. A
``MergeTable`` also memoizes word -> marked pieces: ``apply_bpe`` reads the
memo and fills it with the words it segments. ``apply_word`` itself is the
plain algorithm and keeps no memo.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import sub

import numpy as np

from .corpus import CorpusStore, PairStore, Registry, SentencePair, read_each, read_records, write_records

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
    every word the table has segmented. ``_learned`` is set by ``learn_bpe``
    only: its training words and the set of their marked pieces. Neither is
    a field, so they take no part in construction or equality, and
    ``append`` clears both: a table that grows makes earlier segmentations
    stale.
    """

    pairs: list[tuple[str, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(set(self.pairs)) != len(self.pairs):
            raise ValueError("merge table contains duplicate pairs")
        self._ranks = {pair: rank for rank, pair in enumerate(self.pairs)}
        self._pieces: dict[str, tuple[str, ...]] = {}
        self._learned: tuple[list[str], set[str]] | None = None

    def append(self, pair: tuple[str, str]) -> None:
        if pair in self._ranks:
            raise ValueError(f"duplicate merge pair {pair!r}")
        self._ranks[pair] = len(self.pairs)
        self.pairs.append(pair)
        self._pieces.clear()
        self._learned = None

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


def _bounds(ordered: np.ndarray) -> np.ndarray:
    """The indices at which the runs of equal values in ``ordered`` start, then its length."""
    edge = np.ones(len(ordered) + 1, dtype=bool)
    edge[1:-1] = ordered[1:] != ordered[:-1]
    return edge.nonzero()[0]


def learn_bpe(corpus: CorpusStore | Mapping[str, int], num_merges: int) -> MergeTable:
    """Greedy BPE learning over the word-frequency-weighted joint vocabulary.

    At each step the most frequent adjacent symbol pair is merged; learning
    stops early once no pair occurs at least twice. Overlapping occurrences
    within a word are all counted.

    The training words lie end to end in flat arrays indexed by position:
    int32 ``sym`` (symbol id, -1 once merged away), int32 ``nxt`` and ``prv``
    (the neighbouring position in the word, -1 at its edges) and int64
    ``weight`` (the word's frequency). A pair is keyed ``left * stride +
    right`` by symbol id, and the pair at position ``p`` is ``(sym[p],
    sym[nxt[p]])``.

    The site index is keyed by pair, so a merge reads about as many
    positions as it has sites, however often its left symbol occurs. A pair
    forms only where one of its symbols was just made: at the set-up for two
    characters, else by the merge that made the left or the right symbol.
    So ``made`` holds, per symbol, the tables its making filed: sorted
    ``slots`` (``x`` for a pair ``(x, s)``, ``stride + x`` for ``(s, x)``),
    their ``bounds`` and ``positions``, each slot's positions in position
    order. The set-up makes one table per character from one stable sort of
    the character pairs, in the narrowest integer type that holds their ids,
    so that the ids and their order never take 16 bytes a position (a radix
    sort when 16 bits hold them); the initial counts are the weighted sums
    of its runs. A merge of ``(L, R)`` reads the slot ``(L, R)`` of the
    tables of ``L`` and of ``R``; when more than one holds positions they
    are sorted together. An entry is never removed, so it goes stale once
    its position is merged away or into a longer symbol, or its right
    neighbour is. The merge drops those and keeps the rest in position
    order. The pair a position holds changes only when one of its two
    symbols is replaced by a longer one, so it never holds a pair again
    once it has lost it, and no position is filed twice under one pair.

    A merge takes its occurrences in position order; for ``L == R`` it
    keeps every other one in a run of overlapping occurrences, greedy from
    the left as ``apply_word`` merges. It relinks the merged positions and
    changes the counts of the pairs next to each merged site. Each such
    pair has the site on one side and a neighbour symbol ``x`` on the
    other: ``(x, L)`` becomes ``(x, LR)`` before a site, and ``(R, x)``
    goes and ``(LR, x')`` comes after it, where ``x'`` is ``x``, or ``LR``
    when the next site follows at once. In ``(L, R, L, R)`` the pair
    between the two sites is counted once, after the first. The neighbour
    symbols, offset by ``stride`` per side, are the slots of the merge:
    ``x`` before a site, ``stride + x'`` and ``2 * stride + x`` after it.
    One stable sort groups them with the positions of their pairs, and one
    ``np.add.reduceat`` sums their weights. The pairs formed sort first, and
    their groups are the merge's table. The falls and rises are read off the
    sorted slots as key and count lists, so Python work runs per distinct
    neighbour and side only. The falls are applied first, so no count passes
    below its final value, the merged pair's count goes, and each rise pushes
    its pair at the new count.

    The heap is lazy on decrease. A pair is pushed when its count rises and
    not when it falls, so each pair counted above 0 has an entry at or
    above its count. A popped entry above the current count is pushed again
    at that count; one below it is dropped, since the rise pushed a higher
    entry; one for a pair whose count is 0 or gone is dropped. An entry popped at
    its current count is first on ``(-count, pair)``: another pair first on
    that order would have an entry first too, and would have been popped
    before it. So the pop order, with its lexicographic ties, is that of a
    full recount, and the learner pushes one entry per rise and per requeue
    instead of one per change.

    The returned table keeps the learned vocabulary, the marked pieces of
    the final symbols, when every merge product ``left + right`` is a
    distinct string. The learner's state is the table applied in rank
    order, one pass per merge, while ``apply_word`` merges the lowest-rank
    pair present until none is left. The two agree unless a merge re-forms
    a pair of earlier rank. A pass leaves no occurrence of its own pair, so
    a re-formed pair would hold a symbol made by a later merge; that symbol
    existed when the earlier pair was counted and is longer than one
    character, so an earlier merge made it too, and two products would be
    equal. Otherwise the table keeps no vocabulary, and ``build_vocab``
    segments the words.
    """
    if num_merges <= 0:
        raise ValueError(f"num_merges must be positive, got {num_merges}")
    word_freqs = _word_frequencies(corpus)
    if not word_freqs:
        raise ValueError("corpus is empty")

    words = list(word_freqs)
    lengths = np.fromiter(map(len, words), np.int64, len(words))
    codes = np.frombuffer("".join(words).encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    # a character's symbol id is its rank among the corpus's code points
    present = np.zeros(int(codes.max(initial=0)) + 1, dtype=bool)
    present[codes] = True
    sym = (np.cumsum(present, dtype=np.int32) - 1)[codes]
    names = [chr(code) for code in np.flatnonzero(present).tolist()]  # symbol id -> string
    del codes, present
    ids = {name: i for i, name in enumerate(names)}
    stride = len(names) + num_merges  # more than any symbol id
    ends = np.cumsum(lengths)[lengths > 0]
    nxt = np.arange(1, len(sym) + 1, dtype=np.int32)
    nxt[ends - 1] = -1

    def pair_of(key):
        left, right = divmod(key, stride)
        return names[left], names[right]

    # the positions with a right neighbour, grouped by their pair of characters in
    # position order: one stable sort of the pairs' ids, in the narrowest type that
    # holds them, so that they and their order never take 16 bytes a position
    # (16 bits sort by radix)
    pos = np.flatnonzero(nxt >= 0).astype(np.int32)
    width = len(names) ** 2
    pairs = sym[pos].astype(np.uint16 if width <= 1 << 16 else np.uint32 if width <= 1 << 32 else np.int64)
    pairs *= len(names)
    pairs += sym[nxt[pos]].astype(pairs.dtype)
    order = pairs.argsort(kind="stable")
    pos, pairs = pos[order], pairs[order]
    del order
    bounds = _bounds(pairs)
    lefts, rights = np.divmod(pairs[bounds[:-1]].astype(np.int64), len(names))
    keys = lefts * stride + rights
    del pairs
    prv = np.arange(-1, len(sym) - 1, dtype=np.int32)
    prv[ends - lengths[lengths > 0]] = -1
    weight = np.repeat(np.fromiter(word_freqs.values(), np.int64, len(words)), lengths)
    del lengths, ends
    counts = dict(zip(keys.tolist(), np.add.reduceat(weight[pos], bounds[:-1]).tolist()))
    heap = [(-count, *pair_of(key), key) for key, count in counts.items()]
    heapq.heapify(heap)
    # each character's table: its pairs (c, x) as slots stride + x
    made = {}
    slots = rights + stride
    edges = _bounds(lefts).tolist()
    for i, j in zip(edges, edges[1:]):
        made[int(lefts[i])] = [(slots[i:j], bounds[i:j + 1], pos)]
    del keys, bounds, lefts, rights, slots
    small = np.uint16 if 3 * stride <= 1 << 16 else np.int32  # slots of 16 bits sort by radix

    table = MergeTable()
    while heap and len(table) < num_merges:
        neg, first, second, key = heapq.heappop(heap)
        count = counts.get(key)
        if count != -neg:
            if count and count < -neg:
                heapq.heappush(heap, (-count, first, second, key))  # fell since pushed: requeue
            continue  # else gone, or a later entry holds its higher count
        if -neg < 2:
            break
        table.append((first, second))
        left, right = divmod(key, stride)
        name = first + second
        merged = ids.setdefault(name, len(names))
        if merged == len(names):
            names.append(name)
        # the pair was filed where its left symbol was made, as (L, x), or its right one, as (x, R)
        filed = [positions[bounds[i]:bounds[i + 1]]
                 for symbol, slot in ((left, stride + right), (right, left))
                 for slots, bounds, positions in made.get(symbol, ())
                 if (i := slots.searchsorted(slot)) < len(slots) and slots[i] == slot]
        at = filed[0] if len(filed) == 1 else np.sort(np.concatenate(filed))
        # a stale position has been merged away or into a longer symbol, or its right neighbour has
        to = nxt[at]
        live = (sym[at] == left) & (sym[to] == right)
        at, to = at[live], to[live]
        if left == right:
            # in a run such as ``aaaa`` the occurrences overlap; merge every other one
            chained = np.zeros(len(at), dtype=bool)
            chained[1:] = at[1:] == to[:-1]
            if chained.any():
                k = np.arange(len(at))
                keep = (k - np.maximum.accumulate(np.where(chained, 0, k))) % 2 == 0
                at, to = at[keep], to[keep]
        after = nxt[to]
        before = prv[at]
        # in (L, R, L, R) the pair between the two sites is counted once, at the first
        lead = before >= 0
        lead[1:] &= after[:-1] != at[1:]
        joined = after >= 0
        before, after_j, at_j = before[lead], after[joined], at[joined]
        # the neighbour symbols of the sites, offset by stride per side (the slots): x
        # before a lead site, and after a joined site x' once merged and x before
        gone = sym[after_j] + 2 * stride
        sym[at], sym[to], nxt[at] = merged, -1, after
        prv[after_j] = at_j
        slots = np.concatenate((sym[before], sym[after_j] + stride, gone), dtype=small, casting="unsafe")
        order = slots.argsort(kind="stable")
        slots, sites = slots[order], np.concatenate((before, at_j, at_j))[order]
        bounds = _bounds(slots)
        xs, sums = slots[bounds[:-1]].tolist(), np.add.reduceat(weight[sites], bounds[:-1]).tolist()
        b1, b2 = bisect_left(xs, stride), bisect_left(xs, 2 * stride)
        # the merge's table: the pairs it formed, (x, LR) and (LR, x'), each with its
        # positions in position order; they sort before the pairs that go
        formed = len(before) + len(at_j)
        made.setdefault(merged, []).append((slots[bounds[:b2]], bounds[:b2 + 1], sites[:formed].copy()))
        # the falls first, so that no count passes below its final value: (x, L) and (R, x)
        fell = [x * stride + left for x in xs[:b1]] + [x + (right - 2) * stride for x in xs[b2:]]
        counts.update(zip(fell, map(sub, map(counts.__getitem__, fell), sums[:b1] + sums[b2:])))
        del counts[key]  # a merge leaves no occurrence of its own pair
        # (x, L) becomes (x, LR), and (LR, x') comes
        rose = [x * stride + merged for x in xs[:b1]] + [x + (merged - 1) * stride for x in xs[b1:b2]]
        pairs = [(names[x], name) for x in xs[:b1]] + [(name, names[x - stride]) for x in xs[b1:b2]]
        for key, c, (first, second) in zip(rose, sums, pairs):
            count = counts[key] = counts.get(key, 0) + c
            heapq.heappush(heap, (-count, first, second, key))
    del counts, made, heap, prv, weight  # before the vocabulary is read, so the peak does not grow
    if len({left + right for left, right in table.pairs}) == len(table):
        live = sym >= 0
        # piece s is symbol s's name, and piece len(names) + s that name marked,
        # which a word's last symbol takes
        pieces = names + [name + END_OF_WORD for name in names]
        seen = np.flatnonzero(np.bincount(sym[live] + len(names) * (nxt[live] < 0)))
        table._learned = (words, {pieces[s] for s in seen.tolist()})
    return table


def _marked(symbols: list[str]) -> tuple[str, ...]:
    """The pieces of a word: its symbols with the marker on the last one;
    an empty word has none."""
    if not symbols:
        return ()
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

    @staticmethod
    def lang_token(code: str) -> str:
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
    caller counts the corpus once. If its words are exactly those
    ``merges`` was learned from, their pieces are the table's learned
    vocabulary; other words are segmented through ``apply_bpe``.
    """
    word_freqs = _word_frequencies(corpus)
    learned = merges._learned
    if (learned is not None and len(learned[0]) == len(word_freqs)
            and all(map(word_freqs.__contains__, learned[0]))):
        subwords = learned[1]
    else:
        subwords = set(apply_bpe(word_freqs, merges))
    tokens = list(RESERVED)
    tokens.extend(SubwordVocab.lang_token(code) for code in sorted(registry.codes))
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
    write_records(path, merges.pairs, sep=" ")


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
    write_records(path, ((tok, i) for i, tok in enumerate(vocab.id_to_token)))


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
