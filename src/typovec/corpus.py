"""Language registry, parallel corpus loading, and deterministic preprocessing.

File formats
------------
Registry: UTF-8 TSV with columns ``code, lat, lon, lineage``. The lineage is
a "|"-separated path of family nodes, root first. Lines starting with "#"
are comments.

Parallel corpus: UTF-8 text, one pair per line, ``lang<TAB>source ||| target``
with the literal 5-character separator ``" ||| "``. :func:`read_pairs` is its
one validated reader: it streams the pairs, and :func:`load_parallel` keeps
them in a :class:`CorpusStore` grouped by language.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from itertools import chain

PAIR_SEPARATOR = " ||| "


class CorpusError(ValueError):
    """Malformed or inconsistent registry / corpus / feature input."""


@dataclass(frozen=True)
class LanguageRecord:
    """One language: identifier, phylogenetic lineage, representative point."""

    code: str
    lineage: tuple[str, ...]
    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not self.code:
            raise CorpusError("language code must be non-empty")
        if not self.lineage or any(not node for node in self.lineage):
            raise CorpusError(f"{self.code}: lineage must be a non-empty path of non-empty nodes")
        if not -90.0 <= self.lat <= 90.0:
            raise CorpusError(f"{self.code}: latitude {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise CorpusError(f"{self.code}: longitude {self.lon} outside [-180, 180]")


class Registry:
    """Ordered collection of :class:`LanguageRecord` with unique codes."""

    source = "the registry"  # :func:`load_registry` sets the file's path

    def __init__(self, records: list[LanguageRecord] | None = None):
        self._records: dict[str, LanguageRecord] = {}
        for rec in records or []:
            self.add(rec)

    def add(self, record: LanguageRecord) -> None:
        if record.code in self._records:
            raise CorpusError(f"duplicate language code {record.code!r}")
        self._records[record.code] = record

    def __contains__(self, code: str) -> bool:
        return code in self._records

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records.values())

    def __getitem__(self, code: str) -> LanguageRecord:
        try:
            return self._records[code]
        except KeyError:
            raise CorpusError(f"unknown language code {code!r}") from None

    @property
    def codes(self) -> list[str]:
        return list(self._records)


@dataclass(frozen=True)
class SentencePair:
    """One parallel sentence, both sides already preprocessed."""

    lang: str
    source: tuple[str, ...]
    target: tuple[str, ...]


@dataclass
class PairStore:
    """Sentence pairs grouped by language, plus the original line order.

    ``ordered`` holds the same pair objects in input-file order so that a
    store can be re-serialized byte-identically.
    """

    by_lang: dict[str, list] = field(default_factory=dict)
    ordered: list = field(default_factory=list)

    def add(self, pair) -> None:
        self.by_lang.setdefault(pair.lang, []).append(pair)
        self.ordered.append(pair)

    @property
    def counts(self) -> dict[str, int]:
        return {lang: len(pairs) for lang, pairs in self.by_lang.items()}

    def __len__(self) -> int:
        return len(self.ordered)

    def languages(self) -> list[str]:
        return list(self.by_lang)


class CorpusStore(PairStore):
    """Preprocessed :class:`SentencePair` records."""


def preprocess(text: str) -> list[str]:
    """Unicode NFC normalization plus whitespace tokenization, case preserved."""
    return unicodedata.normalize("NFC", text).split()


def read_lines(path):
    """Yields the lines of a UTF-8 text file without their newlines, reading
    lazily; a byte sequence that is not UTF-8 raises CorpusError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from (line.rstrip("\n") for line in fh)
        except UnicodeDecodeError as exc:
            raise CorpusError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_registry(path) -> Registry:
    registry = Registry()
    registry.source = str(path)
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise CorpusError(f"{path}:{lineno}: expected 4 tab-separated fields, got {len(fields)}")
        code, lat_s, lon_s, lineage_s = fields
        try:
            lat, lon = float(lat_s), float(lon_s)
        except ValueError:
            raise CorpusError(f"{path}:{lineno}: non-numeric coordinate") from None
        try:
            record = LanguageRecord(code=code, lineage=tuple(lineage_s.split("|")), lat=lat, lon=lon)
            registry.add(record)
        except CorpusError as exc:
            raise CorpusError(f"{path}:{lineno}: {exc}") from None
    return registry


def read_pairs(path, registry: Registry):
    """Yields the corpus's sentence pairs in file order, preprocessed, as it
    reads the file, so a caller that needs one pass over them (word counting)
    holds no :class:`CorpusStore`.

    Every line is checked as it is read: a missing tab, a language code not in
    ``registry``, a separator count other than one and an empty side raise
    CorpusError naming ``path:line``; bytes that are not UTF-8 and a file
    without pairs raise it naming ``path``. A pair is yielded only once its
    line has passed, so the error comes at the first bad line.
    """
    empty = True
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line:
            continue
        lang, tab, rest = line.partition("\t")
        if not tab:
            raise CorpusError(f"{path}:{lineno}: missing tab after language code")
        if lang not in registry:
            raise CorpusError(f"{path}:{lineno}: unknown language code {lang!r} "
                              f"(not in {registry.source})")
        if rest.count(PAIR_SEPARATOR) != 1:
            raise CorpusError(f"{path}:{lineno}: expected exactly one {PAIR_SEPARATOR!r} separator")
        source_s, _, target_s = rest.partition(PAIR_SEPARATOR)
        source = preprocess(source_s)
        target = preprocess(target_s)
        if not source:
            raise CorpusError(f"{path}:{lineno}: empty source side")
        if not target:
            raise CorpusError(f"{path}:{lineno}: empty target side")
        empty = False
        yield SentencePair(lang, tuple(source), tuple(target))
    if empty:
        raise CorpusError(f"{path}: no sentence pairs")


def load_parallel(path, registry: Registry) -> CorpusStore:
    """The pairs of :func:`read_pairs`, kept in a store; it raises the same errors."""
    store = CorpusStore()
    for pair in read_pairs(path, registry):
        store.add(pair)
    return store


def read_tsv(path, columns: tuple[str, ...], parse_row) -> None:
    """Calls ``parse_row(fields)`` on each non-empty row of a tab-separated file.

    The header must start with ``columns``; each row has as many fields as the
    header. Any breach, or a ValueError from ``parse_row``, names ``path:line``.
    """
    lines = read_lines(path)
    header = next(lines, "").split("\t")
    if tuple(header[:len(columns)]) != columns:
        raise ValueError(f"{path}:1: header must start with {' '.join(columns)}")
    for lineno, line in enumerate(lines, start=2):
        if not line:
            continue
        fields = line.split("\t")
        try:
            if len(fields) != len(header):
                raise ValueError(f"expected {len(header)} tab-separated fields, got {len(fields)}")
            parse_row(fields)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None


def serialize_parallel(store: CorpusStore) -> str:
    lines = [
        f"{p.lang}\t{' '.join(p.source)}{PAIR_SEPARATOR}{' '.join(p.target)}"
        for p in store.ordered
    ]
    return "".join(line + "\n" for line in lines)


def write_tsv(path, rows) -> None:
    """Writes each row as one line of its fields' ``str`` forms (a float's is its
    round-trip ``repr``), tab-joined; a header is just the first row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines("\t".join(map(str, row)) + "\n" for row in rows)


def write_registry(path, registry: Registry) -> None:
    write_tsv(path, chain([("# code", "lat", "lon", "lineage")],
                          ((rec.code, rec.lat, rec.lon, "|".join(rec.lineage)) for rec in registry)))


def write_parallel(path, store: CorpusStore) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_parallel(store))
