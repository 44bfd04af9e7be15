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

Reading text: :func:`read_records` is the one reader of every text input,
the config and manifests, the registry, corpus and features, the merge
table, vocabulary, vector stores and the TSV artifacts. It reads a UTF-8 file
lazily, numbers its lines, skips empty ones and hands each line to the
loader's own parse function, which raises ValueError (or a subclass) with a
message that names no location; a file with a header has it on line 1. The
reader alone puts ``path:line:`` in front of that message, and of a line
that is not UTF-8, so a stage that fails on a malformed input can match the
path and name the stage that wrote the file. Lines end at "\n" only; a
"\r" before it is dropped. Valid text is decoded a buffer at a time with no
check per line; only after a decoding error is the rest of the file decoded
line by line, to name the line. :func:`read_each` runs the reader to the end
for a loader whose parse function keeps what it reads.

Writing text: :func:`write_records` is the one writer of every text
artifact: the TSV and CSV files, the corpus and merge table, the config,
manifests and stage summaries, and the Markdown tables. It writes each row
as one line, the ``str`` of its fields joined by a separator (a tab unless
the caller passes another), in UTF-8 with "\n" line ends; every other writer
builds the rows of its format and calls it.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice
from typing import NamedTuple

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


class SentencePair(NamedTuple):
    """One parallel sentence, both sides already preprocessed; immutable, as
    a tuple is, and built without the per-field ``object.__setattr__`` of a
    frozen dataclass."""

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

    def __len__(self) -> int:
        return len(self.ordered)

    def __iter__(self):
        """The pairs in input-file order."""
        return iter(self.ordered)


class CorpusStore(PairStore):
    """Preprocessed :class:`SentencePair` records."""


def preprocess(text: str) -> list[str]:
    """Unicode NFC normalization plus whitespace tokenization, case preserved."""
    return unicodedata.normalize("NFC", text).split()


def read_records(path, parse, header=None):
    """Yields ``parse(line)`` for each non-empty line of a UTF-8 text file, in
    file order, reading lazily; each line is passed without its line end.

    With ``header``, line 1 is the header even when it is empty or missing:
    the first record is ``header(line)``, and each later line is parsed as
    ``parse(head, line)`` with that record.

    A ValueError from either function is raised again as the same class with
    ``path:line:`` in front of its message, and a line holding bytes that are
    not UTF-8 raises CorpusError the same way.
    """
    lineno = 0  # the last line read
    with open(path, encoding="utf-8", newline="\n") as fh:
        lines = fh
        while True:
            try:
                if header is not None and lineno == 0:
                    line = next(lines, "").rstrip("\r\n")
                    lineno = 1
                    try:
                        head = header(line)
                    except ValueError as exc:
                        raise type(exc)(f"{path}:{lineno}: {exc}") from None
                    yield head
                    parse = partial(parse, head)
                for lineno, line in enumerate(lines, start=lineno + 1):
                    line = line.rstrip("\r\n")
                    if not line:
                        continue
                    try:
                        record = parse(line)
                    except ValueError as exc:
                        raise type(exc)(f"{path}:{lineno}: {exc}") from None
                    yield record
                return
            except UnicodeDecodeError:
                # the decoder fails on a read buffer, not on a line: the lines
                # after the last one read are decoded again one at a time
                if lines is not fh:
                    raise CorpusError(f"{path}:{lineno + 1}: not UTF-8 text") from None
                fh.buffer.seek(0)
                lines = (raw.decode("utf-8") for raw in islice(fh.buffer, lineno, None))


def read_each(path, parse, header=None) -> None:
    """Reads the whole file through :func:`read_records`, for a loader whose
    ``parse`` keeps what it reads."""
    for _ in read_records(path, parse, header):
        pass


def load_registry(path) -> Registry:
    registry = Registry()
    registry.source = str(path)

    def parse(line):
        if not line.strip() or line.lstrip().startswith("#"):
            return
        fields = line.split("\t")
        if len(fields) != 4:
            raise CorpusError(f"expected 4 tab-separated fields, got {len(fields)}")
        code, lat_s, lon_s, lineage_s = fields
        try:
            lat, lon = float(lat_s), float(lon_s)
        except ValueError:
            raise CorpusError("non-numeric coordinate") from None
        registry.add(LanguageRecord(code=code, lineage=tuple(lineage_s.split("|")), lat=lat, lon=lon))

    read_each(path, parse)
    return registry


def read_pairs(path, registry: Registry):
    """Yields the corpus's sentence pairs in file order, preprocessed, as it
    reads the file, so a caller that needs one pass over them (word counting)
    holds no :class:`CorpusStore`.

    Every line is checked as it is read: a missing tab, a language code not in
    ``registry``, a separator count other than one and an empty side raise
    CorpusError naming ``path:line``, as do bytes that are not UTF-8; a file
    without pairs raises it naming ``path``. A pair is yielded only once its
    line has passed, so the error comes at the first bad line.
    """
    codes = frozenset(registry.codes)

    def parse(line):
        lang, tab, rest = line.partition("\t")
        if not tab:
            raise CorpusError("missing tab after language code")
        if lang not in codes:
            raise CorpusError(f"unknown language code {lang!r} (not in {registry.source})")
        # split where partition would, left to right: two sides exactly when count is 1
        sides = rest.split(PAIR_SEPARATOR)
        if len(sides) != 2:
            raise CorpusError(f"expected exactly one {PAIR_SEPARATOR!r} separator")
        source, target = tuple(preprocess(sides[0])), tuple(preprocess(sides[1]))
        if not source:
            raise CorpusError("empty source side")
        if not target:
            raise CorpusError("empty target side")
        return SentencePair(lang, source, target)

    pairs = read_records(path, parse)
    first = next(pairs, None)
    if first is None:
        raise CorpusError(f"{path}: no sentence pairs")
    yield first
    yield from pairs


def load_parallel(path, registry: Registry) -> CorpusStore:
    """The pairs of :func:`read_pairs`, kept in a store; it raises the same errors."""
    store = CorpusStore()
    for pair in read_pairs(path, registry):
        store.add(pair)
    return store


def read_tsv(path, columns: tuple[str, ...], parse_row) -> None:
    """Calls ``parse_row(fields)`` on each row of a tab-separated file.

    The header, line 1, must start with ``columns``; each row has as many
    fields as the header. A breach, or a ValueError from ``parse_row``, names
    ``path:line``.
    """
    def parse_header(line):
        fields = line.split("\t")
        if tuple(fields[:len(columns)]) != columns:
            raise ValueError(f"header must start with {' '.join(columns)}")
        return len(fields)

    def parse(width, line):
        fields = line.split("\t")
        if len(fields) != width:
            raise ValueError(f"expected {width} tab-separated fields, got {len(fields)}")
        parse_row(fields)

    read_each(path, parse, header=parse_header)


def write_records(path, rows, sep: str = "\t") -> None:
    """Writes each row as one line of its fields' ``str`` forms (a float's is its
    round-trip ``repr``) joined by ``sep``; a header is just the first row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(sep.join(map(str, row)) + "\n" for row in rows)


def write_registry(path, registry: Registry) -> None:
    write_records(path, chain([("# code", "lat", "lon", "lineage")],
                              ((rec.code, rec.lat, rec.lon, "|".join(rec.lineage)) for rec in registry)))


def write_parallel(path, store: CorpusStore) -> None:
    write_records(path, ((p.lang, f"{' '.join(p.source)}{PAIR_SEPARATOR}{' '.join(p.target)}")
                         for p in store))
