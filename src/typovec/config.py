"""Pipeline configuration: a flat UTF-8 key=value file with "#" comments.

This module also holds the records and names that the CLI needs before it
runs a stage: the training and k-NN settings (:class:`TrainConfig`,
:class:`KnnConfig`), the extraction methods and the feature categories. It
imports no numpy, so a stage that does no array work loads none; the
modules that use these names (``models``, ``typology``, ``vectors``)
re-export them.

Every knob has a default except ``workdir`` and ``seed``, which are
mandatory. ``registry``, ``corpus`` and ``features`` default to the synth
stage's outputs inside the work directory. Writing the effective config and
re-parsing it reproduces the configuration exactly.

The same key=value codec (:func:`read_kv`, :func:`write_kv`,
:func:`format_value`, :func:`parse_fields`) writes and reads the stage
manifests, the ``.model`` manifests and the stages' key=value summaries.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from itertools import chain

from .corpus import read_each, write_records


class ConfigError(ValueError):
    pass


METHODS = ("LMVec", "MTVec", "MTCell", "MTBoth", "MTCellFinal", "MTHiddenMean")

CATEGORIES = ("syntax", "phonology", "inventory")
_PREFIX_TO_CATEGORY = {"S_": "syntax", "P_": "phonology", "I_": "inventory"}


def category_of(feature_name: str) -> str:
    prefix = feature_name[:2]
    try:
        return _PREFIX_TO_CATEGORY[prefix]
    except KeyError:
        raise ValueError(f"feature {feature_name!r} has no category prefix (S_/P_/I_)") from None


@dataclass
class TrainConfig:
    hidden_size: int = 512
    embed_size: int = 0  # 0 means: same as hidden_size
    lr: float = 0.001
    dropout: float = 0.5
    epochs: int = 10
    batch_size: int = 64
    seed: int = 0
    clip_norm: float = 5.0
    attention: bool = False

    def __post_init__(self) -> None:
        self.embed_size = self.embed_size or self.hidden_size
        if self.hidden_size <= 0 or self.embed_size <= 0:
            raise ValueError("hidden_size and embed_size must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        if not (math.isfinite(self.clip_norm) and self.clip_norm >= 0):
            raise ValueError(f"clip_norm must be finite and >= 0 (0 turns clipping off), got {self.clip_norm}")


@dataclass
class KnnConfig:
    k: int = 3
    geodesic_weight: float = 1.0
    genetic_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"knn_k must be >= 1, got {self.k}")
        if not all(math.isfinite(w) and w >= 0 for w in (self.geodesic_weight, self.genetic_weight)):
            raise ValueError("geodesic_weight and genetic_weight must be finite and >= 0, "
                             f"got {self.geodesic_weight} and {self.genetic_weight}")
        if self.geodesic_weight == 0 and self.genetic_weight == 0:
            raise ValueError("geodesic_weight or genetic_weight must be positive")


# The fewest resamples a paired bootstrap may draw.
MIN_RESAMPLES = 1000

# Config keys that name input files, with the synth output each defaults to.
INPUT_FILES = {"registry": "registry.tsv", "corpus": "corpus.txt", "features": "features.csv"}


@dataclass
class PipelineConfig:
    workdir: str
    seed: int
    registry: str = ""
    corpus: str = ""
    features: str = ""
    num_merges: int = 32000
    hidden_size: int = TrainConfig.hidden_size
    embed_size: int = TrainConfig.embed_size
    lr: float = TrainConfig.lr
    dropout: float = TrainConfig.dropout
    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    clip_norm: float = TrainConfig.clip_norm
    attention: bool = TrainConfig.attention
    knn_k: int = KnnConfig.k
    geodesic_weight: float = KnnConfig.geodesic_weight
    genetic_weight: float = KnnConfig.genetic_weight
    l2: float = 1.0
    n_folds: int = 10
    methods: str = "LMVec,MTVec,MTCell,MTBoth"
    bootstrap_n: int = 10000
    bootstrap_a: str = "None+Aux"
    bootstrap_b: str = "MTBoth+Aux"
    traj_feature: str = "S_OBJECT_BEFORE_VERB"
    traj_langs: str = ""  # comma-separated; empty means all
    traj_sentences: int = 10
    synth_langs: int = 40
    synth_sentences: int = 500
    synth_lexicon: int = 24

    def __post_init__(self) -> None:
        if not (math.isfinite(self.l2) and self.l2 >= 0):
            raise ConfigError(f"l2 must be finite and >= 0, got {self.l2}")
        if self.n_folds < 2:
            raise ConfigError(f"n_folds must be at least 2, got {self.n_folds}")
        unknown = [m for m in self.method_list if m not in METHODS]
        if unknown:
            raise ConfigError(f"unknown methods in config: {unknown}")
        if not self.method_list:
            raise ConfigError(f"methods must name at least one of {', '.join(METHODS)}")
        for key in ("methods", "traj_langs"):
            entries = [e for e in getattr(self, key).split(",") if e]
            repeated = [e for i, e in enumerate(entries) if e in entries[:i]]
            if repeated:
                raise ConfigError(f"{key} names {repeated[0]!r} more than once")
        for key in ("bootstrap_a", "bootstrap_b"):
            condition = getattr(self, key)
            if condition[-4:] not in ("+Aux", "-Aux") or condition[:-4] not in ("None", *METHODS):
                raise ConfigError(f"{key} must be None or a method, then +Aux or -Aux, got {condition!r}")
        if self.bootstrap_n < MIN_RESAMPLES:
            raise ConfigError(f"bootstrap_n must be at least {MIN_RESAMPLES}, got {self.bootstrap_n}")
        if self.traj_sentences < 0:
            raise ConfigError(f"traj_sentences must be >= 0 (0 means all sentences), got {self.traj_sentences}")
        # the least value bpe.learn_bpe and synth.generate_suite accept
        for key, least in (("num_merges", 1), ("synth_langs", 4), ("synth_sentences", 1), ("synth_lexicon", 10)):
            if getattr(self, key) < least:
                raise ConfigError(f"{key} must be at least {least}, got {getattr(self, key)}")

    @property
    def method_list(self) -> list[str]:
        return [m for m in self.methods.split(",") if m]


def read_kv(path) -> dict[str, str]:
    """The entries of a key=value file. Lines are stripped; blank lines and
    "#" comments are skipped; a line without "=" or a repeated key raises
    ConfigError naming ``path`` and the line."""
    entries: dict[str, str] = {}

    def parse(line):
        line = line.strip()
        if not line or line.startswith("#"):
            return
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep:
            raise ConfigError("expected key=value")
        if key in entries:
            raise ConfigError(f"duplicate key {key!r}")
        entries[key] = value.strip()

    read_each(path, parse)
    return entries


def write_kv(path, entries: dict[str, str], comment: str = "") -> None:
    write_records(path, chain([(f"# {comment}",)] if comment else [], entries.items()), sep="=")


def format_value(record, name: str) -> str:
    """A dataclass field as written to a key=value file; ``parse_fields`` gives it back."""
    value = getattr(record, name)
    if isinstance(value, bool):
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def parse_fields(defaults: dict[str, object], entries: dict[str, str], path,
                 required: bool = False) -> dict[str, object]:
    """The entries named in ``defaults``, each parsed as the type of its default:
    bool as 0 or 1, then int, float or str. A value that does not parse, or
    with ``required`` a missing key, raises ConfigError naming ``path`` and the key."""
    values: dict[str, object] = {}
    for key, default in defaults.items():
        if key not in entries:
            if required:
                raise ConfigError(f"{path}: missing key {key!r}")
            continue
        raw, kind = entries[key], type(default)
        try:
            if kind is bool and raw not in ("0", "1"):
                raise ValueError
            values[key] = raw == "1" if kind is bool else kind(raw)
        except ValueError:
            raise ConfigError(f"{path}: key {key!r}: cannot parse {raw!r} as {kind.__name__}") from None
    return values


def parse_config(path) -> PipelineConfig:
    raw = read_kv(path)
    defaults = asdict(PipelineConfig(workdir="", seed=0))
    unknown = [key for key in raw if key not in defaults]
    if unknown:
        raise ConfigError(f"{path}: unknown config key {unknown[0]!r}")
    if "workdir" not in raw:
        raise ConfigError(f"{path}: missing mandatory key 'workdir'")
    if "seed" not in raw:
        raise ConfigError(f"{path}: missing mandatory key 'seed'")
    return PipelineConfig(**parse_fields(defaults, raw, path))


def write_effective_config(path, config: PipelineConfig) -> None:
    write_kv(path, {f.name: format_value(config, f.name) for f in fields(config)},
             comment="effective pipeline configuration")
