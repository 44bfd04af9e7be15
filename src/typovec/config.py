"""Pipeline configuration: a flat UTF-8 key=value file with "#" comments.

Every knob has a default except ``workdir`` and ``seed``, which are
mandatory. ``registry``, ``corpus`` and ``features`` default to the synth
stage's outputs inside the work directory. Writing the effective config and
re-parsing it reproduces the configuration exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path


class ConfigError(ValueError):
    pass


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
    hidden_size: int = 512
    embed_size: int = 0  # 0 means: same as hidden_size
    lr: float = 0.001
    dropout: float = 0.5
    epochs: int = 10
    batch_size: int = 64
    clip_norm: float = 5.0
    attention: bool = False
    knn_k: int = 3
    geodesic_weight: float = 1.0
    genetic_weight: float = 1.0
    l2: float = 1.0
    n_folds: int = 10
    methods: str = "LMVec,MTVec,MTCell,MTBoth"
    max_sentences: int = 0  # 0 means: all sentences
    mtcell_include_special: bool = True
    mtcell_sentence_equal: bool = False
    bootstrap_n: int = 10000
    bootstrap_a: str = "None+Aux"
    bootstrap_b: str = "MTBoth+Aux"
    traj_feature: str = "S_OBJECT_BEFORE_VERB"
    traj_langs: str = ""  # comma-separated; empty means all
    traj_sentences: int = 10
    synth_langs: int = 40
    synth_sentences: int = 500
    synth_lexicon: int = 24

    @property
    def method_list(self) -> list[str]:
        return [m for m in self.methods.split(",") if m]

    def path(self, name: str) -> Path:
        """The file that the ``INPUT_FILES`` key ``name`` names."""
        value = getattr(self, name)
        return Path(value) if value else Path(self.workdir) / INPUT_FILES[name]


_BOOL_FIELDS = {"attention", "mtcell_include_special", "mtcell_sentence_equal"}


def _parse_value(name: str, kind: type, raw: str):
    try:
        if name in _BOOL_FIELDS:
            if raw not in ("0", "1"):
                raise ValueError
            return raw == "1"
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"config key {name!r}: cannot parse {raw!r} as {kind.__name__}") from None


def parse_config(path, seed_override: int | None = None) -> PipelineConfig:
    known = {f.name: f.type for f in fields(PipelineConfig)}
    raw: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            if key not in known:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in raw:
                raise ConfigError(f"{path}:{lineno}: duplicate config key {key!r}")
            raw[key] = value
    if seed_override is not None:
        raw["seed"] = str(seed_override)
    if "workdir" not in raw:
        raise ConfigError(f"{path}: missing mandatory key 'workdir'")
    if "seed" not in raw:
        raise ConfigError(f"{path}: missing mandatory key 'seed' (and no --seed given)")
    defaults = PipelineConfig(workdir="", seed=0)
    kinds = {"workdir": str, "seed": int}
    values: dict[str, object] = {}
    for f in fields(PipelineConfig):
        kind = kinds.get(f.name, type(getattr(defaults, f.name)))
        if f.name in raw:
            values[f.name] = _parse_value(f.name, kind, raw[f.name])
    return PipelineConfig(**values)


def format_value(config: PipelineConfig, name: str) -> str:
    """The config value as written to a config file; parsing it gives the value back."""
    value = getattr(config, name)
    if name in _BOOL_FIELDS:
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def write_effective_config(path, config: PipelineConfig) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# effective pipeline configuration\n")
        for f in fields(PipelineConfig):
            fh.write(f"{f.name}={format_value(config, f.name)}\n")
