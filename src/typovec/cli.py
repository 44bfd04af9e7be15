"""Pipeline orchestration: stages write versioned artifacts into a work dir.

Each stage is a ``Stage`` record (body, input artifacts, config params) run
by one driver, :func:`run_stage`. Its manifest records the tool version, the
params, and sha256 hashes of inputs and outputs, keyed by path relative to
the work dir (an input configured outside it keeps its configured path), so
a copied or moved work dir keeps its records. Rerunning a stage whose
manifest matches and whose recorded outputs are intact is a no-op.

One rule, :func:`_require_fresh`, decides whether a stage may run: the
stage and every stage upstream of it that has a manifest ran under this
config (the tool version and params each manifest records are the
config's) on the files their producers last wrote (each ``in:`` hash is
the ``out:`` hash its producer's manifest lists; for the stage about to
run, the hashes of its inputs as read now), and on each input file the
config names as it is now. Otherwise the stage writes nothing and names
the first stage, in ``STAGES`` order, that breaks the rule, with
``rerun '<stage>'``. Stages without a manifest are skipped; an unreadable
manifest of a stage the rule reaches (one torn by a crash, say) names that
stage, and the stage itself, finding its own manifest unreadable, just runs
again and writes it whole.

One method, :meth:`Workdir.producer`, names the stage that writes an
artifact, for the rule (which walks only artifacts that have one), the
missing-input message and the rerun hint. An input file that the config
names (``registry=``, ``corpus=``, ``features=``) has no producer, inside
the work dir or out of it: ``synth`` writes its suite only to the work-dir
files those keys default to, and refuses to run when a named file is one
of them, so no stage overwrites a named file. Every loader starts its
errors with ``<path>:`` (the one line reader, ``corpus.read_records``,
writes ``<path>:<line>:``), so a stage that fails on a malformed input
names that input's producer to rerun, if it has one. A ``flock`` on
``<workdir>/.lock`` guards against concurrent pipeline instances; the
kernel releases it when its process dies, so a killed run leaves no lock
behind.

Exit codes: 0 success, 1 validation error (bad inputs, missing or stale
upstream artifacts), 2 runtime error.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import cache
from pathlib import Path
from typing import Callable

from . import __version__, bpe, corpus, models, predict, report, synth, training, typology, vectors
from .config import (CATEGORIES, INPUT_FILES, METHODS, ConfigError, KnnConfig, PipelineConfig, TrainConfig,
                     category_of, format_value, parse_config, read_kv, write_effective_config, write_kv)


class StageInputError(ValueError):
    """An upstream artifact is missing, stale or malformed; names the stage to run."""


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# Artifact name -> the stage that writes it.
PRODUCERS = {
    **dict.fromkeys(("registry", "corpus", "features"), "synth"),
    **dict.fromkeys(("merges.txt", "vocab.tsv"), "bpe-learn"),
    **dict.fromkeys(("lm.ckpt", "lm.model"), "train-lm"),
    **dict.fromkeys(("nmt.ckpt", "nmt.model"), "train-nmt"),
    **dict.fromkeys((f"vectors_{method}.tsv" for method in METHODS), "extract"),
    "knn_vectors.tsv": "baseline",
    **dict.fromkeys(("report.tsv", "feature_accuracy.tsv", "predictions.tsv"), "predict"),
}


class Workdir:
    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self.root = Path(cfg.workdir)
        self.root.mkdir(parents=True, exist_ok=True)
        # the input files the config names; synth's outputs stand in for the others
        self.named = {name: Path(getattr(cfg, name)) for name in INPUT_FILES if getattr(cfg, name)}

    def path(self, name: str) -> Path:
        """Path of an artifact: the file the config names for it, else its work-dir file."""
        return self.named.get(name) or self.root / INPUT_FILES.get(name, name)

    def producer(self, name: str) -> str | None:
        """The stage that writes artifact ``name``; None for an input file the config names."""
        return None if name in self.named else PRODUCERS[name]

    def key(self, path: Path) -> str:
        """Manifest key of an artifact: its path relative to the work dir when
        inside it, so a copied or moved work dir keeps its records; else as configured."""
        try:
            return str(path.relative_to(self.root))
        except ValueError:
            return str(path)

    def manifest_path(self, stage: str) -> Path:
        return self.root / f"{stage.replace('-', '_')}.manifest"

    def recorded(self, stage: str) -> dict[str, str]:
        """The stage's manifest entries, empty if it has none; an unreadable
        manifest raises StageInputError naming it and the stage to rerun."""
        try:
            return read_kv(self.manifest_path(stage))
        except FileNotFoundError:
            return {}
        except (OSError, ValueError) as exc:
            raise StageInputError(f"{exc}; rerun '{stage}'") from None

    def up_to_date(self, stage: str, entries: dict[str, str]) -> bool:
        """The manifest holds exactly ``entries`` and every output it records is intact."""
        try:
            stored = self.recorded(stage)
        except StageInputError:  # e.g. torn by a crash while it was written: the stage runs again
            return False
        outputs = {self.root / k[len("out:"):]: v for k, v in stored.items() if k.startswith("out:")}
        if not outputs or {k: v for k, v in stored.items() if not k.startswith("out:")} != entries:
            return False
        return all(path.exists() and _sha256(path) == digest for path, digest in outputs.items())

    def write_manifest(self, stage: str, entries: dict[str, str], outputs: list[Path]) -> None:
        write_kv(self.manifest_path(stage),
                 {**entries, **{f"out:{self.key(path)}": _sha256(path) for path in outputs}})


@contextmanager
def _workdir_lock(root: Path):
    """Holds an exclusive ``flock`` on ``<root>/.lock``; the file itself stays in place."""
    with open(root / ".lock", "a") as fh:
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise StageInputError(f"work dir is locked by another pipeline ({fh.name})") from None
        yield


# The train stages record every TrainConfig field as a param of the same name.
_TRAIN_PARAMS = tuple(f.name for f in fields(TrainConfig))


def _train_config(cfg: PipelineConfig) -> TrainConfig:
    return TrainConfig(**{name: getattr(cfg, name) for name in _TRAIN_PARAMS})


# A stage body writes its outputs; it returns their paths and the summary to print.
StageResult = tuple[list[Path], str]


def _synth(cfg: PipelineConfig, wd: Workdir) -> StageResult:
    # the work-dir files only, never an input file that the config names elsewhere
    outputs = [wd.root / name for name in INPUT_FILES.values()]  # registry, corpus, features
    for key, path in wd.named.items():
        if path.resolve() in {out.resolve() for out in outputs}:
            raise ConfigError(f"{key} names {path}, a file that synth writes; name another file")
    suite = synth.generate_suite(cfg.synth_langs, cfg.synth_sentences, cfg.seed, cfg.synth_lexicon)
    corpus.write_registry(outputs[0], suite.registry)
    corpus.write_parallel(outputs[1], suite.corpus)
    typology.write_features(outputs[2], suite.features)
    return outputs, f"wrote {cfg.synth_langs} languages x {cfg.synth_sentences} sentences"


def _ingest(cfg: PipelineConfig, wd: Workdir) -> StageResult:
    registry = corpus.load_registry(wd.path("registry"))
    pairs = Counter(pair.lang for pair in corpus.read_pairs(wd.path("corpus"), registry))
    matrix = typology.load_features(wd.path("features"), registry)
    # extract writes vectors only for the languages that have sentences, and predict reads one per
    # matrix row. Two files of one synth suite always agree, so no stage rerun mends this: the
    # message names the file without the "<path>:" that would ask for one
    silent = [lang for lang in matrix.languages if not pairs[lang]]
    if silent:
        raise ValueError(f"{wd.path('features')} lists language {silent[0]!r}, "
                         f"which has no sentence pair in {wd.path('corpus')}")
    counts = matrix.category_counts()
    summary = wd.path("ingest_summary.txt")
    write_kv(summary, {
        "languages": str(len(registry)),
        "sentence_pairs": str(pairs.total()),
        **{f"count:{lang}": str(pairs[lang]) for lang in sorted(pairs)},
        **{f"features:{cat}": str(counts[cat]) for cat in CATEGORIES},
    })
    return [summary], (f"{len(registry)} languages, {pairs.total()} pairs, "
                       f"{sum(counts.values())} features")


def _bpe_learn(cfg: PipelineConfig, wd: Workdir) -> StageResult:
    registry = corpus.load_registry(wd.path("registry"))
    freqs = bpe.corpus_word_frequencies(corpus.read_pairs(wd.path("corpus"), registry))
    merges = bpe.learn_bpe(freqs, cfg.num_merges)
    vocab = bpe.build_vocab(freqs, merges, registry)
    outputs = [wd.path("merges.txt"), wd.path("vocab.tsv")]
    bpe.save_merges(outputs[0], merges)
    bpe.save_vocab(outputs[1], vocab)
    return outputs, f"{len(merges)} merges, vocab size {len(vocab)}"


# The artifacts _load_encoded reads.
_ENCODED_INPUTS = ("registry", "corpus", "merges.txt", "vocab.tsv")


def _load_encoded(wd: Workdir):
    """The registry, the encoded corpus and the vocabulary; the corpus is
    encoded as it is read, so no stage that calls this holds its words."""
    registry = corpus.load_registry(wd.path("registry"))
    merges = bpe.load_merges(wd.path("merges.txt"))
    vocab = bpe.load_vocab(wd.path("vocab.tsv"))
    missing = [code for code in registry.codes if vocab.lang_token(code) not in vocab]
    if missing:
        raise ValueError(f"{wd.path('vocab.tsv')}: no token for language {missing[0]!r}")
    pairs = corpus.read_pairs(wd.path("corpus"), registry)
    return registry, bpe.encode_corpus(pairs, merges, vocab), vocab


def _train(cfg: PipelineConfig, wd: Workdir, kind: str) -> StageResult:
    _, encoded, vocab = _load_encoded(wd)
    trainer = training.train_nmt if kind == "nmt" else training.train_lm
    model, curve = trainer(encoded, vocab, _train_config(cfg))
    outputs = [wd.path(f"{kind}.ckpt"), wd.path(f"{kind}.model")]
    models.save_model(*outputs, model, _train_config(cfg), curve, _sha256(wd.path("vocab.tsv")))
    return outputs, f"{len(curve)} epochs, final loss/token {curve[-1]:.4f}"


def _load_trained(wd: Workdir, kind: str):
    manifest_path = wd.path(f"{kind}.model")
    model, manifest, _curve = models.load_model(wd.path(f"{kind}.ckpt"), manifest_path)
    if manifest.get("vocab_sha256") != _sha256(wd.path("vocab.tsv")):
        raise ValueError(f"{manifest_path}: the model was trained with a vocabulary "
                         f"other than {wd.path('vocab.tsv')}")
    return model


def _extract_inputs(cfg: PipelineConfig) -> list[str]:
    inputs = list(_ENCODED_INPUTS)
    if any(m.startswith("MT") for m in cfg.method_list):
        inputs += ["nmt.ckpt", "nmt.model"]
    if "LMVec" in cfg.method_list:
        inputs += ["lm.ckpt", "lm.model"]
    return inputs


def _extract(cfg: PipelineConfig, wd: Workdir) -> StageResult:
    methods = cfg.method_list
    _, encoded, vocab = _load_encoded(wd)
    langs = sorted(encoded.by_lang)
    nmt = _load_trained(wd, "nmt") if "nmt.ckpt" in _extract_inputs(cfg) else None
    lm = _load_trained(wd, "lm") if "lm.ckpt" in _extract_inputs(cfg) else None
    need_encoder = bool({"MTCell", "MTBoth", "MTCellFinal", "MTHiddenMean"} & set(methods))

    per_lang = []
    for lang in langs:
        found = {}
        if lm is not None:
            found["LMVec"] = vectors.extract_lmvec(lm, vocab, lang)
        if nmt is not None:
            found["MTVec"] = vectors.extract_mtvec(nmt, vocab, lang)
        if need_encoder:
            found.update(vectors.extract_encoder_vectors(nmt, encoded, vocab, lang))
            found["MTBoth"] = vectors.combine_mtboth(found["MTVec"], found["MTCell"])
        per_lang.append(found)
    outputs = [wd.path(f"vectors_{method}.tsv") for method in methods]
    for method, out in zip(methods, outputs):
        vectors.save_vectors(out, [found[method] for found in per_lang])
    return outputs, f"wrote {', '.join(p.name for p in outputs)} for {len(langs)} languages"


def _knn_config(cfg: PipelineConfig) -> KnnConfig:
    return KnnConfig(cfg.knn_k, cfg.geodesic_weight, cfg.genetic_weight)


def _baseline(cfg: PipelineConfig, wd: Workdir) -> StageResult:
    knn_config = _knn_config(cfg)
    registry = corpus.load_registry(wd.path("registry"))
    matrix = typology.load_features(wd.path("features"), registry)
    # a registry too small for the key is the config's fault; a feature matrix
    # that lacks rows of a large enough registry is the file's
    if len(registry) <= cfg.knn_k:
        raise ConfigError(f"knn_k must be less than the number of languages ({len(registry)}), got {cfg.knn_k}")
    if len(matrix.languages) <= cfg.knn_k:
        raise ValueError(f"{wd.path('features')}: {len(matrix.languages)} languages, knn_k={cfg.knn_k}")
    context = typology.DistanceContext(registry)
    # each language is ranked once; its vector and its rows of the table read the list
    neighbors = {lang: typology.nearest_neighbors(lang, matrix, registry, knn_config, context)
                 for lang in matrix.languages}
    knn = {lang: typology.knn_feature_vector(lang, matrix, registry, knn_config, context, ranked)
           for lang, ranked in neighbors.items()}
    outputs = [wd.path("knn_vectors.tsv"), wd.path("distances.tsv")]
    typology.write_knn_vectors(outputs[0], matrix, knn)
    typology.write_neighbors(outputs[1], neighbors, knn_config, context)
    return outputs, f"{cfg.knn_k}-NN vectors for {len(matrix.languages)} languages"


def _predict_inputs(cfg: PipelineConfig) -> list[str]:
    return ["registry", "features", "knn_vectors.tsv",
            *(f"vectors_{m}.tsv" for m in cfg.method_list)]


def _covering(path: Path, languages: list[str], by_lang: dict) -> dict:
    """``by_lang``, read from ``path``, once it is known to hold every language."""
    missing = [lang for lang in languages if lang not in by_lang]
    if missing:
        raise ValueError(f"{path}: no entry for language {missing[0]!r}")
    return by_lang


def _predict(cfg: PipelineConfig, wd: Workdir) -> StageResult:
    methods = ["None"] + cfg.method_list
    registry = corpus.load_registry(wd.path("registry"))
    matrix = typology.load_features(wd.path("features"), registry)
    if len(registry) < cfg.n_folds:  # as in _baseline: the key's fault, else the file's
        raise ConfigError(f"n_folds must be at most the number of languages ({len(registry)}), got {cfg.n_folds}")
    if len(matrix.languages) < cfg.n_folds:
        raise ValueError(f"{wd.path('features')}: {len(matrix.languages)} languages, n_folds={cfg.n_folds}")
    stores = {method: wd.path(f"vectors_{method}.tsv") for method in cfg.method_list}
    by_method = {method: _covering(path, matrix.languages, {v.lang: v for v in vectors.load_vectors(path, method)})
                 for method, path in stores.items()}
    knn = _covering(wd.path("knn_vectors.tsv"), matrix.languages,
                    typology.read_knn_vectors(wd.path("knn_vectors.tsv")))
    folds = predict.make_folds(matrix.languages, cfg.n_folds, cfg.seed)
    result = predict.evaluate(matrix, by_method, folds, methods, (False, True), knn, cfg.l2)
    outputs = [wd.path("report.tsv"), wd.path("feature_accuracy.tsv"),
               wd.path("predictions.tsv"), wd.path("predict_meta.txt")]
    report.write_report_tsv(outputs[0], result)
    report.write_feature_accuracy_tsv(outputs[1], result)
    report.write_predictions_tsv(outputs[2], result)
    write_kv(outputs[3], {
        "fold_digest": result.fold_digest,
        "n_folds": str(cfg.n_folds),
        "seed": str(cfg.seed),
        "excluded": ";".join(f"{f}({r})" for f, r in result.excluded),
    })
    return outputs, "\n".join([
        *(f"{method} -Aux " + " ".join(f"{c}={result.cells[(method, False)][c]:.2f}"
                                       for c in result.categories)
          for method in methods),
        f"{result.fits} logistic-regression fits, {result.unconverged} not converged",
    ])


def _report(cfg: PipelineConfig, wd: Workdir) -> StageResult:
    cells, methods, categories = report.read_report_tsv(wd.path("report.tsv"))
    tables = {"table_main.md": report.render_main_table(cells, methods, categories)}
    feature_acc = report.read_feature_accuracy_tsv(wd.path("feature_accuracy.tsv"))
    base, best = feature_acc.get(("None", False)), feature_acc.get(("MTBoth", False))
    if base is not None and best is not None:
        rows = {cat: report.top_gains(base, best, cat) for cat in categories}
        tables["table_gains.md"] = report.render_gains_table(rows)
    outputs = [wd.path(name) for name in tables]
    for path, text in zip(outputs, tables.values()):
        # each rendered line ends in "\n"
        corpus.write_records(path, ((line,) for line in text.removesuffix("\n").split("\n")))
    return outputs, f"wrote {', '.join(p.name for p in outputs)}"


def _condition(text: str, preds, path: Path) -> tuple[str, bool]:
    """The predictions key of a bootstrap condition such as ``MTBoth+Aux``."""
    key = text[:-4], text.endswith("+Aux")
    if key not in preds:
        raise ValueError(f"{path}: no predictions for condition {text}")
    return key


def _bootstrap_inputs(cfg: PipelineConfig) -> list[str]:
    for key in ("bootstrap_a", "bootstrap_b"):
        method = getattr(cfg, key)[:-4]
        if method not in ("None", *cfg.method_list):  # predict evaluates only the listed methods
            raise ConfigError(f"{key} names {method}, which is not in methods")
    return ["predictions.tsv"]


def _bootstrap(cfg: PipelineConfig, wd: Workdir) -> StageResult:
    path = wd.path("predictions.tsv")
    preds = report.read_predictions_tsv(path)
    key_a = _condition(cfg.bootstrap_a, preds, path)
    key_b = _condition(cfg.bootstrap_b, preds, path)
    rows = [(f"# paired bootstrap: {cfg.bootstrap_a} vs {cfg.bootstrap_b}",)]
    shared = sorted(set(preds[key_a]) & set(preds[key_b]))
    for category in (*CATEGORIES, "all"):
        instances = [k for k in shared if category == "all" or category_of(k[1]) == category]
        if not instances:
            continue
        a = [preds[key_a][k][0] for k in instances]
        b = [preds[key_b][k][0] for k in instances]
        gold = [preds[key_a][k][1] for k in instances]
        result = predict.paired_bootstrap(a, b, gold, cfg.bootstrap_n, cfg.seed)
        rows.append((category, f"n={len(instances)}", f"gain={result.observed_gain!r}",
                     f"p={result.p_value!r}", f"resamples={result.n_resamples}"))
    out = wd.path("bootstrap.txt")
    corpus.write_records(out, rows)
    return [out], f"{cfg.bootstrap_a} vs {cfg.bootstrap_b} -> {out.name}"


def _traj(cfg: PipelineConfig, wd: Workdir) -> StageResult:
    import numpy as np  # here, not at module level: the stages without array work load no numpy

    registry, encoded, vocab = _load_encoded(wd)
    langs = [l for l in cfg.traj_langs.split(",") if l] or sorted(encoded.by_lang)
    unknown = [lang for lang in langs if lang not in encoded.by_lang]
    if unknown:
        raise ConfigError(f"traj_langs names {unknown[0]!r}, which has no sentences in {wd.path('corpus')}")
    matrix = typology.load_features(wd.path("features"), registry)
    nmt = _load_trained(wd, "nmt")
    path = wd.path("vectors_MTCell.tsv")
    mtcell = _covering(path, matrix.languages, {v.lang: v for v in vectors.load_vectors(path, "MTCell")})
    feature = cfg.traj_feature
    if feature not in matrix.feature_names():
        raise ConfigError(f"traj_feature {feature!r} is not a column of {wd.path('features')}")
    rows, y = matrix.labeled(feature)
    if len(rows) < 2:
        raise ValueError(f"{wd.path('features')}: fewer than 2 languages label {feature}")
    X = np.stack([mtcell[matrix.languages[i]].values for i in rows])
    logreg = predict.train_logreg(predict.Scaler.fit(X).apply(X), y, l2=cfg.l2, feature=feature)
    node, rows = predict.export_trajectory(nmt, logreg, encoded, vocab, langs, cfg.traj_sentences or None)
    out = wd.path("trajectory.csv")
    predict.write_trajectory_csv(out, rows)
    fit = "converged" if logreg.converged else "not converged"
    return [out], f"feature {feature} (fit {fit}), node {node}, {len(rows)} rows -> {out.name}"


def _traj_inputs(cfg: PipelineConfig) -> list[str]:
    if "MTCell" not in cfg.method_list:
        raise ConfigError("the 'traj' stage reads the MTCell vectors; add MTCell to methods")
    return [*_ENCODED_INPUTS, "features", "nmt.ckpt", "nmt.model", "vectors_MTCell.tsv"]


@dataclass(frozen=True)
class Stage:
    body: Callable[[PipelineConfig, Workdir], StageResult]
    # artifact names (keys of PRODUCERS), or a function of the config giving them
    inputs: tuple[str, ...] | Callable[[PipelineConfig], list[str]] = ()
    # PipelineConfig field names recorded in the manifest
    params: tuple[str, ...] = ()


STAGES = {
    "synth": Stage(_synth, (), ("seed", "synth_langs", "synth_sentences", "synth_lexicon")),
    "ingest": Stage(_ingest, ("registry", "corpus", "features")),
    "bpe-learn": Stage(_bpe_learn, ("registry", "corpus"), ("num_merges",)),
    "train-lm": Stage(lambda cfg, wd: _train(cfg, wd, "lm"), _ENCODED_INPUTS, _TRAIN_PARAMS),
    "train-nmt": Stage(lambda cfg, wd: _train(cfg, wd, "nmt"), _ENCODED_INPUTS, _TRAIN_PARAMS),
    "extract": Stage(_extract, _extract_inputs, ("methods",)),
    "baseline": Stage(_baseline, ("registry", "features"),
                      ("knn_k", "geodesic_weight", "genetic_weight")),
    "predict": Stage(_predict, _predict_inputs, ("seed", "n_folds", "l2", "methods")),
    "report": Stage(_report, ("report.tsv", "feature_accuracy.tsv")),
    "bootstrap": Stage(_bootstrap, _bootstrap_inputs, ("bootstrap_n", "seed", "bootstrap_a", "bootstrap_b")),
    "traj": Stage(_traj, _traj_inputs, ("traj_feature", "seed", "traj_langs", "traj_sentences", "l2")),
}


def _params(stage: str, cfg: PipelineConfig) -> dict[str, str]:
    """The tool version and params that ``stage``'s manifest records under ``cfg``."""
    return {"tool_version": __version__, **{p: format_value(cfg, p) for p in STAGES[stage].params}}


def _require_fresh(name: str, entries: dict[str, str], wd: Workdir) -> None:
    """Stops stage ``name``, whose record would be ``entries``, unless it and
    every stage upstream of it that has a manifest ran under this config on
    the files their producers last wrote, and on each named input file as it
    is now; names the first stage, in ``STAGES`` order, that breaks the rule,
    as the one to rerun. Only the manifests of the stages the walk reaches are
    read, and an unreadable one stops the walk where it is met."""
    where = {artifact: (path := wd.path(artifact), wd.key(path)) for artifact in PRODUCERS}

    @cache
    def record(stage):
        return entries if stage == name else wd.recorded(stage)

    @cache
    def now(path, key):
        """A named file's hash as the stage about to run read it, else as it is now; None if it is missing."""
        return entries.get(f"in:{key}") or (_sha256(path) if path.is_file() else None)

    def reads(stage):
        """(path, stale, producer) for each input of ``stage`` that can be checked: one whose
        producer has a manifest, or a named file (producer None) that is there to hash."""
        for artifact, (path, key) in where.items():
            producer, digest = wd.producer(artifact), record(stage).get(f"in:{key}")
            if not digest:
                continue
            if producer is None:
                if now(path, key):
                    yield path, now(path, key) != digest, None
            elif record(producer):
                yield path, record(producer).get(f"out:{key}") != digest, producer

    # STAGES lists every stage after the producers of its inputs, so walking it
    # backwards reaches each stage of the walk after every stage that reads it
    walk = {name}
    for stage in (s for s in reversed(STAGES) if s in walk):
        walk.update(producer for *_, producer in reads(stage) if producer)
    for stage in (s for s in STAGES if s in walk):
        for key, value in _params(stage, wd.cfg).items():
            if record(stage).get(key) != value:
                raise StageInputError(f"'{stage}' ran with {key}={record(stage).get(key)}, "
                                      f"but the config has {key}={value}; rerun '{stage}'")
        for path, stale, producer in reads(stage):
            if stale:
                raise StageInputError(
                    f"{path} is not the file '{producer}' last wrote; rerun '{producer}'" if stage == name
                    else f"{path} has changed since '{stage}' read it; rerun '{stage}'")


def run_stage(name: str, cfg: PipelineConfig) -> None:
    stage = STAGES[name]
    # a config under which the stage has no inputs fails before the work dir is made
    inputs = stage.inputs(cfg) if callable(stage.inputs) else stage.inputs
    wd = Workdir(cfg)
    with _workdir_lock(wd.root):
        entries = _params(name, cfg)
        for artifact in inputs:
            path, producer = wd.path(artifact), wd.producer(artifact)
            if not path.exists():
                hint = f"; run the '{producer}' stage first" if producer else ""
                raise StageInputError(f"missing {path}{hint}")
            entries[f"in:{wd.key(path)}"] = _sha256(path)
        _require_fresh(name, entries, wd)
        write_effective_config(wd.path("effective_config.txt"), cfg)
        if wd.up_to_date(name, entries):
            print(f"{name}: up to date")
            return
        try:
            outputs, summary = stage.body(cfg, wd)
        except ValueError as exc:
            # a loader's error starts with "<path>:" (the path itself may hold a ":"); an
            # input file the config names has no producer to rerun
            producer = next((wd.producer(a) for a in inputs if str(exc).startswith(f"{wd.path(a)}:")), None)
            if producer is None:
                raise
            raise StageInputError(f"{exc}; rerun '{producer}'") from None
        wd.write_manifest(name, entries, outputs)
        for line in summary.splitlines():
            print(f"{name}: {line}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="typovec",
        description="Language-vector extraction and typological feature prediction pipeline",
    )
    parser.add_argument("--config", required=True, help="path to key=value config file")
    parser.add_argument("stage", nargs="?", choices=STAGES, metavar="stage",
                        help="one of: " + " | ".join(STAGES))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.stage is None:
        print("error: no stage given", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(args.config)
        # check the training and k-NN keys before any stage runs
        _train_config(cfg)
        _knn_config(cfg)
        run_stage(args.stage, cfg)
    except (ConfigError, corpus.CorpusError, StageInputError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001  (TrainingError and anything unexpected)
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
