"""Pipeline orchestration: stages write versioned artifacts into a work dir.

Every stage records a manifest with the tool version, its parameters, and
sha256 hashes of inputs and outputs. Rerunning a completed stage with
unchanged inputs is a no-op. A lock file guards the work dir against
concurrent pipeline instances.

Exit codes: 0 success, 1 validation error (bad inputs, missing upstream
artifacts), 2 runtime error.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bpe import build_vocab, encode_corpus, learn_bpe, load_merges, load_vocab, save_merges, save_vocab
from .config import ConfigError, PipelineConfig, parse_config, write_effective_config
from .corpus import CorpusError, load_parallel, load_registry, write_parallel, write_registry
from .models import TrainConfig, load_model, read_kv, save_model
from .predict import (
    export_trajectory,
    make_folds,
    paired_bootstrap,
    Scaler,
    select_trajectory_node,
    top_gains,
    train_logreg,
    evaluate,
    write_trajectory_csv,
)
from .report import (
    read_predictions_tsv,
    render_gains_table,
    render_main_table,
    write_feature_accuracy_tsv,
    write_predictions_tsv,
    write_report_tsv,
)
from .synth import generate_suite
from .training import train_lm, train_nmt
from .typology import DistanceContext, KnnConfig, knn_feature_vector, load_features, write_distance_dump, write_features
from .vectors import METHODS, combine_mtboth, extract_encoder_vectors, extract_lmvec, extract_mtvec, load_vectors, save_vectors

STAGES = ("ingest", "bpe-learn", "train-lm", "train-nmt", "extract",
          "baseline", "predict", "report", "bootstrap", "traj", "synth")


class StageInputError(ValueError):
    """An upstream artifact is missing; names the stage to run first."""


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise StageInputError(f"missing {path}; run the '{producer}' stage first")
    return path


class Workdir:
    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self.root = Path(cfg.workdir)
        self.root.mkdir(parents=True, exist_ok=True)

    def path(self, name: str) -> Path:
        return self.root / name

    def manifest_path(self, stage: str) -> Path:
        return self.root / f"{stage.replace('-', '_')}.manifest"

    def up_to_date(self, stage: str, params: dict[str, str], inputs: list[Path],
                   outputs: list[Path]) -> bool:
        mpath = self.manifest_path(stage)
        if not mpath.exists():
            return False
        try:
            stored = read_kv(mpath)
        except ValueError:
            return False
        current = {"tool_version": __version__, **params}
        for path in inputs:
            current[f"in:{path}"] = _sha256(path)
        for key, value in current.items():
            if stored.get(key) != value:
                return False
        for path in outputs:
            key = f"out:{path}"
            if key not in stored or not path.exists() or _sha256(path) != stored[key]:
                return False
        return True

    def write_manifest(self, stage: str, params: dict[str, str], inputs: list[Path],
                       outputs: list[Path]) -> None:
        entries = {"tool_version": __version__, **params}
        for path in inputs:
            entries[f"in:{path}"] = _sha256(path)
        for path in outputs:
            entries[f"out:{path}"] = _sha256(path)
        from .models import write_kv

        write_kv(self.manifest_path(stage), entries)


class WorkdirLock:
    def __init__(self, root: Path):
        self.path = root / ".lock"
        self.fd: int | None = None

    def __enter__(self):
        try:
            self.fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise StageInputError(
                f"work dir is locked by another pipeline instance ({self.path}); "
                "remove the lock file if that run is dead"
            ) from None
        os.write(self.fd, str(os.getpid()).encode())
        return self

    def __exit__(self, *exc):
        if self.fd is not None:
            os.close(self.fd)
            self.path.unlink(missing_ok=True)


def _load_inputs(cfg: PipelineConfig):
    registry = load_registry(_require(cfg.registry_path, "synth"))
    store = load_parallel(_require(cfg.corpus_path, "synth"), registry)
    return registry, store


def _train_config(cfg: PipelineConfig) -> TrainConfig:
    return TrainConfig(
        hidden_size=cfg.hidden_size,
        embed_size=cfg.embed_size or None,
        lr=cfg.lr,
        dropout=cfg.dropout,
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        seed=cfg.seed,
        clip_norm=cfg.clip_norm,
        attention=cfg.attention,
    )


def _train_params(cfg: PipelineConfig) -> dict[str, str]:
    return {
        "hidden_size": str(cfg.hidden_size),
        "embed_size": str(cfg.embed_size),
        "lr": repr(cfg.lr),
        "dropout": repr(cfg.dropout),
        "epochs": str(cfg.epochs),
        "batch_size": str(cfg.batch_size),
        "clip_norm": repr(cfg.clip_norm),
        "attention": str(int(cfg.attention)),
        "seed": str(cfg.seed),
    }


def run_synth(cfg: PipelineConfig, wd: Workdir) -> None:
    params = {
        "seed": str(cfg.seed),
        "synth_langs": str(cfg.synth_langs),
        "synth_sentences": str(cfg.synth_sentences),
        "synth_lexicon": str(cfg.synth_lexicon),
    }
    outputs = [cfg.registry_path, cfg.corpus_path, cfg.features_path]
    if wd.up_to_date("synth", params, [], outputs):
        print("synth: up to date")
        return
    suite = generate_suite(cfg.synth_langs, cfg.synth_sentences, cfg.seed, cfg.synth_lexicon)
    write_registry(cfg.registry_path, suite.registry)
    write_parallel(cfg.corpus_path, suite.corpus)
    write_features(cfg.features_path, suite.features)
    wd.write_manifest("synth", params, [], outputs)
    print(f"synth: wrote {cfg.synth_langs} languages x {cfg.synth_sentences} sentences")


def run_ingest(cfg: PipelineConfig, wd: Workdir) -> None:
    inputs = [_require(cfg.registry_path, "synth"), _require(cfg.corpus_path, "synth"),
              _require(cfg.features_path, "synth")]
    summary = wd.path("ingest_summary.txt")
    if wd.up_to_date("ingest", {}, inputs, [summary]):
        print("ingest: up to date")
        return
    registry, store = _load_inputs(cfg)
    matrix = load_features(cfg.features_path, registry)
    counts = matrix.category_counts()
    with open(summary, "w", encoding="utf-8") as fh:
        fh.write(f"languages={len(registry)}\n")
        fh.write(f"sentence_pairs={len(store)}\n")
        for lang in sorted(store.counts):
            fh.write(f"count:{lang}={store.counts[lang]}\n")
        for cat in ("syntax", "phonology", "inventory"):
            fh.write(f"features:{cat}={counts[cat]}\n")
    wd.write_manifest("ingest", {}, inputs, [summary])
    print(f"ingest: {len(registry)} languages, {len(store)} pairs, "
          f"{sum(counts.values())} features")


def run_bpe_learn(cfg: PipelineConfig, wd: Workdir) -> None:
    inputs = [_require(cfg.registry_path, "synth"), _require(cfg.corpus_path, "synth")]
    params = {"num_merges": str(cfg.num_merges)}
    outputs = [wd.path("merges.txt"), wd.path("vocab.tsv")]
    if wd.up_to_date("bpe-learn", params, inputs, outputs):
        print("bpe-learn: up to date")
        return
    registry, store = _load_inputs(cfg)
    merges = learn_bpe(store, cfg.num_merges)
    vocab = build_vocab(store, merges, registry)
    save_merges(outputs[0], merges)
    save_vocab(outputs[1], vocab)
    wd.write_manifest("bpe-learn", params, inputs, outputs)
    print(f"bpe-learn: {len(merges)} merges, vocab size {len(vocab)}")


def _load_encoded(cfg: PipelineConfig, wd: Workdir):
    registry, store = _load_inputs(cfg)
    merges = load_merges(_require(wd.path("merges.txt"), "bpe-learn"))
    vocab = load_vocab(_require(wd.path("vocab.tsv"), "bpe-learn"))
    return registry, encode_corpus(store, merges, vocab), vocab


def _run_train(cfg: PipelineConfig, wd: Workdir, kind: str) -> None:
    stage = f"train-{kind}"
    inputs = [
        _require(cfg.registry_path, "synth"),
        _require(cfg.corpus_path, "synth"),
        _require(wd.path("merges.txt"), "bpe-learn"),
        _require(wd.path("vocab.tsv"), "bpe-learn"),
    ]
    params = _train_params(cfg)
    ckpt = wd.path(f"{kind}.ckpt")
    manifest = wd.path(f"{kind}.model")
    if wd.up_to_date(stage, params, inputs, [ckpt, manifest]):
        print(f"{stage}: up to date")
        return
    _, encoded, vocab = _load_encoded(cfg, wd)
    trainer = train_nmt if kind == "nmt" else train_lm
    model, curve = trainer(encoded, vocab, _train_config(cfg))
    save_model(ckpt, manifest, model, _train_config(cfg), curve, _sha256(wd.path("vocab.tsv")))
    wd.write_manifest(stage, params, inputs, [ckpt, manifest])
    print(f"{stage}: {len(curve)} epochs, final loss/token {curve[-1]:.4f}")


def _load_trained(cfg: PipelineConfig, wd: Workdir, kind: str):
    ckpt = _require(wd.path(f"{kind}.ckpt"), f"train-{kind}")
    manifest_path = _require(wd.path(f"{kind}.model"), f"train-{kind}")
    model, manifest, _curve = load_model(ckpt, manifest_path)
    vocab_sha = _sha256(_require(wd.path("vocab.tsv"), "bpe-learn"))
    if manifest.get("vocab_sha256") != vocab_sha:
        raise StageInputError(
            f"{ckpt} was trained with a different vocabulary; rerun 'train-{kind}'"
        )
    return model


def run_extract(cfg: PipelineConfig, wd: Workdir) -> None:
    methods = cfg.method_list
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ConfigError(f"unknown methods in config: {unknown}")
    need_nmt = any(m.startswith("MT") for m in methods)
    inputs = [_require(cfg.corpus_path, "synth"),
              _require(wd.path("merges.txt"), "bpe-learn"),
              _require(wd.path("vocab.tsv"), "bpe-learn")]
    if need_nmt:
        inputs.append(_require(wd.path("nmt.ckpt"), "train-nmt"))
    if "LMVec" in methods:
        inputs.append(_require(wd.path("lm.ckpt"), "train-lm"))
    params = {
        "methods": ",".join(methods),
        "max_sentences": str(cfg.max_sentences),
        "mtcell_include_special": str(int(cfg.mtcell_include_special)),
        "mtcell_sentence_equal": str(int(cfg.mtcell_sentence_equal)),
        "seed": str(cfg.seed),
    }
    expected = [wd.path(f"vectors_{m}.tsv") for m in methods]
    if wd.up_to_date("extract", params, inputs, expected):
        print("extract: up to date")
        return
    registry, encoded, vocab = _load_encoded(cfg, wd)
    langs = sorted(encoded.by_lang)
    nmt = _load_trained(cfg, wd, "nmt") if need_nmt else None
    lm = _load_trained(cfg, wd, "lm") if "LMVec" in methods else None
    need_encoder = bool({"MTCell", "MTBoth", "MTCellFinal", "MTHiddenMean"} & set(methods))

    produced: dict[str, list] = {m: [] for m in methods}
    for lang in langs:
        found = {}
        if "LMVec" in methods:
            found["LMVec"] = extract_lmvec(lm, vocab, lang)
        if need_nmt:
            found["MTVec"] = extract_mtvec(nmt, vocab, lang)
        if need_encoder:
            found.update(extract_encoder_vectors(
                nmt, encoded, vocab, lang, cfg.max_sentences or None,
                include_special=cfg.mtcell_include_special,
                sentence_equal=cfg.mtcell_sentence_equal,
                seed=cfg.seed,
            ))
            found["MTBoth"] = combine_mtboth(found["MTVec"], found["MTCell"])
        for method in methods:
            produced[method].append(found[method])
    outputs = []
    for method in methods:
        out = wd.path(f"vectors_{method}.tsv")
        save_vectors(out, produced[method])
        outputs.append(out)
    wd.write_manifest("extract", params, inputs, outputs)
    print(f"extract: wrote {', '.join(p.name for p in outputs)} for {len(langs)} languages")


def write_knn_vectors(path, matrix, knn: dict[str, np.ndarray]) -> None:
    names = matrix.feature_names()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("lang\t" + "\t".join(names) + "\n")
        for lang in matrix.languages:
            fh.write(lang + "\t" + "\t".join(repr(float(x)) for x in knn[lang]) + "\n")


def read_knn_vectors(path) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        for raw in fh:
            line = raw.rstrip("\n")
            if not line:
                continue
            lang, *values = line.split("\t")
            out[lang] = np.array([float(v) for v in values])
    return out


def run_baseline(cfg: PipelineConfig, wd: Workdir) -> None:
    inputs = [_require(cfg.registry_path, "synth"), _require(cfg.features_path, "synth")]
    knn_config = KnnConfig(cfg.knn_k, cfg.geodesic_weight, cfg.genetic_weight)
    params = {
        "knn_k": str(cfg.knn_k),
        "geodesic_weight": repr(cfg.geodesic_weight),
        "genetic_weight": repr(cfg.genetic_weight),
    }
    outputs = [wd.path("knn_vectors.tsv"), wd.path("distances.tsv")]
    if wd.up_to_date("baseline", params, inputs, outputs):
        print("baseline: up to date")
        return
    registry = load_registry(cfg.registry_path)
    matrix = load_features(cfg.features_path, registry)
    context = DistanceContext(registry)
    knn = {
        lang: knn_feature_vector(lang, matrix, registry, knn_config, context)
        for lang in matrix.languages
    }
    write_knn_vectors(outputs[0], matrix, knn)
    write_distance_dump(outputs[1], registry, knn_config)
    wd.write_manifest("baseline", params, inputs, outputs)
    print(f"baseline: {cfg.knn_k}-NN vectors for {len(matrix.languages)} languages")


def run_predict(cfg: PipelineConfig, wd: Workdir) -> None:
    methods = ["None"] + cfg.method_list
    vector_paths = [_require(wd.path(f"vectors_{m}.tsv"), "extract") for m in cfg.method_list]
    inputs = [_require(cfg.registry_path, "synth"), _require(cfg.features_path, "synth"),
              _require(wd.path("knn_vectors.tsv"), "baseline"), *vector_paths]
    params = {"seed": str(cfg.seed), "n_folds": str(cfg.n_folds), "l2": repr(cfg.l2),
              "methods": ",".join(methods)}
    outputs = [wd.path("report.tsv"), wd.path("feature_accuracy.tsv"),
               wd.path("predictions.tsv"), wd.path("predict_meta.txt")]
    if wd.up_to_date("predict", params, inputs, outputs):
        print("predict: up to date")
        return
    registry = load_registry(cfg.registry_path)
    matrix = load_features(cfg.features_path, registry)
    vectors: dict[str, dict[str, object]] = {}
    for method, path in zip(cfg.method_list, vector_paths):
        vectors[method] = {v.lang: v for v in load_vectors(path)}
    knn = read_knn_vectors(wd.path("knn_vectors.tsv"))
    folds = make_folds(matrix.languages, cfg.n_folds, cfg.seed)
    report = evaluate(matrix, vectors, folds, methods, (False, True), knn, cfg.l2)
    write_report_tsv(wd.path("report.tsv"), report)
    write_feature_accuracy_tsv(wd.path("feature_accuracy.tsv"), report)
    write_predictions_tsv(wd.path("predictions.tsv"), report)
    from .models import write_kv

    write_kv(wd.path("predict_meta.txt"), {
        "fold_digest": report.fold_digest,
        "n_folds": str(cfg.n_folds),
        "seed": str(cfg.seed),
        "excluded": ";".join(f"{f}({r})" for f, r in report.excluded),
    })
    wd.write_manifest("predict", params, inputs, outputs)
    for method in methods:
        cells = report.cells[(method, False)]
        print(f"predict: {method} -Aux " +
              " ".join(f"{c}={cells[c]:.2f}" for c in report.categories))


def _read_report_tsv(path):
    cells: dict[tuple[str, bool], dict[str, float]] = {}
    methods: list[str] = []
    categories: list[str] = []
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        for raw in fh:
            line = raw.rstrip("\n")
            if not line:
                continue
            method, category, aux_s, acc = line.split("\t")
            if method not in methods:
                methods.append(method)
            if category not in categories:
                categories.append(category)
            cells.setdefault((method, aux_s == "+Aux"), {})[category] = float(acc)
    return cells, methods, categories


def _read_feature_accuracy(path):
    out: dict[tuple[str, bool], dict[str, float]] = {}
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        for raw in fh:
            line = raw.rstrip("\n")
            if not line:
                continue
            method, aux_s, feature, acc = line.split("\t")
            out.setdefault((method, aux_s == "+Aux"), {})[feature] = float(acc)
    return out


def run_report(cfg: PipelineConfig, wd: Workdir) -> None:
    inputs = [_require(wd.path("report.tsv"), "predict"),
              _require(wd.path("feature_accuracy.tsv"), "predict")]
    if wd.up_to_date("report", {}, inputs, [wd.path("table_main.md")]):
        print("report: up to date")
        return
    cells, methods, categories = _read_report_tsv(wd.path("report.tsv"))
    table = render_main_table(cells, methods, categories)
    with open(wd.path("table_main.md"), "w", encoding="utf-8") as fh:
        fh.write(table)
    outputs = [wd.path("table_main.md")]
    feature_acc = _read_feature_accuracy(wd.path("feature_accuracy.tsv"))
    base_key, best_key = ("None", False), ("MTBoth", False)
    if base_key in feature_acc and best_key in feature_acc:
        rows = {
            cat: top_gains(feature_acc[base_key], feature_acc[best_key], cat, 5)
            for cat in categories
        }
        gains = render_gains_table(rows)
        with open(wd.path("table_gains.md"), "w", encoding="utf-8") as fh:
            fh.write(gains)
        outputs.append(wd.path("table_gains.md"))
    wd.write_manifest("report", {}, inputs, outputs)
    print(f"report: wrote {', '.join(p.name for p in outputs)}")


def _parse_condition(text: str) -> tuple[str, bool]:
    if text.endswith("+Aux"):
        return text[: -len("+Aux")], True
    if text.endswith("-Aux"):
        return text[: -len("-Aux")], False
    raise ConfigError(f"bootstrap condition {text!r} must end in +Aux or -Aux")


def run_bootstrap(cfg: PipelineConfig, wd: Workdir) -> None:
    inputs = [_require(wd.path("predictions.tsv"), "predict")]
    params = {"n": str(cfg.bootstrap_n), "seed": str(cfg.seed),
              "a": cfg.bootstrap_a, "b": cfg.bootstrap_b}
    out = wd.path("bootstrap.txt")
    if wd.up_to_date("bootstrap", params, inputs, [out]):
        print("bootstrap: up to date")
        return
    preds = read_predictions_tsv(wd.path("predictions.tsv"))
    key_a = _parse_condition(cfg.bootstrap_a)
    key_b = _parse_condition(cfg.bootstrap_b)
    for key, name in ((key_a, cfg.bootstrap_a), (key_b, cfg.bootstrap_b)):
        if key not in preds:
            raise StageInputError(f"predictions for condition {name} not found; "
                                  "check 'methods' and rerun 'predict'")
    from .typology import category_of

    lines = []
    shared = sorted(set(preds[key_a]) & set(preds[key_b]))
    for category in ("syntax", "phonology", "inventory", "all"):
        instances = [k for k in shared if category == "all" or category_of(k[1]) == category]
        if not instances:
            continue
        a = np.array([preds[key_a][k][0] for k in instances])
        b = np.array([preds[key_b][k][0] for k in instances])
        gold = np.array([preds[key_a][k][1] for k in instances])
        result = paired_bootstrap(a, b, gold, cfg.bootstrap_n, cfg.seed)
        lines.append(f"{category}\tn={len(instances)}\tgain={result.observed_gain!r}\t"
                     f"p={result.p_value!r}\tresamples={result.n_resamples}")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(f"# paired bootstrap: {cfg.bootstrap_a} vs {cfg.bootstrap_b}\n")
        fh.write("\n".join(lines) + "\n")
    wd.write_manifest("bootstrap", params, inputs, [out])
    print(f"bootstrap: {cfg.bootstrap_a} vs {cfg.bootstrap_b} -> {out.name}")


def run_traj(cfg: PipelineConfig, wd: Workdir) -> None:
    inputs = [_require(cfg.features_path, "synth"),
              _require(wd.path("nmt.ckpt"), "train-nmt"),
              _require(wd.path("vectors_MTCell.tsv"), "extract")]
    out = wd.path("trajectory.csv")
    params = {"feature": cfg.traj_feature, "seed": str(cfg.seed),
              "langs": cfg.traj_langs, "sentences": str(cfg.traj_sentences),
              "l2": repr(cfg.l2)}
    if wd.up_to_date("traj", params, inputs, [out]):
        print("traj: up to date")
        return
    registry, encoded, vocab = _load_encoded(cfg, wd)
    matrix = load_features(cfg.features_path, registry)
    nmt = _load_trained(cfg, wd, "nmt")
    mtcell = {v.lang: v for v in load_vectors(wd.path("vectors_MTCell.tsv"))}
    feature = cfg.traj_feature
    if feature not in matrix.feature_names():
        raise ConfigError(f"traj_feature {feature!r} not in the feature matrix")
    labeled = [l for l in matrix.languages
               if l in mtcell and not np.isnan(matrix.value(l, feature))]
    if len(labeled) < 2:
        raise StageInputError(f"not enough labeled languages with MTCell vectors for {feature}")
    X = np.stack([mtcell[l].values for l in labeled])
    y = np.array([matrix.value(l, feature) for l in labeled])
    scaler = Scaler.fit(X)
    logreg = train_logreg(scaler.apply(X), y, l2=cfg.l2, feature=feature)
    node = select_trajectory_node(logreg, nmt.hidden_size)
    langs = [l for l in cfg.traj_langs.split(",") if l] or sorted(encoded.by_lang)
    _, rows = export_trajectory(nmt, logreg, encoded, vocab, langs,
                                cfg.traj_sentences or None, node)
    write_trajectory_csv(out, rows)
    wd.write_manifest("traj", params, inputs, [out])
    print(f"traj: feature {feature}, node {node}, {len(rows)} rows -> {out.name}")


_RUNNERS = {
    "synth": run_synth,
    "ingest": run_ingest,
    "bpe-learn": run_bpe_learn,
    "train-lm": lambda cfg, wd: _run_train(cfg, wd, "lm"),
    "train-nmt": lambda cfg, wd: _run_train(cfg, wd, "nmt"),
    "extract": run_extract,
    "baseline": run_baseline,
    "predict": run_predict,
    "report": run_report,
    "bootstrap": run_bootstrap,
    "traj": run_traj,
}


def run_stage(stage: str, cfg: PipelineConfig) -> None:
    wd = Workdir(cfg)
    with WorkdirLock(wd.root):
        write_effective_config(wd.path("effective_config.txt"), cfg)
        _RUNNERS[stage](cfg, wd)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="typovec",
        description="Language-vector extraction and typological feature prediction pipeline",
    )
    parser.add_argument("--config", required=True, help="path to key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--stage", choices=STAGES, default=None,
                        help="stage to run (alternative to the positional subcommand)")
    parser.add_argument("stage_name", nargs="?", choices=STAGES, metavar="stage",
                        help="one of: " + " | ".join(STAGES))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    stage = args.stage_name or args.stage
    if stage is None:
        print("error: no stage given (positional or --stage)", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(args.config, seed_override=args.seed)
        run_stage(stage, cfg)
    except (ConfigError, CorpusError, StageInputError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001  (TrainingError and anything unexpected)
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
