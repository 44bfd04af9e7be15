import contextlib
import fcntl
import io
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import typovec
import typovec.bpe
from typovec.bpe import corpus_word_frequencies
from typovec.cli import main
from typovec.config import ConfigError, PipelineConfig, parse_config, write_effective_config
from typovec.corpus import load_registry
from typovec.typology import DistanceContext, KnnConfig, load_features, read_knn_vectors, write_features


def write_config(path, **overrides) -> None:
    entries = {
        "workdir": str(path.parent / "work"),
        "seed": 77,
        "synth_langs": 12,
        "synth_sentences": 12,
        "synth_lexicon": 12,
        "num_merges": 30,
        "hidden_size": 8,
        "embed_size": 8,
        "lr": 0.02,
        "dropout": 0.0,
        "epochs": 2,
        "batch_size": 8,
        "n_folds": 4,
        "bootstrap_n": 1000,
        "methods": "LMVec,MTVec,MTCell,MTBoth",
        "traj_sentences": 3,
    }
    entries.update(overrides)
    path.write_text("# test config\n" + "".join(f"{k}={v}\n" for k, v in entries.items()),
                    encoding="utf-8")


class TestConfig:
    def test_round_trip_with_defaults(self, tmp_path):
        path = tmp_path / "cfg.txt"
        write_config(path)
        cfg = parse_config(path)
        out = tmp_path / "effective.txt"
        write_effective_config(out, cfg)
        assert parse_config(out) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("workdir=w\nseed=1\nbogus=3\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config(path)

    def test_missing_seed_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("workdir=w\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="seed"):
            parse_config(path)

    def test_seed_override(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("workdir=w\nseed=1\n", encoding="utf-8")
        assert parse_config(path, seed_override=99).seed == 99

    def test_defaults_match_documented_values(self):
        cfg = PipelineConfig(workdir="w", seed=1)
        assert cfg.num_merges == 32000
        assert cfg.hidden_size == 512
        assert cfg.lr == 0.001
        assert cfg.dropout == 0.5
        assert cfg.knn_k == 3
        assert cfg.clip_norm == 5.0


STAGES = ("synth", "ingest", "bpe-learn", "train-lm", "train-nmt",
          "extract", "baseline", "predict", "report", "bootstrap", "traj")


# Every artifact some stage reads: its producer, and the consumer run on a corrupted copy.
CORRUPTIBLE = [
    ("registry.tsv", "synth", "ingest"),
    ("corpus.txt", "synth", "bpe-learn"),
    ("features.csv", "synth", "baseline"),
    ("merges.txt", "bpe-learn", "train-lm"),
    ("vocab.tsv", "bpe-learn", "train-lm"),
    ("lm.ckpt", "train-lm", "extract"),
    ("lm.model", "train-lm", "extract"),
    ("nmt.ckpt", "train-nmt", "traj"),
    ("nmt.model", "train-nmt", "extract"),
    *((f"vectors_{m}.tsv", "extract", "predict") for m in ("LMVec", "MTVec", "MTCell", "MTBoth")),
    ("knn_vectors.tsv", "baseline", "predict"),
    ("report.tsv", "predict", "report"),
    ("feature_accuracy.tsv", "predict", "report"),
    ("predictions.tsv", "predict", "bootstrap"),
]


def snapshot(work):
    return {p.name: p.read_bytes() for p in sorted(work.iterdir()) if p.is_file()}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the full stage chain once on a tiny synthetic suite."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg_path = root / "cfg.txt"
    write_config(cfg_path)
    for stage in STAGES:
        assert main(["--config", str(cfg_path), stage]) == 0, stage
    return root / "work", cfg_path


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        work, _ = pipeline
        for name in ("registry.tsv", "corpus.txt", "features.csv", "merges.txt", "vocab.tsv",
                     "lm.ckpt", "nmt.ckpt", "vectors_LMVec.tsv", "vectors_MTBoth.tsv",
                     "knn_vectors.tsv", "distances.tsv", "report.tsv", "predictions.tsv",
                     "table_main.md", "bootstrap.txt", "trajectory.csv",
                     "effective_config.txt"):
            assert (work / name).exists(), name

    @pytest.mark.parametrize("stage", STAGES)
    def test_rerun_is_noop(self, pipeline, capsys, stage):
        work, cfg_path = pipeline
        before = snapshot(work)
        capsys.readouterr()
        assert main(["--config", str(cfg_path), stage]) == 0
        assert capsys.readouterr().out == f"{stage}: up to date\n"
        assert snapshot(work) == before

    def test_knn_vectors_parse(self, pipeline):
        work, _ = pipeline
        knn = read_knn_vectors(work / "knn_vectors.tsv")
        assert len(knn) == 12
        assert all(v.shape == (3,) for v in knn.values())
        assert all(np.all((v >= 0) & (v <= 1)) for v in knn.values())

    def test_report_table_mentions_all_methods(self, pipeline):
        work, _ = pipeline
        table = (work / "table_main.md").read_text(encoding="utf-8")
        for method in ("None", "LMVec", "MTVec", "MTCell", "MTBoth"):
            assert f"| {method} |" in table

    @pytest.mark.parametrize("name, producer, consumer", [
        ("knn_vectors.tsv", "baseline", "predict"),
        ("report.tsv", "predict", "report"),
        ("feature_accuracy.tsv", "predict", "report"),
        ("vectors_MTVec.tsv", "extract", "predict"),
    ])
    def test_malformed_tsv_names_file_and_line(self, pipeline, tmp_path, capsys,
                                               name, producer, consumer):
        work, _ = pipeline
        copy = tmp_path / "work"
        shutil.copytree(work, copy)
        # without the producer's record of the file, the reader itself must reject it
        (copy / f"{producer}.manifest").unlink()
        lines = (copy / name).read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = lines[1].rstrip("\n").rsplit("\t", 1)[0] + "\tx\n"
        (copy / name).write_text("".join(lines), encoding="utf-8")
        cfg_path = tmp_path / "cfg.txt"
        write_config(cfg_path, workdir=str(copy))
        assert main(["--config", str(cfg_path), consumer]) == 1
        assert f"{copy / name}:2:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, key, value", [
        ("nmt", "hidden_size", None),
        ("nmt", "attention", "yes"),
        ("lm", "embed_size", "8.5"),
        pytest.param("nmt", "seed", ("77", "77"), id="nmt-seed-repeated"),
    ])
    def test_bad_model_manifest_exits_one(self, pipeline, tmp_path, capsys, kind, key, value):
        work, _ = pipeline
        copy = tmp_path / "work"
        shutil.copytree(work, copy)
        (copy / "extract.manifest").unlink()
        # without the producer's record of the file, the reader itself must reject it
        (copy / f"train_{kind}.manifest").unlink()
        manifest = copy / f"{kind}.model"
        lines = [line for line in manifest.read_text(encoding="utf-8").splitlines()
                 if not line.startswith(f"{key}=")]
        lines += [f"{key}={v}" for v in ((value,) if isinstance(value, str) else value or ())]
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg_path = tmp_path / "cfg.txt"
        write_config(cfg_path, workdir=str(copy))
        assert main(["--config", str(cfg_path), "extract"]) == 1
        err = capsys.readouterr().err
        assert str(manifest) in err and repr(key) in err
        assert f"rerun 'train-{kind}'" in err

    @pytest.mark.parametrize("stage", ["extract", "traj"])
    def test_model_manifest_is_a_declared_input(self, pipeline, tmp_path, capsys, stage):
        work, _ = pipeline
        copy = tmp_path / "work"
        shutil.copytree(work, copy)
        # manifests record absolute paths; rebased, they describe the copy
        for manifest in copy.glob("*.manifest"):
            text = manifest.read_text(encoding="utf-8")
            manifest.write_text(text.replace(str(work), str(copy)), encoding="utf-8")
        cfg_path = tmp_path / "cfg.txt"
        write_config(cfg_path, workdir=str(copy))
        model = copy / "nmt.model"
        assert main(["--config", str(cfg_path), stage]) == 0
        assert capsys.readouterr().out == f"{stage}: up to date\n"
        with open(model, "a", encoding="utf-8") as fh:
            fh.write("# edited\n")
        assert main(["--config", str(cfg_path), stage]) == 1
        err = capsys.readouterr().err
        assert f"{model} is not the file 'train-nmt' last wrote; rerun 'train-nmt'" in err
        model.unlink()
        assert main(["--config", str(cfg_path), stage]) == 1
        assert f"missing {model}; run the 'train-nmt' stage first" in capsys.readouterr().err

    def test_copied_work_dir_keeps_its_stale_input_checks(self, pipeline, tmp_path, capsys):
        work, _ = pipeline
        copy = tmp_path / "moved"
        shutil.copytree(work, copy)
        manifests = {p.name: p.read_bytes() for p in copy.glob("*.manifest")}
        cfg_path = tmp_path / "cfg.txt"
        write_config(cfg_path, workdir=str(copy))
        assert main(["--config", str(cfg_path), "train-lm"]) == 0
        assert capsys.readouterr().out == "train-lm: up to date\n"
        vocab = copy / "vocab.tsv"
        with open(vocab, "a", encoding="utf-8") as fh:
            fh.write("extra\t999\n")
        assert main(["--config", str(cfg_path), "train-lm"]) == 1
        assert (f"{vocab} is not the file 'bpe-learn' last wrote; rerun 'bpe-learn'"
                in capsys.readouterr().err)
        assert {p.name: p.read_bytes() for p in copy.glob("*.manifest")} == manifests

    @pytest.mark.parametrize("stage", ["predict", "traj"])
    def test_stale_upstream_stage_is_named(self, pipeline, tmp_path, capsys, stage):
        work, _ = pipeline
        copy = tmp_path / "work"
        shutil.copytree(work, copy)
        cfg_path = tmp_path / "cfg.txt"
        write_config(cfg_path, workdir=str(copy))
        # a new suite: every stage after synth last ran on the old one, and
        # the direct inputs of predict and traj match their producers' records
        assert main(["--config", str(cfg_path), "--seed", "78", "synth"]) == 0
        before = snapshot(copy)
        capsys.readouterr()
        assert main(["--config", str(cfg_path), "--seed", "78", stage]) == 1
        err = capsys.readouterr().err
        assert f"{copy / 'registry.tsv'} has changed since 'bpe-learn' read it; rerun 'bpe-learn'" in err
        assert snapshot(copy) == before

    def test_trajectory_has_header_and_rows(self, pipeline):
        work, _ = pipeline
        lines = (work / "trajectory.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "lang,sentence,step,value"
        assert len(lines) > 12

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_corrupt_input_names_file_and_producer(self, pipeline, data):
        name, producer, consumer = data.draw(st.sampled_from(CORRUPTIBLE))
        work, _ = pipeline
        blob = (work / name).read_bytes()
        offset = data.draw(st.integers(0, len(blob) - 1))
        byte = data.draw(st.sampled_from([b"", b"\xff", b"\x00"]))  # b"": truncate at offset
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp) / "work"
            shutil.copytree(work, copy)
            # without these records the stale-input check cannot catch the damage
            for stage in (producer, consumer):
                (copy / f"{stage.replace('-', '_')}.manifest").unlink()
            (copy / name).write_bytes(blob[:offset] + (byte + blob[offset + 1:] if byte else b""))
            cfg_path = Path(tmp) / "cfg.txt"
            write_config(cfg_path, workdir=str(copy))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["--config", str(cfg_path), consumer])
        assert code in (0, 1), err.getvalue()
        if code == 1:
            assert str(copy / name) in err.getvalue()
            assert f"rerun '{producer}'" in err.getvalue()


class TestCliErrors:
    def test_predict_before_extract_names_stage(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        write_config(cfg_path, workdir=str(tmp_path / "w2"))
        assert main(["--config", str(cfg_path), "synth"]) == 0
        assert main(["--config", str(cfg_path), "baseline"]) == 0
        code = main(["--config", str(cfg_path), "predict"])
        err = capsys.readouterr().err
        assert code == 1
        assert "extract" in err

    def test_missing_stage_argument(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        write_config(cfg_path)
        assert main(["--config", str(cfg_path)]) == 1

    def test_lock_blocks_concurrent_use(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        work = tmp_path / "w3"
        write_config(cfg_path, workdir=str(work))
        work.mkdir()
        with open(work / ".lock", "w") as held:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            assert main(["--config", str(cfg_path), "synth"]) == 1
        assert "locked" in capsys.readouterr().err

    def test_leftover_lock_file_does_not_block(self, tmp_path, capsys):
        # what a killed run leaves behind: the file, but no process holding the lock
        cfg_path = tmp_path / "cfg.txt"
        work = tmp_path / "w4"
        write_config(cfg_path, workdir=str(work))
        work.mkdir()
        (work / ".lock").write_text("12345", encoding="utf-8")
        assert main(["--config", str(cfg_path), "synth"]) == 0
        assert main(["--config", str(cfg_path), "synth"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "synth: up to date"

    def test_stale_input_names_producer(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        work = tmp_path / "w5"
        write_config(cfg_path, workdir=str(work))
        assert main(["--config", str(cfg_path), "synth"]) == 0
        assert main(["--config", str(cfg_path), "bpe-learn"]) == 0
        merges = work / "merges.txt"
        merges.write_text("".join(merges.read_text(encoding="utf-8").splitlines(keepends=True)[:20]),
                          encoding="utf-8")
        assert main(["--config", str(cfg_path), "train-nmt"]) == 1
        err = capsys.readouterr().err
        assert str(merges) in err and "rerun 'bpe-learn'" in err
        assert not (work / "nmt.ckpt").exists()
        # the rerun the message asks for sees the changed output and repairs it
        assert main(["--config", str(cfg_path), "bpe-learn"]) == 0
        assert len(merges.read_text(encoding="utf-8").splitlines()) == 30

    def test_input_outside_the_work_dir_keeps_its_configured_path(self, tmp_path):
        source = tmp_path / "source"
        write_config(tmp_path / "synth.cfg", workdir=str(source))
        assert main(["--config", str(tmp_path / "synth.cfg"), "synth"]) == 0
        cfg_path = tmp_path / "cfg.txt"
        write_config(cfg_path, workdir=str(tmp_path / "w6"), registry=str(source / "registry.tsv"),
                     corpus=str(source / "corpus.txt"))
        assert main(["--config", str(cfg_path), "bpe-learn"]) == 0
        keys = {line.split("=")[0] for line in
                (tmp_path / "w6" / "bpe_learn.manifest").read_text(encoding="utf-8").splitlines()}
        assert {f"in:{source / 'registry.tsv'}", f"in:{source / 'corpus.txt'}",
                "out:merges.txt", "out:vocab.tsv"} <= keys

    @pytest.mark.parametrize("line", ["nope=2", "lr=nan", "lr=inf", "lr=0", "clip_norm=-1",
                                      "clip_norm=nan", "clip_norm=inf", "l2=-1", "l2=nan", "l2=inf",
                                      "n_folds=0", "n_folds=1", "geodesic_weight=nan",
                                      "geodesic_weight=inf", "geodesic_weight=-1",
                                      "genetic_weight=nan", "knn_k=0", "bootstrap_n=0",
                                      "bootstrap_n=500", "traj_sentences=-1", "max_sentences=-1",
                                      "methods=MTVec,MTcell", "bootstrap_a=MTBoth",
                                      "bootstrap_b=MTCel+Aux", "bootstrap_a=None"])
    def test_bad_config_key_exits_one(self, tmp_path, capsys, line):
        # unchecked, a NaN or negative clip_norm turns clipping off without a word,
        # and a non-finite lr fails with exit 2 only after a wasted batch; a negative
        # l2 fits a non-convex objective, and one fold leaves no fold to train on;
        # a NaN distance weight makes every combined distance NaN, and a bad k-NN
        # key would otherwise fail only at the baseline stage; bootstrap_n=0 divides
        # by zero and too few resamples fail only after all of them are drawn, and a
        # negative sentence count silently drops sentences or means all of them; a
        # misspelt method or bootstrap condition would otherwise fail stages later
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(f"workdir={tmp_path / 'w'}\nseed=1\n{line}\n", encoding="utf-8")
        assert main(["--config", str(cfg_path), "synth"]) == 1
        assert line.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "w").exists()


def test_distances_list_the_neighbors_each_knn_vector_averages(tmp_path):
    source = tmp_path / "source"
    write_config(tmp_path / "synth.cfg", workdir=str(source), synth_langs=30)
    assert main(["--config", str(tmp_path / "synth.cfg"), "synth"]) == 0
    registry = load_registry(source / "registry.tsv")
    matrix = load_features(source / "features.csv", registry)
    # synth labels every cell; blank some so that neighbors lacking a label are skipped
    matrix.values[np.random.default_rng(3).random(matrix.values.shape) < 0.4] = np.nan
    write_features(tmp_path / "features.csv", matrix)
    cfg_path = tmp_path / "cfg.txt"
    write_config(cfg_path, workdir=str(tmp_path / "w"), registry=str(source / "registry.tsv"),
                 features=str(tmp_path / "features.csv"))
    assert main(["--config", str(cfg_path), "baseline"]) == 0
    context, config = DistanceContext(registry), KnnConfig()  # write_config's k-NN keys
    knn = read_knn_vectors(tmp_path / "w" / "knn_vectors.tsv")
    header, *lines = (tmp_path / "w" / "distances.tsv").read_text(encoding="utf-8").splitlines()
    assert header.split("\t") == ["lang", "rank", "neighbor", "geodesic", "genetic", "combined"]
    rows = [line.split("\t") for line in lines]
    assert [row[0] for row in rows] == [lang for lang in matrix.languages for _ in range(config.k)]
    skipped = 0
    for lang in matrix.languages:
        ranked = [row[1:] for row in rows if row[0] == lang]
        assert [int(rank) for rank, *_ in ranked] == list(range(1, config.k + 1))
        i, combined = context.index[lang], context.combined_row(lang, config)
        listed = [float(value) for *_, value in ranked]
        assert listed == sorted(listed)
        for _, neighbor, *distances in ranked:
            j = context.index[neighbor]
            np.testing.assert_array_equal(
                np.array([float(d) for d in distances]).view(np.int64),
                np.array([context.geo[i, j], context.gen[i, j], combined[j]]).view(np.int64))
        # no unlisted language is nearer than the last listed one
        neighbors = [neighbor for _, neighbor, *_ in ranked]
        last = (listed[-1], neighbors[-1])
        assert all((combined[context.index[other]], other) > last for other in matrix.languages
                   if other != lang and other not in neighbors)
        values = matrix.values[[matrix.languages.index(neighbor) for neighbor in neighbors]]
        labeled = ~np.isnan(values).all(axis=0)
        np.testing.assert_array_equal(knn[lang][labeled], np.nanmean(values[:, labeled], axis=0))
        skipped += int(np.isnan(values[:, labeled]).sum())
    assert skipped  # the NaN-skipping mean was exercised


def test_baseline_ranks_each_language_once(tmp_path, monkeypatch):
    calls = {"nearest_neighbors": [], "knn_feature_vector": []}

    def counting(name):
        original = getattr(typovec.typology, name)

        def wrapped(lang, *args):
            calls[name].append(lang)
            return original(lang, *args)
        return wrapped

    cfg_path = tmp_path / "cfg.txt"
    write_config(cfg_path, workdir=str(tmp_path / "w11"))
    assert main(["--config", str(cfg_path), "synth"]) == 0
    for name in calls:
        monkeypatch.setattr(typovec.typology, name, counting(name))
    assert main(["--config", str(cfg_path), "baseline"]) == 0
    languages = load_features(tmp_path / "w11" / "features.csv",
                              load_registry(tmp_path / "w11" / "registry.tsv")).languages
    assert calls == {"nearest_neighbors": languages, "knn_feature_vector": languages}


def test_unterminated_quote_in_features_names_the_file(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.txt"
    write_config(cfg_path, workdir=str(tmp_path / "w8"))
    assert main(["--config", str(cfg_path), "synth"]) == 0
    features = tmp_path / "w8" / "features.csv"
    lines = features.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = lines[1].replace(",", ',"', 1)
    # the stray quote runs the cell past the csv module's field size limit (131,072)
    features.write_text("".join(lines) + "x" * 140_000 + "\n", encoding="utf-8")
    # without synth's record of the file, the reader itself must reject it
    (tmp_path / "w8" / "synth.manifest").unlink()
    assert main(["--config", str(cfg_path), "ingest"]) == 1
    err = capsys.readouterr().err
    assert f"{features}:" in err and "rerun 'synth'" in err


def test_bpe_learn_counts_the_corpus_once(tmp_path, monkeypatch):
    calls = []

    def counting(corpus):
        calls.append(corpus)
        return corpus_word_frequencies(corpus)

    # the stage and the learner both look the function up on the bpe module
    monkeypatch.setattr(typovec.bpe, "corpus_word_frequencies", counting)
    cfg_path = tmp_path / "cfg.txt"
    write_config(cfg_path, workdir=str(tmp_path / "w7"))
    assert main(["--config", str(cfg_path), "synth"]) == 0
    assert main(["--config", str(cfg_path), "bpe-learn"]) == 0
    assert len(calls) == 1


def test_bpe_learn_streams_the_corpus_without_a_store(tmp_path, monkeypatch):
    def no_store(*_args):
        raise AssertionError("bpe-learn built a CorpusStore")

    cfg_path = tmp_path / "cfg.txt"
    write_config(cfg_path, workdir=str(tmp_path / "w9"))
    assert main(["--config", str(cfg_path), "synth"]) == 0
    monkeypatch.setattr(typovec.corpus, "load_parallel", no_store)
    assert main(["--config", str(cfg_path), "bpe-learn"]) == 0
    assert (tmp_path / "w9" / "merges.txt").exists()


def _replace_line_3(new):
    def edit(lines):
        lines[2] = new(lines[2].decode("utf-8")).encode("utf-8")
        return b"\n".join(lines) + b"\n"
    return edit


MALFORMED_CORPUS = [
    pytest.param(_replace_line_3(lambda line: line.replace("\t", " ", 1)),
                 ":3: missing tab after language code", id="missing-tab"),
    pytest.param(_replace_line_3(lambda line: "zzz" + line[line.index("\t"):]),
                 ":3: unknown language code 'zzz'", id="unknown-code"),
    pytest.param(_replace_line_3(lambda line: line.replace(" ||| ", " | ")),
                 ":3: expected exactly one ' ||| ' separator", id="no-separator"),
    pytest.param(_replace_line_3(lambda line: line + " ||| x"),
                 ":3: expected exactly one ' ||| ' separator", id="two-separators"),
    pytest.param(_replace_line_3(lambda line: line.partition("\t")[0] + "\t ||| x"),
                 ":3: empty source side", id="empty-source"),
    pytest.param(_replace_line_3(lambda line: line.partition(" ||| ")[0] + " ||| "),
                 ":3: empty target side", id="empty-target"),
    pytest.param(lambda lines: b"\n".join([*lines[:2], b"\xff" + lines[2], *lines[3:]]),
                 ":3: not UTF-8 text", id="not-utf8"),
    pytest.param(lambda lines: b"\n\n", ": no sentence pairs", id="no-pairs"),
]


@pytest.mark.parametrize("edit, where", MALFORMED_CORPUS)
def test_bpe_learn_names_the_malformed_corpus_line(tmp_path, capsys, edit, where):
    cfg_path = tmp_path / "cfg.txt"
    workdir = tmp_path / "w10"
    write_config(cfg_path, workdir=str(workdir))
    assert main(["--config", str(cfg_path), "synth"]) == 0
    corpus_path = workdir / "corpus.txt"
    corpus_path.write_bytes(edit(corpus_path.read_bytes().splitlines()))
    # without synth's record of the file, the reader itself must reject it
    (workdir / "synth.manifest").unlink()
    capsys.readouterr()
    assert main(["--config", str(cfg_path), "bpe-learn"]) == 1
    err = capsys.readouterr().err
    assert f"{corpus_path}{where}" in err and "rerun 'synth'" in err
    assert not (workdir / "merges.txt").exists()


ENCODING_STAGES = ("train-lm", "train-nmt", "extract", "traj")  # the stages that stream the encoded corpus


@pytest.mark.parametrize("stage", ENCODING_STAGES)
def test_encoding_stages_stream_the_corpus_without_a_store(pipeline, tmp_path, monkeypatch, stage):
    def no_store(*_args):
        raise AssertionError(f"{stage} built a CorpusStore")

    work, _ = pipeline
    copy = tmp_path / "work"
    shutil.copytree(work, copy)
    (copy / f"{stage.replace('-', '_')}.manifest").unlink()  # so that the stage runs again
    cfg_path = tmp_path / "cfg.txt"
    write_config(cfg_path, workdir=str(copy))
    monkeypatch.setattr(typovec.corpus, "load_parallel", no_store)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--config", str(cfg_path), stage]) == 0
    before = snapshot(work)
    # the stage rewrote its outputs and manifest bit for bit; only the effective config names the copy
    assert {name for name, data in snapshot(copy).items() if before[name] != data} == {"effective_config.txt"}


@pytest.mark.parametrize("stage", ENCODING_STAGES)
@pytest.mark.parametrize("edit, where", MALFORMED_CORPUS)
def test_encoding_stages_name_the_malformed_corpus_line(pipeline, tmp_path, capsys, stage, edit, where):
    work, _ = pipeline
    copy = tmp_path / "work"
    shutil.copytree(work, copy)
    corpus_path = copy / "corpus.txt"
    corpus_path.write_bytes(edit(corpus_path.read_bytes().splitlines()))
    (copy / "synth.manifest").unlink()  # without it the stale-input check cannot catch the damage
    cfg_path = tmp_path / "cfg.txt"
    write_config(cfg_path, workdir=str(copy))
    capsys.readouterr()
    assert main(["--config", str(cfg_path), stage]) == 1
    err = capsys.readouterr().err
    assert f"{corpus_path}{where}" in err and "rerun 'synth'" in err


def test_work_dir_path_with_a_colon_keeps_the_rerun_hint(tmp_path, capsys):
    # the producer is found by the "<path>:" prefix, not by cutting at the first ":"
    cfg_path = tmp_path / "cfg.txt"
    workdir = tmp_path / "a:b" / "w"
    write_config(cfg_path, workdir=str(workdir))
    assert main(["--config", str(cfg_path), "synth"]) == 0
    corpus_path = workdir / "corpus.txt"
    edit = _replace_line_3(lambda line: line.replace("\t", " ", 1))
    corpus_path.write_bytes(edit(corpus_path.read_bytes().splitlines()))
    (workdir / "synth.manifest").unlink()
    capsys.readouterr()
    assert main(["--config", str(cfg_path), "bpe-learn"]) == 1
    err = capsys.readouterr().err
    assert f"{corpus_path}:3: missing tab after language code; rerun 'synth'" in err


def test_cli_import_leaves_scipy_unloaded():
    # every stage runs in a fresh interpreter, so scipy's import time is paid per stage
    env = {**os.environ, "PYTHONPATH": str(Path(typovec.__file__).resolve().parents[1])}
    script = "import sys, typovec.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"
