import contextlib
import fcntl
import io
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import typovec
import typovec.bpe
from typovec import cli
from typovec.bpe import corpus_word_frequencies
from typovec.cli import main
from typovec.config import METHODS, ConfigError, PipelineConfig, parse_config, write_effective_config
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

    def test_traj_encodes_only_the_sentences_it_reads(self, pipeline, tmp_path, monkeypatch):
        work, _ = pipeline
        copy = tmp_path / "work"
        shutil.copytree(work, copy)
        (copy / "traj.manifest").unlink()
        (copy / "trajectory.csv").unlink()
        encoded = Counter()
        encode_corpus = typovec.bpe.encode_corpus

        def counting(pairs, merges, vocab):
            pairs = list(pairs)
            encoded.update(pair.lang for pair in pairs)
            return encode_corpus(pairs, merges, vocab)

        monkeypatch.setattr(typovec.bpe, "encode_corpus", counting)
        cfg_path = tmp_path / "cfg.txt"
        write_config(cfg_path, workdir=str(copy))
        assert main(["--config", str(cfg_path), "traj"]) == 0
        # traj_sentences=3 of each language's 12 pairs, and the same series as a run that encoded all
        assert encoded == dict.fromkeys(load_registry(copy / "registry.tsv").codes, 3)
        assert (copy / "trajectory.csv").read_bytes() == (work / "trajectory.csv").read_bytes()

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

    @pytest.mark.parametrize("consumer", ["predict", "traj"])
    @pytest.mark.parametrize("labels", [("MTVec", "MTVec"), ("MTCell", "MTVec")], ids=["mislabeled", "mixed"])
    def test_store_row_of_another_method_names_file_and_line(self, pipeline, tmp_path, capsys,
                                                             consumer, labels):
        # a row would otherwise be read, and reported, as the method its store is named for
        work, _ = pipeline
        copy = tmp_path / "work"
        shutil.copytree(work, copy)
        (copy / "extract.manifest").unlink()
        store = copy / "vectors_MTCell.tsv"
        header, *rows = store.read_text(encoding="utf-8").splitlines(keepends=True)
        rows[:2] = [row.replace("\tMTCell\t", f"\t{label}\t", 1) for row, label in zip(rows, labels)]
        store.write_text("".join([header, *rows]), encoding="utf-8")
        cfg_path = tmp_path / "cfg.txt"
        write_config(cfg_path, workdir=str(copy))
        assert main(["--config", str(cfg_path), consumer]) == 1
        line = 2 if labels[0] != "MTCell" else 3
        err = capsys.readouterr().err
        assert f"{store}:{line}: a 'MTVec' row in the 'MTCell' store" in err
        assert "rerun 'extract'" in err

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
        write_config(cfg_path, workdir=str(copy), seed=78)
        # a new suite: every stage after synth last ran on the old one, and
        # the direct inputs of predict and traj match their producers' records
        assert main(["--config", str(cfg_path), "synth"]) == 0
        before = snapshot(copy)
        capsys.readouterr()
        assert main(["--config", str(cfg_path), stage]) == 1
        err = capsys.readouterr().err
        assert f"{copy / 'registry.tsv'} has changed since 'bpe-learn' read it; rerun 'bpe-learn'" in err
        assert snapshot(copy) == before

    @pytest.mark.parametrize("override, stages, producer, message", [
        # the tables and the bootstrap would come from predictions fitted under the old l2
        ({"l2": 0.01}, ("bootstrap", "report"), "predict", "ran with l2=1.0, but the config has l2=0.01"),
        # the model would train on the merges learned under the old num_merges
        ({"num_merges": 31}, ("train-nmt",), "bpe-learn",
         "ran with num_merges=30, but the config has num_merges=31"),
    ], ids=["l2", "num_merges"])
    def test_upstream_stage_run_under_other_params_is_named(self, pipeline, tmp_path, capsys, override,
                                                            stages, producer, message):
        work, _ = pipeline
        copy = tmp_path / "work"
        shutil.copytree(work, copy)
        cfg_path = tmp_path / "cfg.txt"
        write_config(cfg_path, workdir=str(copy), **override)
        before = snapshot(copy)
        capsys.readouterr()
        for stage in stages:
            assert main(["--config", str(cfg_path), stage]) == 1, stage
            assert f"'{producer}' {message}; rerun '{producer}'" in capsys.readouterr().err
        assert snapshot(copy) == before

    def test_trajectory_has_header_and_rows(self, pipeline):
        work, _ = pipeline
        lines = (work / "trajectory.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "lang,sentence,step,value"
        assert len(lines) > 12

    @pytest.mark.parametrize("override, message", [
        # extract writes only the listed methods' vectors, so no rerun of it helps
        ({"methods": "MTVec"}, "the 'traj' stage reads the MTCell vectors; add MTCell to methods"),
        ({"traj_langs": "s01,zz"}, "traj_langs names 'zz', which has no sentences in"),
    ], ids=["methods", "traj_langs"])
    def test_traj_config_error_names_the_key(self, pipeline, tmp_path, capsys, override, message):
        work, _ = pipeline
        copy = tmp_path / "work"
        shutil.copytree(work, copy)
        cfg_path = tmp_path / "cfg.txt"
        write_config(cfg_path, workdir=str(copy), **override)
        before = snapshot(copy)
        assert main(["--config", str(cfg_path), "traj"]) == 1
        assert message in capsys.readouterr().err
        after = snapshot(copy)
        del before["effective_config.txt"], after["effective_config.txt"]
        assert after == before

    @pytest.mark.parametrize("stage, override, message", [
        ("baseline", {"knn_k": 12}, "knn_k must be less than the number of languages (12), got 12"),
        ("predict", {"n_folds": 13}, "n_folds must be at most the number of languages (12), got 13"),
        # predict evaluates only the listed methods; bootstrap_b is MTBoth+Aux by default
        ("bootstrap", {"methods": "MTVec"}, "bootstrap_b names MTBoth, which is not in methods"),
    ], ids=["knn_k", "n_folds", "bootstrap_b"])
    def test_key_the_suite_cannot_satisfy_names_the_key(self, pipeline, tmp_path, capsys, stage, override,
                                                        message):
        # rerunning a producer cannot help, so the error names the key and no stage to rerun
        work, _ = pipeline
        copy = tmp_path / "work"
        shutil.copytree(work, copy)
        cfg_path = tmp_path / "cfg.txt"
        write_config(cfg_path, workdir=str(copy), **override)
        before = snapshot(copy)
        assert main(["--config", str(cfg_path), stage]) == 1
        err = capsys.readouterr().err
        assert message in err and "rerun" not in err
        after = snapshot(copy)
        del before["effective_config.txt"], after["effective_config.txt"]
        assert after == before

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

    def test_store_left_by_an_earlier_extract_is_stale(self, tmp_path, capsys):
        # extract with fewer methods leaves the stores it no longer writes in place,
        # and its manifest no longer lists them
        cfg_path = tmp_path / "cfg.txt"
        work = tmp_path / "w7"
        sizes = {"workdir": str(work), "synth_langs": 10, "synth_sentences": 8}
        write_config(cfg_path, **sizes, methods="MTVec,MTCell")
        for stage in ("synth", "bpe-learn", "train-nmt", "extract", "baseline"):
            assert main(["--config", str(cfg_path), stage]) == 0, stage
        # a new model, so that every store on disk is older than it; epochs is a
        # key that only the train stages record
        sizes["epochs"] = 3
        write_config(cfg_path, **sizes, methods="MTVec,MTCell")
        assert main(["--config", str(cfg_path), "train-nmt"]) == 0
        write_config(cfg_path, **sizes, methods="MTVec")
        assert main(["--config", str(cfg_path), "extract"]) == 0
        write_config(cfg_path, **sizes, methods="MTVec,MTCell")
        capsys.readouterr()
        assert main(["--config", str(cfg_path), "predict"]) == 1
        err = capsys.readouterr().err
        assert ("'extract' ran with methods=MTVec, but the config has methods=MTVec,MTCell; "
                "rerun 'extract'") in err
        assert not (work / "report.tsv").exists()

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

    def test_external_inputs_are_not_blamed_on_an_earlier_synth(self, tmp_path, capsys):
        # the registry and corpus the config names have no producer, so the work
        # dir's synth, run at another seed, is not named for them
        work, source = tmp_path / "w12", tmp_path / "source"
        write_config(tmp_path / "old.cfg", workdir=str(work))
        assert main(["--config", str(tmp_path / "old.cfg"), "synth"]) == 0
        write_config(tmp_path / "source.cfg", workdir=str(source), seed=5)
        assert main(["--config", str(tmp_path / "source.cfg"), "synth"]) == 0
        cfg_path = tmp_path / "cfg.txt"
        write_config(cfg_path, workdir=str(work), seed=5, registry=str(source / "registry.tsv"),
                     corpus=str(source / "corpus.txt"))
        capsys.readouterr()
        assert main(["--config", str(cfg_path), "bpe-learn"]) == 0, capsys.readouterr().err
        assert (work / "merges.txt").exists()

    def test_synth_leaves_the_input_files_the_config_names_alone(self, tmp_path, capsys):
        work, source = tmp_path / "w14", tmp_path / "source"
        write_config(tmp_path / "old.cfg", workdir=str(work))
        assert main(["--config", str(tmp_path / "old.cfg"), "synth"]) == 0
        # named files that differ from what synth writes under the config below
        write_config(tmp_path / "source.cfg", workdir=str(source), seed=5, synth_sentences=10)
        assert main(["--config", str(tmp_path / "source.cfg"), "synth"]) == 0
        named = [source / "registry.tsv", source / "corpus.txt"]
        with open(named[0], "a", encoding="utf-8") as fh:
            fh.write("# curated by hand\n")
        before = [path.read_bytes() for path in named]
        cfg_path = tmp_path / "cfg.txt"
        write_config(cfg_path, workdir=str(work), seed=5, registry=str(named[0]), corpus=str(named[1]))
        capsys.readouterr()
        # the work dir's features.csv is synth's, written at seed 77
        assert main(["--config", str(cfg_path), "ingest"]) == 1
        assert "rerun 'synth'" in capsys.readouterr().err
        assert main(["--config", str(cfg_path), "synth"]) == 0
        assert [path.read_bytes() for path in named] == before
        manifest = (work / "synth.manifest").read_text(encoding="utf-8")
        outputs = {line.split("=")[0] for line in manifest.splitlines() if line.startswith("out:")}
        assert outputs == {"out:registry.tsv", "out:corpus.txt", "out:features.csv"}
        assert main(["--config", str(cfg_path), "ingest"]) == 0, capsys.readouterr().err

    def test_synth_refuses_a_named_input_that_it_writes(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        work = tmp_path / "w17"
        write_config(cfg_path, workdir=str(work))
        assert main(["--config", str(cfg_path), "synth"]) == 0
        registry = work / "registry.tsv"
        with open(registry, "a", encoding="utf-8") as fh:
            fh.write("# curated by hand\n")
        before = registry.read_bytes()
        write_config(cfg_path, workdir=str(work), registry=str(registry))
        assert main(["--config", str(cfg_path), "ingest"]) == 0
        capsys.readouterr()
        assert main(["--config", str(cfg_path), "synth"]) == 1
        assert capsys.readouterr().err == (
            f"error: registry names {registry}, a file that synth writes; name another file\n")
        assert registry.read_bytes() == before

    def test_missing_named_input_names_no_stage(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        registry = tmp_path / "elsewhere" / "registry.tsv"
        write_config(cfg_path, workdir=str(tmp_path / "w15"), registry=str(registry))
        capsys.readouterr()
        assert main(["--config", str(cfg_path), "ingest"]) == 1
        assert capsys.readouterr().err == f"error: missing {registry}\n"

    def test_malformed_named_input_in_the_work_dir_names_no_stage(self, tmp_path, capsys):
        # the file is the user's, not synth's: a synth rerun would not touch it
        cfg_path = tmp_path / "cfg.txt"
        work = tmp_path / "w16"
        write_config(cfg_path, workdir=str(work))
        assert main(["--config", str(cfg_path), "synth"]) == 0
        features = work / "my_features.csv"
        lines = (work / "features.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        lang, _, rest = lines[2].partition(",")
        lines[2] = f"{lang},7,{rest.partition(',')[2]}"
        features.write_text("".join(lines), encoding="utf-8")
        write_config(cfg_path, workdir=str(work), features=str(features))
        capsys.readouterr()
        assert main(["--config", str(cfg_path), "ingest"]) == 1
        err = capsys.readouterr().err
        assert f"{features}:3:" in err and "rerun" not in err

    @pytest.mark.parametrize("line", ["nope=2", "lr=nan", "lr=inf", "lr=0", "clip_norm=-1",
                                      "clip_norm=nan", "clip_norm=inf", "l2=-1", "l2=nan", "l2=inf",
                                      "n_folds=0", "n_folds=1", "geodesic_weight=nan",
                                      "geodesic_weight=inf", "geodesic_weight=-1",
                                      "genetic_weight=nan", "knn_k=0", "bootstrap_n=0",
                                      "bootstrap_n=500", "traj_sentences=-1", "max_sentences=-1",
                                      "methods=MTVec,MTcell", "bootstrap_a=MTBoth",
                                      "bootstrap_b=MTCel+Aux", "bootstrap_a=None", "methods=",
                                      "num_merges=0", "synth_langs=3", "synth_sentences=0",
                                      "synth_lexicon=5", "methods=MTVec,MTVec",
                                      "methods=MTVec,MTCell,MTVec", "traj_langs=aaa,aaa"])
    def test_bad_config_key_exits_one(self, tmp_path, capsys, line):
        # unchecked, a NaN or negative clip_norm turns clipping off without a word,
        # and a non-finite lr fails with exit 2 only after a wasted batch; a negative
        # l2 fits a non-convex objective, and one fold leaves no fold to train on;
        # a NaN distance weight makes every combined distance NaN, and a bad k-NN
        # key would otherwise fail only at the baseline stage; bootstrap_n=0 divides
        # by zero and too few resamples fail only after all of them are drawn, and a
        # negative sentence count silently drops sentences or means all of them; a
        # misspelt method or bootstrap condition would otherwise fail stages later, and
        # with no method extract writes nothing and is never up to date; no merges
        # would fail only at bpe-learn, and a too-small suite fails inside synth
        # without naming its key; a config written earlier may still set max_sentences,
        # which is no key now; a method named twice fits and reports it twice, and a
        # trajectory language named twice writes its rows twice
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


@pytest.mark.parametrize("cut, message", [
    (lambda lines: lines[:1], "no language rows"),
    (lambda lines: [line.split(",")[0] + "\n" for line in lines], "no feature columns"),
], ids=["header-only", "lang-column-only"])
def test_empty_feature_matrix_names_the_file(tmp_path, capsys, cut, message):
    cfg_path = tmp_path / "cfg.txt"
    write_config(cfg_path, workdir=str(tmp_path / "w13"))
    assert main(["--config", str(cfg_path), "synth"]) == 0
    features = tmp_path / "w13" / "features.csv"
    features.write_text("".join(cut(features.read_text(encoding="utf-8").splitlines(keepends=True))),
                        encoding="utf-8")
    # without synth's record of the file, the reader itself must reject it
    (tmp_path / "w13" / "synth.manifest").unlink()
    capsys.readouterr()
    assert main(["--config", str(cfg_path), "ingest"]) == 1
    assert f"{features}: {message}; rerun 'synth'" in capsys.readouterr().err


def test_every_stage_follows_the_producers_of_its_inputs(tmp_path):
    # the freshness walk visits the stages in STAGES order, and so relies on this one
    cfg = PipelineConfig(workdir=str(tmp_path), seed=1, methods=",".join(METHODS))
    order = list(cli.STAGES)
    for name, stage in cli.STAGES.items():
        inputs = stage.inputs(cfg) if callable(stage.inputs) else stage.inputs
        early = [artifact for artifact in inputs if order.index(cli.PRODUCERS[artifact]) >= order.index(name)]
        assert not early, (name, early)


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


@pytest.mark.parametrize("stage", [*ENCODING_STAGES, "ingest"])
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


def _run(cfg_path, stage) -> int:
    return main(["--config", str(cfg_path), stage])


def test_unreadable_upstream_manifest_names_its_stage(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.txt"
    work = tmp_path / "work"
    write_config(cfg_path, synth_langs=8, synth_sentences=20, num_merges=20, epochs=1)
    for stage in ("synth", "ingest", "bpe-learn", "train-nmt"):
        assert _run(cfg_path, stage) == 0, stage
    merges = work / "merges.txt"
    lines = merges.read_text(encoding="utf-8").splitlines(keepends=True)
    merges.write_text("".join([lines[1], lines[0], *lines[2:]]), encoding="utf-8")
    capsys.readouterr()
    assert _run(cfg_path, "train-nmt") == 1
    assert f"{merges} is not the file 'bpe-learn' last wrote; rerun 'bpe-learn'" in capsys.readouterr().err
    # a manifest that cannot be read stops the stage as well: it does not switch the check off
    manifest = work / "bpe_learn.manifest"
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.write("torn\n")
    nmt = (work / "nmt.ckpt").read_bytes()
    assert _run(cfg_path, "train-nmt") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}:") and err.endswith("; rerun 'bpe-learn'\n"), err
    assert (work / "nmt.ckpt").read_bytes() == nmt
    # the stage's own unreadable manifest: it runs again, and writes a whole one
    assert _run(cfg_path, "bpe-learn") == 0
    assert _run(cfg_path, "train-nmt") == 0
    assert capsys.readouterr().out.splitlines()[-1] == "train-nmt: up to date"
    # a manifest that the walk does not reach is not read, and a missing one is skipped
    (work / "predict.manifest").write_text("torn\n", encoding="utf-8")
    manifest.unlink()
    assert _run(cfg_path, "train-nmt") == 0
    assert capsys.readouterr().out == "train-nmt: up to date\n"


def test_named_input_changed_since_an_upstream_stage_read_it(tmp_path, capsys):
    source, work = tmp_path / "source", tmp_path / "work"
    write_config(tmp_path / "source.cfg", workdir=str(source), synth_langs=8, synth_sentences=20)
    assert _run(tmp_path / "source.cfg", "synth") == 0
    corpus_path = source / "corpus.txt"
    cfg_path = tmp_path / "cfg.txt"
    write_config(cfg_path, workdir=str(work), synth_langs=8, synth_sentences=20, num_merges=20, epochs=1,
                 corpus=str(corpus_path))
    for stage in ("synth", "bpe-learn", "train-nmt"):
        assert _run(cfg_path, stage) == 0, stage
    with open(corpus_path, "a", encoding="utf-8") as fh:
        fh.writelines(f"s0{i % 8}\tnewword{i} zarbu{i} ||| en_n0 en_v0\n" for i in range(30))
    before = snapshot(work)
    capsys.readouterr()
    assert _run(cfg_path, "train-nmt") == 1
    assert capsys.readouterr().err == (
        f"error: {corpus_path} has changed since 'bpe-learn' read it; rerun 'bpe-learn'\n")
    assert snapshot(work) == before
    assert _run(cfg_path, "bpe-learn") == 0
    assert _run(cfg_path, "train-nmt") == 0
    assert "up to date" not in capsys.readouterr().out


def test_upstream_stage_that_read_another_named_file_is_named(tmp_path, capsys):
    # bpe-learn's manifest lists a.txt and not b.txt: train-nmt would train on a.txt's merges
    write_config(tmp_path / "source.cfg", workdir=str(tmp_path / "source"), synth_langs=8, synth_sentences=20)
    assert _run(tmp_path / "source.cfg", "synth") == 0
    a_path, b_path = tmp_path / "a.txt", tmp_path / "b.txt"
    shutil.copyfile(tmp_path / "source" / "corpus.txt", a_path)
    b_path.write_bytes(a_path.read_bytes() + "s00\tzarbunik ||| en_n0 en_v0\n".encode("utf-8"))
    cfg_path, work = tmp_path / "cfg.txt", tmp_path / "work"
    sizes = {"workdir": str(work), "synth_langs": 8, "synth_sentences": 20, "num_merges": 20, "epochs": 1}
    write_config(cfg_path, **sizes, corpus=str(a_path))
    for stage in ("synth", "bpe-learn", "train-nmt"):
        assert _run(cfg_path, stage) == 0, stage
    write_config(cfg_path, **sizes, corpus=str(b_path))
    before = snapshot(work)
    capsys.readouterr()
    assert _run(cfg_path, "train-nmt") == 1
    assert capsys.readouterr().err == f"error: 'bpe-learn' did not read {b_path}; rerun 'bpe-learn'\n"
    assert snapshot(work) == before
    assert _run(cfg_path, "bpe-learn") == 0
    assert _run(cfg_path, "train-nmt") == 0
    assert "up to date" not in capsys.readouterr().out


@pytest.mark.parametrize("stage", ["predict", "traj"])
def test_feature_language_without_sentences_asks_for_no_rerun(tmp_path, capsys, stage):
    # ingest, which refuses such a language, did not run; extract wrote no vector for
    # it, and an extract rerun would write none again
    cfg_path, work = tmp_path / "cfg.txt", tmp_path / "work"
    sizes = {"workdir": str(work), "synth_langs": 8, "synth_sentences": 10, "num_merges": 20, "epochs": 1,
             "methods": "MTVec,MTCell"}
    write_config(cfg_path, **sizes)
    assert _run(cfg_path, "synth") == 0
    corpus_path = tmp_path / "corpus.txt"
    lines = (work / "corpus.txt").read_text(encoding="utf-8").splitlines(keepends=True)
    corpus_path.write_text("".join(line for line in lines if not line.startswith("s07\t")), encoding="utf-8")
    write_config(cfg_path, **sizes, corpus=str(corpus_path))
    for name in ("bpe-learn", "train-nmt", "extract", "baseline"):
        assert _run(cfg_path, name) == 0, name
    capsys.readouterr()
    assert _run(cfg_path, stage) == 1
    assert capsys.readouterr().err == (
        f"error: {work / 'features.csv'} lists language 's07', which has no sentence pair in {corpus_path}\n")
    assert _run(cfg_path, "extract") == 0
    assert capsys.readouterr().out == "extract: up to date\n"


def test_ingest_refuses_a_feature_language_without_sentences(tmp_path, capsys):
    # extract would write no vector for it, and predict would ask for an extract rerun that changes nothing
    cfg_path = tmp_path / "cfg.txt"
    work = tmp_path / "work"
    write_config(cfg_path, workdir=str(work), synth_langs=8)
    assert _run(cfg_path, "synth") == 0
    corpus_path = tmp_path / "corpus.txt"
    lines = (work / "corpus.txt").read_text(encoding="utf-8").splitlines(keepends=True)
    corpus_path.write_text("".join(line for line in lines if not line.startswith("s07\t")), encoding="utf-8")
    write_config(cfg_path, workdir=str(work), synth_langs=8, corpus=str(corpus_path))
    capsys.readouterr()
    assert _run(cfg_path, "ingest") == 1
    assert capsys.readouterr().err == (
        f"error: {work / 'features.csv'} lists language 's07', which has no sentence pair in {corpus_path}\n")
    assert not (work / "ingest_summary.txt").exists()


# Runs one stage in a child that kills itself with SIGKILL inside the write of one
# file: the patched writer writes the file, cuts it to its first half and kills the
# process before it returns, as a crash halfway through the write would leave it.
CRASH_SNIPPET = """
import importlib, os, signal, sys
from pathlib import Path
from typovec.cli import main
cfg, stage, module_name, name, target = sys.argv[1:]
module = importlib.import_module(module_name)
write = getattr(module, name)

def torn(path, *args, **kwargs):
    write(path, *args, **kwargs)
    if Path(path).name == target:
        os.truncate(path, os.path.getsize(path) // 2)
        os.kill(os.getpid(), signal.SIGKILL)

setattr(module, name, torn)
sys.exit(main(["--config", cfg, stage]))
"""

# baseline runs early, so that predict finds the k-NN vectors and reads extract's stores
CRASH_STAGES = ("synth", "baseline", "bpe-learn", "train-nmt", "extract", "predict")


@pytest.mark.parametrize("stage, module, writer, target, downstream", [
    ("train-nmt", "typovec.models", "save_checkpoint", "nmt.ckpt", "extract"),
    ("extract", "typovec.vectors", "write_records", "vectors_MTCell.tsv", "predict"),
    ("extract", "typovec.cli", "write_kv", "extract.manifest", "predict"),
], ids=["checkpoint", "second-store", "manifest"])
def test_crash_inside_a_write_is_repaired_by_rerunning_the_stage(tmp_path, capsys, stage, module, writer,
                                                                  target, downstream):
    cfg_path = tmp_path / "cfg.txt"
    work = tmp_path / "work"
    write_config(cfg_path, workdir=str(work), synth_langs=8, synth_sentences=10, num_merges=20, epochs=1,
                 methods="MTVec,MTCell")
    for name in CRASH_STAGES:
        assert _run(cfg_path, name) == 0, name
    clean = snapshot(work)
    shutil.rmtree(work)
    at = CRASH_STAGES.index(stage)
    for name in CRASH_STAGES[:at]:
        assert _run(cfg_path, name) == 0, name
    env = {**os.environ, "PYTHONPATH": str(Path(typovec.__file__).resolve().parents[1])}
    child = subprocess.run([sys.executable, "-c", CRASH_SNIPPET, str(cfg_path), stage, module, writer, target],
                           env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == -signal.SIGKILL, child.stderr
    assert 0 < (work / target).stat().st_size < len(clean[target])
    capsys.readouterr()
    assert _run(cfg_path, downstream) == 1
    assert f"'{stage}'" in capsys.readouterr().err
    for name in CRASH_STAGES[at:]:
        assert _run(cfg_path, name) == 0, name
    assert snapshot(work) == clean
