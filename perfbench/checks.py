"""Correctness checks on pipeline outputs; each check counts as one op.

The checks read artifacts from a work directory and recompute what they
can independently: the encoder LSTM is re-run by a small numpy reference
that reads the checkpoint through ``typovec.checkpoint.load_checkpoint``,
and majority rates are recounted from ``features.csv``.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
import sys
from pathlib import Path

import numpy as np

STAGE_OUTPUTS = {
    "synth": ("registry.tsv", "corpus.txt", "features.csv"),
    "ingest": ("ingest_summary.txt",),
    "bpe-learn": ("merges.txt", "vocab.tsv"),
    "train-lm": ("lm.ckpt", "lm.model"),
    "train-nmt": ("nmt.ckpt", "nmt.model"),
    "baseline": ("knn_vectors.tsv", "distances.tsv"),
    "predict": ("report.tsv", "feature_accuracy.tsv", "predictions.tsv", "predict_meta.txt"),
    "report": ("table_main.md",),
    "bootstrap": ("bootstrap.txt",),
    "traj": ("trajectory.csv",),
}

REFERENCE_TOLERANCE = 1e-9
REFERENCE_LANGS = 3


class Checker:
    """Counts attempted checks and reports each failure on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def run(self, what: str, check, *args) -> None:
        """Runs ``check(self, *args)``; a missing or malformed artifact fails it."""
        try:
            check(self, *args)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            self.check(False, f"{what}: {type(exc).__name__}: {exc}")


def stage_outputs(stage: str, methods: list[str]) -> list[str]:
    if stage == "extract":
        names = [f"vectors_{m}.tsv" for m in methods]
    else:
        names = list(STAGE_OUTPUTS[stage])
    return names + [stage.replace("-", "_") + ".manifest"]


def snapshot(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        out[path.relative_to(root).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def check_stage(checker: Checker, workdir: Path, stage: str, code: int, output: str,
                methods: list[str]) -> None:
    """Exit code 0, every output present, and the stage ran.

    Every stage of the benchmark runs on a work directory where its outputs
    are missing or stale, so a stage that reports "up to date" has skipped
    the work it was timed for.
    """
    missing = [n for n in stage_outputs(stage, methods) if not (workdir / n).is_file()]
    up_to_date = f"{stage}: up to date" in output
    checker.check(code == 0 and not missing and not up_to_date,
                  f"stage {stage}: exit {code}, missing {missing}, up to date {up_to_date}")


def read_loss_curve(model_path: Path) -> list[float]:
    for line in model_path.read_text(encoding="utf-8").splitlines():
        if line.startswith("loss_curve="):
            return [float(x) for x in line.split("=", 1)[1].split(",") if x]
    return []


def check_losses(checker: Checker, workdir: Path, kinds) -> None:
    """Loss curves are present and finite."""
    for kind in kinds:
        curve = read_loss_curve(workdir / f"{kind}.model")
        checker.check(bool(curve) and all(math.isfinite(x) for x in curve),
                      f"{kind} loss curve finite: {curve}")


def check_merge_count(checker: Checker, workdir: Path, num_merges: int) -> None:
    lines = (workdir / "merges.txt").read_text(encoding="utf-8").splitlines()
    checker.check(len(lines) == num_merges, f"merge table has {len(lines)} merges, asked {num_merges}")


def read_vectors(path: Path) -> dict[str, np.ndarray]:
    out = {}
    lines = path.read_text(encoding="utf-8").splitlines()
    for line in lines[1:]:
        if line:
            lang, _method, _dim, _n, values = line.split("\t")
            out[lang] = np.array([float(x) for x in values.split(" ")])
    return out


def _sigmoid(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def reference_encoder_vectors(tensors: dict[str, np.ndarray], sentences) -> dict[str, np.ndarray]:
    """MTCell, MTCellFinal and MTHiddenMean of one language, recomputed.

    ``sentences`` are full encoder inputs (language token, source, EOS).
    The step is the textbook LSTM with gates packed i, f, o, g.
    """
    embed, w, u, b = tensors["embed"], tensors["enc.w"], tensors["enc.u"], tensors["enc.b"]
    hsz = u.shape[0]
    c_sum, h_sum, final_sum, steps = np.zeros(hsz), np.zeros(hsz), np.zeros(hsz), 0
    for ids in sentences:
        h, c = np.zeros(hsz), np.zeros(hsz)
        for ident in ids:
            z = embed[ident] @ w + h @ u + b
            gate_i = _sigmoid(z[:hsz])
            gate_f = _sigmoid(z[hsz:2 * hsz])
            gate_o = _sigmoid(z[2 * hsz:3 * hsz])
            c = gate_f * c + gate_i * np.tanh(z[3 * hsz:])
            h = gate_o * np.tanh(c)
            c_sum += c
            h_sum += h
            steps += 1
        final_sum += c
    return {"MTCell": c_sum / steps, "MTHiddenMean": h_sum / steps,
            "MTCellFinal": final_sum / len(sentences)}


def load_encoded(workdir: Path):
    """The work dir's corpus encoded with its merges; returns (encoded, vocab)."""
    from typovec.bpe import encode_corpus, load_merges, load_vocab
    from typovec.corpus import load_parallel, load_registry

    store = load_parallel(workdir / "corpus.txt", load_registry(workdir / "registry.tsv"))
    vocab = load_vocab(workdir / "vocab.tsv")
    return encode_corpus(store, load_merges(workdir / "merges.txt"), vocab), vocab


def check_reference_lstm(checker: Checker, workdir: Path, methods: list[str], seed: int) -> None:
    """Sampled languages' encoder vectors match the numpy reference."""
    from typovec.bpe import EOS_ID
    from typovec.checkpoint import load_checkpoint

    targets = [m for m in ("MTCell", "MTCellFinal", "MTHiddenMean") if m in methods]
    if not targets:
        return
    encoded, vocab = load_encoded(workdir)
    tensors, _seed = load_checkpoint(workdir / "nmt.ckpt")
    stored = {m: read_vectors(workdir / f"vectors_{m}.tsv") for m in targets}
    langs = sorted(encoded.by_lang)
    for lang in random.Random(seed).sample(langs, min(REFERENCE_LANGS, len(langs))):
        sentences = [[vocab.lang_id(lang), *p.source_ids, EOS_ID] for p in encoded.by_lang[lang]]
        expected = reference_encoder_vectors(tensors, sentences)
        for method in targets:
            got = stored[method].get(lang)
            err = math.inf if got is None or got.shape != expected[method].shape else \
                float(np.max(np.abs(got - expected[method])))
            checker.check(err <= REFERENCE_TOLERANCE,
                          f"{method} of {lang} differs from the reference LSTM by {err}")


def check_mtboth(checker: Checker, workdir: Path, methods: list[str]) -> None:
    if not {"MTVec", "MTCell", "MTBoth"} <= set(methods):
        return
    mtvec = read_vectors(workdir / "vectors_MTVec.tsv")
    mtcell = read_vectors(workdir / "vectors_MTCell.tsv")
    mtboth = read_vectors(workdir / "vectors_MTBoth.tsv")
    bad = [lang for lang in mtboth if lang not in mtvec or lang not in mtcell
           or not np.array_equal(mtboth[lang], np.concatenate([mtvec[lang], mtcell[lang]]))]
    checker.check(bool(mtboth) and not bad and set(mtboth) == set(mtcell),
                  f"MTBoth is not [MTVec; MTCell] for {bad}")


def majority_cells(features_csv: Path) -> dict[str, float]:
    """Per category, the mean over features of the majority-class rate, in %."""
    with open(features_csv, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], [r for r in rows[1:] if r]
    prefixes = {"S_": "syntax", "P_": "phonology", "I_": "inventory"}
    rates: dict[str, list[float]] = {}
    for j, name in enumerate(header[1:], start=1):
        labels = [r[j] for r in body if r[j] != ""]
        if len(labels) < 2:
            continue
        ones = labels.count("1")
        rates.setdefault(prefixes[name[:2]], []).append(
            100.0 * max(ones, len(labels) - ones) / len(labels))
    return {cat: sum(v) / len(v) for cat, v in rates.items()}


def check_majority(checker: Checker, workdir: Path) -> None:
    expected = majority_cells(workdir / "features.csv")
    got = {}
    for line in (workdir / "report.tsv").read_text(encoding="utf-8").splitlines()[1:]:
        method, category, aux, acc = line.split("\t")
        if method == "None" and aux == "-Aux":
            got[category] = float(acc)
    for category, value in expected.items():
        observed = got.get(category, math.nan)
        checker.check(abs(observed - value) <= 1e-9,
                      f"None -Aux {category} is {observed}, majority rate is {value}")


def check_pipeline_outputs(checker: Checker, workdir: Path, methods: list[str], seed: int) -> None:
    checker.run("reference LSTM", check_reference_lstm, workdir, methods, seed)
    checker.run("MTBoth", check_mtboth, workdir, methods)
    checker.run("majority rate", check_majority, workdir)
