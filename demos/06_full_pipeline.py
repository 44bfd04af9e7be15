"""The full pipeline end to end on a small synthetic suite, via the CLI stages.

Writes a config file, runs every stage in order into a temporary work
directory that it removes at the end, and prints the rendered accuracy
table. Equivalent to:

    typovec --config demo.cfg synth
    typovec --config demo.cfg ingest
    ... (bpe-learn, train-lm, train-nmt, extract, baseline, predict,
         report, bootstrap, traj)
"""

import tempfile
from pathlib import Path

from typovec.cli import main

with tempfile.TemporaryDirectory(prefix="typovec_demo_") as tmp:
    workdir = Path(tmp)
    cfg_path = workdir / "demo.cfg"
    cfg_path.write_text(
        "\n".join([
            f"workdir={workdir / 'work'}",
            "seed=11",
            "synth_langs=12",
            "synth_sentences=60",
            "synth_lexicon=12",
            "num_merges=60",
            "hidden_size=16",
            "embed_size=16",
            "lr=0.02",
            "dropout=0.0",
            "epochs=3",
            "batch_size=16",
            "n_folds=4",
            "bootstrap_n=2000",
            "methods=LMVec,MTVec,MTCell,MTBoth",
            "traj_sentences=2",
        ]) + "\n",
        encoding="utf-8",
    )

    stages = ("synth", "ingest", "bpe-learn", "train-lm", "train-nmt",
              "extract", "baseline", "predict", "report", "bootstrap", "traj")
    for stage in stages:
        code = main(["--config", str(cfg_path), stage])
        assert code == 0, f"stage {stage} failed with exit code {code}"

    work = workdir / "work"
    print("\n--- rendered accuracy table " + "-" * 30)
    print((work / "table_main.md").read_text(encoding="utf-8"))
    print("--- paired bootstrap " + "-" * 37)
    print((work / "bootstrap.txt").read_text(encoding="utf-8"))
    print("--- artifacts " + "-" * 44)
    for path in sorted(work.iterdir()):
        print(f"  {path.name}")
