"""Metric definitions of the typovec benchmark.

Names, units and directions live in ``BENCHMARK.json`` at the repository
root; this module reads them from there and adds what that file lacks: for
every per-layer metric, the end-to-end metric and workloads that a change to
that layer should move.

End-to-end metrics are measured with tracing off, from child processes that
run real ``typovec`` stages.  Every workload reports every one of them, so
the throughput metric, items per second of the whole op, counts one item
per workload:

- ``train``: training tokens (LM plus NMT targets);
- ``analyze``: corpus sentences;
- ``bpe``: merges learned.

In ``analyze`` it divides by the whole op, not by ``extract`` alone, so that
it rests on the same sum over six stages as ``wall_s``: a single 4 s stage
spread more between runs.  ``cli.stage.extract.wall_s`` times it alone.

Per-layer metrics come from the separate traced in-process run.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                       .read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
RUN_SECONDS = BENCHMARK["run_seconds"]
END_TO_END_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

# The stages that some workload times; ``synth`` and ``ingest`` run in set-up only.
STAGE_WORKLOADS = {"bpe-learn": "bpe", "train-lm": "train", "train-nmt": "train",
                   **{stage: "analyze" for stage in ("extract", "baseline", "predict",
                                                    "report", "bootstrap", "traj")}}
STAGES = tuple(STAGE_WORKLOADS)

_ALL = "all three"

# per-layer metric -> the end-to-end metric, and workloads, it should move
MOVES = {
    "cli.import_s": f"wall_s on {_ALL}",
    "cli.up_to_date_s": f"wall_s on {_ALL}",
    "cli.write_manifest_s": f"wall_s on {_ALL}",
    **{f"cli.stage.{stage}.wall_s": f"wall_s on {w}" for stage, w in STAGE_WORKLOADS.items()},
    "autograd.tensors": "items_per_s on train",
    "autograd.backward.calls": "items_per_s on train",
    "autograd.backward.self_s": "items_per_s on train",
    "autograd.matmul.calls": "items_per_s on train",
    "autograd.matmul.self_s": "items_per_s on train",
    "autograd.softmax_cross_entropy.self_s": "items_per_s on train",
    "autograd.embedding_lookup.self_s": "items_per_s on train",
    "models.lstm_step.calls": "items_per_s on train",
    "models.lstm_step.self_s": "items_per_s on train",
    "models.encode.calls": "items_per_s on analyze",
    "models.encode.self_s": "items_per_s on analyze",
    "models.encode_per_sentence": "items_per_s on analyze",
    "optim.adam_step.calls": "items_per_s on train",
    "optim.adam_step.self_s": "items_per_s on train",
    "optim.clip_gradients.self_s": "items_per_s on train",
    "optim.clip_rate": "training.nmt_loss on train",
    "training.train_lm_s": "items_per_s on train",
    "training.train_nmt_s": "items_per_s on train",
    "training.steps": "items_per_s on train",
    "training.tokens": "items_per_s on train",
    "training.floor_ratio": "items_per_s on train",
    "training.lm_loss": "quality on train",
    "training.nmt_loss": "quality on train",
    "vectors.extract_mtcell_s": "items_per_s on analyze",
    "vectors.extract_variant_s": "items_per_s on analyze",
    "predict.evaluate_s": "wall_s on analyze",
    "predict.train_logreg.calls": "wall_s on analyze",
    "predict.train_logreg.self_s": "wall_s on analyze",
    "predict.paired_bootstrap_s": "wall_s on analyze",
    "predict.export_trajectory_s": "wall_s on analyze",
    "typology.knn_feature_vector_s": "wall_s on analyze",
    "bpe.learn_bpe_s": "items_per_s on bpe",
    "bpe.build_vocab_s": "items_per_s on bpe",
    "bpe.merges": "items_per_s on bpe",
    "bpe.word_types": "items_per_s on bpe",
    "bpe.encode_corpus_s": "wall_s on train and analyze",
    "corpus.load_parallel_s": f"wall_s on {_ALL}",
    "checkpoint.save_checkpoint_s": f"wall_s on {_ALL}",
    "checkpoint.load_checkpoint_s": f"wall_s on {_ALL}",
    "synth.generate_suite_s": f"setup_s on {_ALL}",
    "trace.op_wall_s": "tracing overhead",
    "trace.untraced_op_wall_s": "tracing overhead",
    "trace.overhead_ratio": "tracing overhead",
    "env.gemm_gflops": "training.floor_ratio on train",
}
