"""LSTM language model and many-to-one encoder-decoder translation model.

Both models share one embedding table over the joint subword vocabulary,
which includes one token per language. The language token is prepended to
the source sequence, so its embedding row is learned like any other token.

Gate packing: input weights ``w`` (E, 4H), recurrent weights ``u`` (H, 4H)
and bias ``b`` (4H,) hold the i, f, o, g blocks in that order. The forget
gate bias is initialized to 1.0; matrices use uniform(+-sqrt(6/(fan_in+fan_out)))
per gate block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Parameter, Tensor
from .bpe import EOS_ID, PAD_ID, SubwordVocab
from .checkpoint import load_checkpoint, save_checkpoint


@dataclass
class TrainConfig:
    hidden_size: int = 512
    embed_size: int | None = None
    lr: float = 0.001
    dropout: float = 0.5
    epochs: int = 10
    batch_size: int = 64
    seed: int = 0
    clip_norm: float = 5.0
    attention: bool = False

    def __post_init__(self) -> None:
        if self.embed_size is None:
            self.embed_size = self.hidden_size
        if self.hidden_size <= 0 or self.embed_size <= 0:
            raise ValueError("hidden_size and embed_size must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


@dataclass
class LSTMCellParams:
    """Packed LSTM cell parameters for one recurrent layer."""

    embed_size: int
    hidden_size: int
    w: Parameter
    u: Parameter
    b: Parameter

    @classmethod
    def create(cls, name: str, embed_size: int, hidden_size: int, rng: np.random.Generator):
        e, h = embed_size, hidden_size
        w = np.concatenate([_glorot(rng, e, h, (e, h)) for _ in range(4)], axis=1)
        u = np.concatenate([_glorot(rng, h, h, (h, h)) for _ in range(4)], axis=1)
        b = np.zeros(4 * h)
        b[h : 2 * h] = 1.0  # forget gate bias
        return cls(e, h, Parameter(f"{name}.w", w), Parameter(f"{name}.u", u), Parameter(f"{name}.b", b))

    def parameters(self) -> list[Parameter]:
        return [self.w, self.u, self.b]


def lstm_step(params: LSTMCellParams, x: Tensor, h_prev: Tensor, c_prev: Tensor,
              nodes: tuple[Tensor, Tensor, Tensor] | None = None) -> tuple[Tensor, Tensor]:
    """One LSTM step on the graph: returns (h_t, c_t).

    i = sigmoid(.), f = sigmoid(.), o = sigmoid(.), g = tanh(.),
    c_t = f*c_prev + i*g, h_t = o*tanh(c_t).

    Accepts (B, E)/(B, H) tensors, or 1-D vectors which are treated as a
    batch of one. ``nodes`` lets a training loop reuse one leaf per
    parameter across time steps.
    """
    squeeze = x.value.ndim == 1
    if squeeze:
        x = ag.Tensor(x.value[None, :], (x,), lambda g: (g[0],))
        h_prev = ag.Tensor(h_prev.value[None, :], (h_prev,), lambda g: (g[0],))
        c_prev = ag.Tensor(c_prev.value[None, :], (c_prev,), lambda g: (g[0],))
    hsz = params.hidden_size
    if x.value.shape[1] != params.embed_size or h_prev.value.shape[1] != hsz or c_prev.value.shape[1] != hsz:
        raise ag.ShapeError(
            f"lstm_step: x {x.value.shape}, h {h_prev.value.shape}, c {c_prev.value.shape} "
            f"inconsistent with E={params.embed_size}, H={hsz}"
        )
    w, u, b = nodes if nodes is not None else (params.w.node(), params.u.node(), params.b.node())
    z = ag.add(ag.add(ag.matmul(x, w), ag.matmul(h_prev, u)), b)
    i = ag.sigmoid(ag.slice_(z, np.s_[:, 0 * hsz : 1 * hsz]))
    f = ag.sigmoid(ag.slice_(z, np.s_[:, 1 * hsz : 2 * hsz]))
    o = ag.sigmoid(ag.slice_(z, np.s_[:, 2 * hsz : 3 * hsz]))
    g = ag.tanh(ag.slice_(z, np.s_[:, 3 * hsz : 4 * hsz]))
    c = ag.add(ag.mul(f, c_prev), ag.mul(i, g))
    h = ag.mul(o, ag.tanh(c))
    if squeeze:
        h = ag.slice_(h, 0)
        c = ag.slice_(c, 0)
    return h, c


def lstm_states(cell: LSTMCellParams, embedding: np.ndarray, ids: np.ndarray, lens: np.ndarray,
                h: np.ndarray | None = None, c: np.ndarray | None = None):
    """Inference twin of :func:`lstm_step` over a padded (B, T) batch of ids.

    Yields the (B, H) states (h_t, c_t) after each step t. Rows with
    ``lens <= t`` keep their previous state, so after the last step every
    row holds its own final state. Each step costs one (B, E) @ (E, 4H) and
    one (B, H) @ (H, 4H) product; sigmoid is 0.5*(1 + tanh(x/2)), which
    needs no masks. Start states default to zeros.
    """
    w, u, b = cell.w.value, cell.u.value, cell.b.value
    hsz = cell.hidden_size
    h = np.zeros((len(ids), hsz)) if h is None else h
    c = np.zeros((len(ids), hsz)) if c is None else c
    for t in range(ids.shape[1]):
        z = embedding[ids[:, t]] @ w + h @ u + b
        ifo = 0.5 * (1.0 + np.tanh(0.5 * z[:, : 3 * hsz]))
        c_new = ifo[:, hsz : 2 * hsz] * c + ifo[:, :hsz] * np.tanh(z[:, 3 * hsz :])
        h_new = ifo[:, 2 * hsz :] * np.tanh(c_new)
        alive = (t < lens)[:, None]
        h = np.where(alive, h_new, h)
        c = np.where(alive, c_new, c)
        yield h, c


def pad_batch(seqs: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """(B, T) id matrix padded with PAD_ID, and the (B,) row lengths."""
    lens = np.array([len(s) for s in seqs], dtype=np.int64)
    width = int(lens.max()) if len(lens) else 0
    ids = np.full((len(seqs), width), PAD_ID, dtype=np.int64)
    for i, s in enumerate(seqs):
        ids[i, : len(s)] = s
    return ids, lens


class RnnLmModel:
    """Single-layer LSTM language model over the shared subword vocabulary."""

    def __init__(self, vocab_size: int, config: TrainConfig, rng: np.random.Generator):
        e, h, v = config.embed_size, config.hidden_size, vocab_size
        self.vocab_size = v
        self.embed_size = e
        self.hidden_size = h
        self.embedding = Parameter("embed", _glorot(rng, v, e, (v, e)))
        self.cell = LSTMCellParams.create("lstm", e, h, rng)
        self.proj_w = Parameter("proj.w", _glorot(rng, h, v, (h, v)))
        self.proj_b = Parameter("proj.b", np.zeros(v))

    def parameters(self) -> list[Parameter]:
        return [self.embedding, *self.cell.parameters(), self.proj_w, self.proj_b]


class Seq2SeqModel:
    """Many-to-one encoder-decoder with a shared embedding table.

    The decoder is initialized from the final encoder state; optional global
    dot-product attention over encoder hidden states sits behind a flag.
    """

    def __init__(self, vocab_size: int, config: TrainConfig, rng: np.random.Generator):
        e, h, v = config.embed_size, config.hidden_size, vocab_size
        self.vocab_size = v
        self.embed_size = e
        self.hidden_size = h
        self.attention = config.attention
        self.embedding = Parameter("embed", _glorot(rng, v, e, (v, e)))
        self.encoder = LSTMCellParams.create("enc", e, h, rng)
        self.decoder = LSTMCellParams.create("dec", e, h, rng)
        self.proj_w = Parameter("proj.w", _glorot(rng, h, v, (h, v)))
        self.proj_b = Parameter("proj.b", np.zeros(v))
        self.attn_wc = Parameter("attn.wc", _glorot(rng, 2 * h, h, (2 * h, h))) if self.attention else None

    def parameters(self) -> list[Parameter]:
        params = [
            self.embedding,
            *self.encoder.parameters(),
            *self.decoder.parameters(),
            self.proj_w,
            self.proj_b,
        ]
        if self.attn_wc is not None:
            params.append(self.attn_wc)
        return params


def encoder_input_ids(vocab: SubwordVocab, lang: str, source_ids) -> list[int]:
    """[language token] + source + [EOS]; raises on unknown language."""
    return [vocab.lang_id(lang), *source_ids, EOS_ID]


def encoder_batch(vocab: SubwordVocab, lang: str, sentences):
    """Canonical padded encoder batch for one language's sentences.

    Rows are sorted by (length, ids), so the batch, and every float an
    inference pass computes from it, depends on the sentence multiset only.
    Returns (ids, lens, order) with ``order[k]`` the index in ``sentences``
    of row k.
    """
    seqs = [encoder_input_ids(vocab, lang, p.source_ids) for p in sentences]
    order = sorted(range(len(seqs)), key=lambda i: (len(seqs[i]), seqs[i]))
    ids, lens = pad_batch([seqs[i] for i in order])
    return ids, lens, order


def encode(model: Seq2SeqModel | RnnLmModel, vocab: SubwordVocab, lang: str, source_ids):
    """Run the (encoder) LSTM over one sentence; returns all (h_t, c_t).

    The input sequence is [language token] + source + [EOS], so the result
    has len(source) + 2 entries of (H,) arrays each.
    """
    ids, lens = pad_batch([encoder_input_ids(vocab, lang, source_ids)])
    cell = model.encoder if isinstance(model, Seq2SeqModel) else model.cell
    return [(h[0], c[0]) for h, c in lstm_states(cell, model.embedding.value, ids, lens)]


# --- persistence ------------------------------------------------------------

def write_kv(path, entries: dict[str, str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in entries.items():
            fh.write(f"{key}={value}\n")


def read_kv(path) -> dict[str, str]:
    entries: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}: malformed manifest line {line!r}")
            entries[key] = value
    return entries


def _config_manifest(config: TrainConfig) -> dict[str, str]:
    return {
        "hidden_size": str(config.hidden_size),
        "embed_size": str(config.embed_size),
        "lr": repr(config.lr),
        "dropout": repr(config.dropout),
        "epochs": str(config.epochs),
        "batch_size": str(config.batch_size),
        "seed": str(config.seed),
        "clip_norm": repr(config.clip_norm),
        "attention": str(int(config.attention)),
    }


def save_model(ckpt_path, manifest_path, model, config: TrainConfig,
               loss_curve, vocab_sha: str) -> None:
    kind = "seq2seq" if isinstance(model, Seq2SeqModel) else "rnnlm"
    params = model.parameters()
    tensors = {p.name: p.value for p in params}
    if len(tensors) != len(params):
        raise ValueError("parameter names are not unique")
    save_checkpoint(ckpt_path, tensors, seed=config.seed)
    manifest = {"type": kind, "vocab_size": str(model.vocab_size), "vocab_sha256": vocab_sha}
    manifest.update(_config_manifest(config))
    manifest["epochs_trained"] = str(len(loss_curve))
    manifest["loss_curve"] = ",".join(repr(x) for x in loss_curve)
    write_kv(manifest_path, manifest)


def load_model(ckpt_path, manifest_path):
    """Returns (model, manifest dict, loss_curve)."""
    manifest = read_kv(manifest_path)
    config = TrainConfig(
        hidden_size=int(manifest["hidden_size"]),
        embed_size=int(manifest["embed_size"]),
        lr=float(manifest["lr"]),
        dropout=float(manifest["dropout"]),
        epochs=max(1, int(manifest["epochs"])),
        batch_size=int(manifest["batch_size"]),
        seed=int(manifest["seed"]),
        clip_norm=float(manifest["clip_norm"]),
        attention=bool(int(manifest["attention"])),
    )
    vocab_size = int(manifest["vocab_size"])
    rng = np.random.default_rng(0)
    if manifest["type"] == "seq2seq":
        model: Seq2SeqModel | RnnLmModel = Seq2SeqModel(vocab_size, config, rng)
    elif manifest["type"] == "rnnlm":
        model = RnnLmModel(vocab_size, config, rng)
    else:
        raise ValueError(f"{manifest_path}: unknown model type {manifest['type']!r}")
    tensors, _seed = load_checkpoint(ckpt_path)
    for p in model.parameters():
        if p.name not in tensors:
            raise ValueError(f"{ckpt_path}: missing tensor {p.name!r}")
        if tensors[p.name].shape != p.value.shape:
            raise ValueError(f"{ckpt_path}: tensor {p.name!r} has shape {tensors[p.name].shape}, "
                             f"expected {p.value.shape}")
        p.value[...] = tensors[p.name]
    curve = [float(x) for x in manifest.get("loss_curve", "").split(",") if x]
    return model, manifest, curve
