"""LSTM language model and many-to-one encoder-decoder translation model.

Both models share one embedding table over the joint subword vocabulary,
which includes one token per language. The language token is prepended to
the source sequence, so its embedding row is learned like any other token.

Gate packing: input weights ``w`` (E, 4H), recurrent weights ``u`` (H, 4H)
and bias ``b`` (4H,) hold the i, f, o, g blocks in that order. The forget
gate bias is initialized to 1.0; matrices use uniform(+-sqrt(6/(fan_in+fan_out)))
per gate block.

One cell step, ``_Cell.step``, runs under both the training op
:func:`lstm_sequence` (one autograd node per recurrence over a padded batch,
with a hand-written backward pass) and the inference generator
:func:`lstm_states`, which :func:`language_states` runs over one
language's canonical batch for extraction and trajectories. Three
invariants keep it lean and exact:

- Pre-scaled gates: the step works on copies of ``w``, ``u`` and ``b`` whose
  i, f and o columns are halved. Halving is exact in float64, so those
  columns of the pre-activation are z/2 bit for bit, and one tanh over the
  whole (rows, 4H) block gives every gate, with sigmoid(z) =
  (tanh(z/2) + 1) * 0.5. The activations are then stored gate-major,
  (4, rows, H), so the element-wise work runs on contiguous blocks.
- Live span: step t runs only rows ``lo:hi``, the shortest run that holds
  every row with ``lens > t`` (two rows at least: a one-row product goes
  through gemv and sums in another order). Rows outside the span keep their
  state by a plain copy and dead rows inside it by a masked copy, so a row's
  values do not depend on the other rows' lengths.
- Backward factors saved in the forward: while the step is in cache it
  writes the factors of its VJP (d(c_t)/dz and d(h_t)/dz per gate, d(h_t)/d(c_t)
  and f) over its slice of the input projection, and the VJP overwrites them
  with d(loss)/dz. One (T, B, 4H) buffer serves all three, and the VJP
  consumes it.

Buffer lifetime: :func:`lstm_sequence` takes its (T, B, .) arrays and the
step's scratch from the training run's workspace when it is given one, and
they live until the next batch takes them again; its outputs are views of
one of them, read only within the batch. Inference (:func:`lstm_states`,
:func:`encode`) and every call without a workspace allocate afresh, so what
they return is the caller's own.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autograd as ag
from .autograd import Parameter, Tensor
from .bpe import EOS_ID, PAD_ID, SubwordVocab
from .checkpoint import load_checkpoint, save_checkpoint
from .config import TrainConfig, format_value, parse_fields, read_kv, write_kv  # TrainConfig re-exported


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


def lstm_step(params: LSTMCellParams, x: Tensor, h_prev: Tensor, c_prev: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM step on the graph: returns (h_t, c_t).

    i = sigmoid(.), f = sigmoid(.), o = sigmoid(.), g = tanh(.),
    c_t = f*c_prev + i*g, h_t = o*tanh(c_t).

    Accepts (B, E)/(B, H) tensors, or 1-D vectors which are treated as a
    batch of one. This is the T = 1 case of :func:`lstm_sequence`, which
    checks the shapes.
    """
    squeeze = x.value.ndim == 1
    if squeeze:
        x, h_prev, c_prev = (ag.slice_(t, np.newaxis) for t in (x, h_prev, c_prev))
    _, h, c = lstm_sequence(params, x, np.ones(len(x.value), dtype=np.int64), h_prev, c_prev)
    if squeeze:
        h = ag.slice_(h, 0)
        c = ag.slice_(c, 0)
    return h, c


def _live_spans(lens: np.ndarray, steps: int) -> list[tuple[int, int, bool | np.ndarray]]:
    """For each step t, the rows ``lo:hi`` that the step runs, and which of them are live.

    The span is the shortest run of rows that holds every row with
    ``lens > t``, widened to two rows when the batch has two: OpenBLAS sends
    a one-row product through gemv, which sums in another order than the
    batched product. ``keep`` is True when every row of the span is live, or
    else the (hi - lo, 1) mask of its live rows.
    """
    bsz = len(lens)
    alive = np.arange(steps)[:, None] < lens
    first, last = alive.argmax(axis=1), bsz - alive[:, ::-1].argmax(axis=1)
    spans = []
    for t, (lo, hi, live) in enumerate(zip(first.tolist(), last.tolist(), alive.sum(axis=1).tolist())):
        if hi - lo < 2 <= bsz:
            lo = min(lo, bsz - 2)
            hi = lo + 2
        spans.append((lo, hi, True if live == hi - lo else alive[t, lo:hi, None]))
    return spans


class _Cell:
    """One LSTM cell step on pre-halved gates, shared by training and inference.

    The i, f and o columns of ``w``, ``u`` and ``b`` are scaled by 0.5 once,
    which is exact in float64, so the pre-activation of those gates is
    already z/2, and one tanh over the contiguous (rows, 4H) block serves all
    four gates: sigmoid(z) = (tanh(z/2) + 1) * 0.5 and g = tanh(z). The
    activations are then laid out gate-major, (4, rows, H), so that every
    later element-wise op runs on contiguous blocks. The step buffers are
    sized for ``bsz`` rows and reused by every step; ``empty`` allocates them
    and the scaled copies (a workspace's ``take`` in training).
    """

    def __init__(self, cell: LSTMCellParams, bsz: int, empty=np.empty):
        hsz = cell.hidden_size
        scale = np.repeat([0.5, 0.5, 0.5, 1.0], hsz)
        self.w, self.u, self.b = (np.multiply(p.value, scale, out=empty(p.value.shape))
                                  for p in cell.parameters())
        self.pre = empty((bsz, 4 * hsz))
        self.gates = empty((4 * bsz * hsz,))
        self.t1, self.t2 = empty((bsz, hsz)), empty((bsz, hsz))

    def step(self, zx, h, c, h_out, c_out, keep, saved=None) -> None:
        """Steps the rows of ``zx`` (the pre-halved x @ w + b) from (h, c).

        Writes the live rows (``keep``) of the new state into ``h_out`` and
        ``c_out``; ``c_out`` may be ``c``. With ``saved`` = (dact, dc_dh, f),
        also writes the factors the backward pass needs while the step is in
        cache: dact, gate-major (4, rows, H), holds d(c_t)/dz for i, f, g and
        d(h_t)/dz for o; dc_dh is d(h_t)/d(c_t) and f the forget gate. dact
        may share memory with ``zx``.
        """
        m, hsz = h.shape
        pre, t1, t2 = self.pre[:m], self.t1[:m], self.t2[:m]
        np.matmul(h, self.u, out=pre)
        pre += zx
        np.tanh(pre, out=pre)
        blocks = pre.reshape(m, 4, hsz).transpose(1, 0, 2)
        gates = self.gates[: 4 * m * hsz].reshape(4, m, hsz)
        np.add(blocks[:3], 1.0, out=gates[:3])
        gates[:3] *= 0.5
        gates[3] = blocks[3]
        i, f, o, g = gates
        if saved is not None:
            dact, dc_dh, f_saved = saved
            np.subtract(1.0, gates[:3], out=dact[:3])
            dact[:3] *= gates[:3]  # s * (1 - s)
            dact[0] *= g
            dact[1] *= c  # c_{t-1}: c_out, which may be c, is written below
            f_saved[...] = f
        np.multiply(f, c, out=t1)
        np.multiply(i, g, out=t2)
        t1 += t2
        np.copyto(c_out, t1, where=keep)
        np.tanh(t1, out=t1)
        np.multiply(o, t1, out=t2)
        np.copyto(h_out, t2, where=keep)
        if saved is not None:
            dact[2] *= t1
            np.multiply(t1, t1, out=t2)
            np.subtract(1.0, t2, out=t2)
            np.multiply(o, t2, out=dc_dh)
            np.multiply(g, g, out=t2)
            np.subtract(1.0, t2, out=t2)
            np.multiply(i, t2, out=dact[3])


def lstm_sequence(cell: LSTMCellParams, x: Tensor, lens, h0: Tensor | None = None,
                  c0: Tensor | None = None, ws: ag.Workspace | None = None) -> tuple[Tensor, Tensor, Tensor]:
    """The LSTM over a padded (T, B) batch as one autograd op: returns (hs, h, c).

    ``x`` holds the (T*B, E) inputs in time-major order (row t*B + k is row
    k's input at step t), ``lens`` the (B,) row lengths. ``hs`` is the
    (T*B, H) hidden state after every step in the same order; ``h`` and
    ``c`` are the (B, H) final states. Rows with ``lens <= t`` keep their
    state, so ``h`` and ``c`` are each row's own last real step. Start states
    default to zeros.

    The input projection x @ w + b is one GEMM over all T*B rows into a
    (T, B, 4H) buffer; only h @ u runs inside the loop, on the live span of
    each step. Each step overwrites its slice of that buffer with the factors
    of its backward pass, and the VJP, a hand-written backward-through-time
    loop, overwrites them with d(loss)/dz, from which dx, dw, du and db each
    come from one GEMM or one sum over the T*B rows (Appleyard et al. 2016,
    arXiv:1604.01946). The VJP consumes the buffer, so it runs once.

    The op's (T, B, .) arrays are that buffer, the saved factors dc_dh and f,
    the states (h0, h_1 .. h_T, c_T), of which ``hs``, ``h`` and ``c`` are
    views, the gradient buffer the three outputs share, and dx. Given ``ws``,
    they and the step's scratch come from it and are reused by the next
    batch; without it, each call allocates them afresh.
    """
    lens = np.asarray(lens)
    bsz, hsz = len(lens), cell.hidden_size
    rows, width = x.value.shape
    h0 = ag.constant(np.zeros((bsz, hsz))) if h0 is None else h0
    c0 = ag.constant(np.zeros((bsz, hsz))) if c0 is None else c0
    if width != cell.embed_size or rows % bsz or h0.value.shape != (bsz, hsz) or c0.value.shape != (bsz, hsz):
        raise ag.ShapeError(
            f"lstm_sequence: x {x.value.shape}, h0 {h0.value.shape}, c0 {c0.value.shape} "
            f"inconsistent with B={bsz}, E={cell.embed_size}, H={hsz}"
        )
    steps = rows // bsz
    w, u, b = cell.w.node(), cell.u.node(), cell.b.node()
    empty = np.empty if ws is None else ws.take
    run = _Cell(cell, bsz, empty)
    spans = _live_spans(lens, steps)
    zs = empty((steps, bsz, 4 * hsz))  # x @ w + b, then dact, then dz
    np.matmul(x.value, run.w, out=zs.reshape(rows, 4 * hsz))
    zs += run.b
    dc_dh, f = empty((steps, bsz, hsz)), empty((steps, bsz, hsz))
    packed = empty((steps + 2, bsz, hsz))  # h0, h_1 .. h_T, then c_T: the op's value is packed[1:]
    grad_buf = empty(((steps + 1) * bsz, hsz))  # the gradient that hs, h and c share
    packed[0] = h0.value
    c = packed[-1]
    c[...] = c0.value
    for t, (lo, hi, keep) in enumerate(spans):
        if keep is not True or hi - lo < bsz:
            packed[t + 1] = packed[t]
        span = np.s_[lo:hi]
        run.step(zs[t, span], packed[t, span], c[span], packed[t + 1, span], c[span], keep,
                 (zs[t, span].reshape(4, hi - lo, hsz), dc_dh[t, span], f[t, span]))

    def vjp(grad):
        grad = grad.reshape(steps + 1, bsz, hsz)
        u_t = np.ascontiguousarray(u.value.T)  # dz @ u.T on the transposed view takes another kernel for few rows
        dh, dc = np.zeros((bsz, hsz)), grad[steps].copy()
        for t in reversed(range(steps)):
            lo, hi, keep = spans[t]
            dh += grad[t]
            z_t = zs[t, lo:hi]  # this step's dact, overwritten with its dz
            zs[t, :lo] = 0.0
            zs[t, hi:] = 0.0
            m = hi - lo
            dhs, dcs, dc_t, dh_prev = dh[lo:hi], dc[lo:hi], run.t1[:m], run.t2[:m]
            np.multiply(dhs, dc_dh[t, lo:hi], out=dc_t)
            dc_t += dcs
            dact = z_t.reshape(4, m, hsz)
            dact[:2] *= dc_t
            dact[3] *= dc_t
            dact[2] *= dhs
            if keep is not True:
                np.copyto(dact, 0.0, where=~keep)
            dz_rows = run.pre[:m]  # dz row-major again, as the GEMMs need it
            np.copyto(dz_rows.reshape(m, 4, hsz), dact.transpose(1, 0, 2))
            np.matmul(dz_rows, u_t, out=dh_prev)
            z_t[...] = dz_rows
            dc_t *= f[t, lo:hi]
            np.copyto(dhs, dh_prev, where=keep)
            np.copyto(dcs, dc_t, where=keep)
        dz = zs.reshape(rows, 4 * hsz)
        h_prev = packed[:steps].reshape(rows, hsz)
        dx = np.matmul(dz, w.value.T, out=empty((rows, width)))
        return dx, x.value.T @ dz, h_prev.T @ dz, dz.sum(axis=0), dh, dc

    out = Tensor(packed[1:].reshape((steps + 1) * bsz, hsz), (x, w, u, b, h0, c0), vjp)
    n = steps * bsz
    return tuple(ag.slice_(out, index, grad_buf) for index in (np.s_[:n], np.s_[n - bsz : n], np.s_[n:]))


def lstm_states(cell: LSTMCellParams, embedding: np.ndarray, ids: np.ndarray, lens: np.ndarray):
    """Inference twin of :func:`lstm_sequence` over a padded (B, T) batch of ids.

    Yields new (B, H) states (h_t, c_t) after each step t from zero start
    states. Rows with ``lens <= t`` keep their previous state, so after the
    last step every row holds its own final state. Each step runs one
    (rows, E) @ (E, 4H) and one (rows, H) @ (H, 4H) product on the live span
    only, and no (T, B, .) array is held.
    """
    run = _Cell(cell, len(ids))
    zx_buf = np.empty_like(run.pre)
    h = np.zeros((len(ids), cell.hidden_size))
    c = np.zeros((len(ids), cell.hidden_size))
    for t, (lo, hi, keep) in enumerate(_live_spans(lens, ids.shape[1])):
        h_prev, c_prev, h, c = h, c, h.copy(), c.copy()
        zx = np.matmul(embedding[ids[lo:hi, t]], run.w, out=zx_buf[: hi - lo])
        zx += run.b
        run.step(zx, h_prev[lo:hi], c_prev[lo:hi], h[lo:hi], c[lo:hi], keep)
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


def language_states(nmt: Seq2SeqModel, vocab: SubwordVocab, lang: str, sentences):
    """The encoder over one language's sentences, as one canonical batch.

    Rows are sorted by (length, ids), so the batch, and every float an
    inference pass computes from it, depends on the sentence multiset only.
    Returns (lens, order, states): the (B,) row lengths, sorted ascending,
    ``order[k]`` the index in ``sentences`` of row k, and the
    :func:`lstm_states` generator over the batch. No sentences is a
    ValueError naming the language.
    """
    if not sentences:
        raise ValueError(f"no sentences for language {lang!r}")
    seqs = [encoder_input_ids(vocab, lang, p.source_ids) for p in sentences]
    order = sorted(range(len(seqs)), key=lambda i: (len(seqs[i]), seqs[i]))
    ids, lens = pad_batch([seqs[i] for i in order])
    return lens, order, lstm_states(nmt.encoder, nmt.embedding.value, ids, lens)


def encode(model: Seq2SeqModel | RnnLmModel, vocab: SubwordVocab, lang: str, source_ids):
    """Run the (encoder) LSTM over one sentence; returns all (h_t, c_t).

    The input sequence is [language token] + source + [EOS], so the result
    has len(source) + 2 entries of (H,) arrays each.
    """
    ids, lens = pad_batch([encoder_input_ids(vocab, lang, source_ids)])
    cell = model.encoder if isinstance(model, Seq2SeqModel) else model.cell
    return [(h[0], c[0]) for h, c in lstm_states(cell, model.embedding.value, ids, lens)]


# --- persistence ------------------------------------------------------------

def save_model(ckpt_path, manifest_path, model, config: TrainConfig,
               loss_curve, vocab_sha: str) -> None:
    kind = "seq2seq" if isinstance(model, Seq2SeqModel) else "rnnlm"
    save_checkpoint(ckpt_path, {p.name: p.value for p in model.parameters()}, seed=config.seed)
    write_kv(manifest_path, {
        "type": kind, "vocab_size": str(model.vocab_size), "vocab_sha256": vocab_sha,
        **{f.name: format_value(config, f.name) for f in fields(config)},
        "epochs_trained": str(len(loss_curve)),
        "loss_curve": ",".join(repr(x) for x in loss_curve),
    })


def load_model(ckpt_path, manifest_path):
    """Returns (model, manifest dict, loss_curve).

    A missing or malformed manifest key raises ValueError naming the
    manifest and the key; a checkpoint tensor that is missing, has another
    shape or is no parameter of the model the manifest describes raises one
    naming the checkpoint and the tensor.
    """
    manifest = read_kv(manifest_path)
    kind = manifest.get("type")
    if kind not in ("seq2seq", "rnnlm"):
        raise ValueError(f"{manifest_path}: unknown model type {kind!r}")
    defaults = {**asdict(TrainConfig()), "vocab_size": 0, "loss_curve": ""}
    values = parse_fields(defaults, manifest, manifest_path, required=True)
    vocab_size = values.pop("vocab_size")
    try:
        curve = [float(x) for x in values.pop("loss_curve").split(",") if x]
        config = TrainConfig(**values)
    except ValueError as exc:
        raise ValueError(f"{manifest_path}: {exc}") from None
    rng = np.random.default_rng(0)
    model = (Seq2SeqModel if kind == "seq2seq" else RnnLmModel)(vocab_size, config, rng)
    tensors, _seed = load_checkpoint(ckpt_path)
    extra = [name for name in tensors if name not in {p.name for p in model.parameters()}]
    if extra:
        raise ValueError(f"{ckpt_path}: tensor {extra[0]!r} is not a parameter of the model "
                         f"that {manifest_path} describes")
    for p in model.parameters():
        if p.name not in tensors:
            raise ValueError(f"{ckpt_path}: missing tensor {p.name!r}")
        if tensors[p.name].shape != p.value.shape:
            raise ValueError(f"{ckpt_path}: tensor {p.name!r} has shape {tensors[p.name].shape}, "
                             f"expected {p.value.shape}")
        p.value[...] = tensors[p.name]
    return model, manifest, curve
