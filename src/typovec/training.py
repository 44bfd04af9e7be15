"""Teacher-forced training loops and perplexity evaluation.

Batching buckets sentences by length (stable sort by source/target length,
then original index), chunks them, and shuffles the chunk order with an
epoch-derived seed. Each padded batch is a handful of graph nodes:

- one embedding lookup over every input id of the batch, time-major,
  encoder ids first, with the dropout inside the lookup. The single
  (T, B, E) mask draw consumes the dropout generator in the same order as
  one (B, E) draw per encoder step and then per decoder step;
- one :func:`typovec.models.lstm_sequence` op per recurrence (the encoder,
  then the decoder started from the encoder's final state; the LM's single
  LSTM). Rows that have finished keep their state, so the final encoder
  state of every row is its own last real step;
- with attention, one op that attends every decoder state over its row's
  encoder states with batched (B, T_dec, T_enc) scores and returns the rows
  [h_t; context_t], then tanh([h_t; context_t] @ wc). Attention is not fed
  back into the recurrence, so it runs once, after it;
- one output-layer node: the (T*B, H) @ (H, V) projection and the masked
  cross-entropy; padded positions are masked out of the loss.

Buffer lifetime. :func:`_train` owns one :class:`typovec.autograd.Workspace`
for the run and resets it before each batch. The batch's ops take their
(rows, .) arrays from it in a fixed order: the embedding output (which the
dropout mask multiplies in place), the mask, one gradient buffer for the
two halves of the NMT input, each recurrence's buffers and gradient buffer,
and the output layer's logits and input gradient. Before the first batch,
:func:`_size_workspace` runs one throwaway forward and backward pass over a
batch that asks every buffer for at least what any real batch asks, which
grows every buffer to its final size; so no batch ever outgrows a buffer,
and each batch reuses the same arrays. A batch's graph lives from its
forward pass to the end of its backward pass: :func:`_train` then drops
it, and with it the node gradients and every view of the workspace, before
the update, so no array of one batch is reachable when the next batch
starts. Nothing that outlives a batch points into the
workspace: the loss is read as a float, the gradients reach the parameters
through their own ``grad`` arrays, and Adam updates the parameters' own
values, so the model and curve that :func:`train_nmt` and :func:`train_lm`
return share no memory with it. Attention's arrays are still allocated per
batch.

One function, :func:`_task`, pairs a model class with its rows and its
batch loss, for :func:`train_nmt` and :func:`train_lm` (through
:func:`_fit`, which also builds the model from the seed) and for
perplexity. Perplexity runs the training loss path: it sums the same batch
losses over length-sorted batches, with dropout off and without a
workspace, so each op allocates its arrays afresh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .bpe import BOS_ID, EOS_ID, EncodedCorpus, SubwordVocab
from .models import (
    RnnLmModel,
    Seq2SeqModel,
    TrainConfig,
    encoder_input_ids,
    lstm_sequence,
    pad_batch,
)
from .optim import AdamState, adam_step, clip_gradients, zero_gradients


class TrainingError(RuntimeError):
    """Non-finite loss or a corpus the trainer cannot consume."""


@dataclass
class _Row:
    enc_ids: list[int]
    dec_in: list[int]
    dec_out: list[int]


def _nmt_rows(encoded: EncodedCorpus, vocab: SubwordVocab) -> list[_Row]:
    rows = []
    for pair in encoded.ordered:
        enc = encoder_input_ids(vocab, pair.lang, pair.source_ids)
        rows.append(_Row(enc, [BOS_ID, *pair.target_ids], [*pair.target_ids, EOS_ID]))
    return rows


def _lm_rows(encoded: EncodedCorpus, vocab: SubwordVocab) -> list[_Row]:
    rows = []
    for pair in encoded.ordered:
        ids = [vocab.lang_id(pair.lang), *pair.source_ids]
        rows.append(_Row([], ids, [*pair.source_ids, EOS_ID]))
    return rows


def _length_batches(rows: list[_Row], batch_size: int) -> list[list[_Row]]:
    """The rows sorted by length and cut into batches; each epoch shuffles these same batches."""
    order = sorted(range(len(rows)), key=lambda i: (len(rows[i].enc_ids), len(rows[i].dec_in), i))
    return [[rows[i] for i in order[start : start + batch_size]] for start in range(0, len(order), batch_size)]


def _embedded_inputs(model, id_mats: list[np.ndarray], drop_rng, rate: float, ws) -> Tensor:
    """One embedding lookup, with its dropout, over every (B, T) id matrix.

    Rows are time-major within each matrix and the matrices follow each
    other, so the single (sum T * B, E) mask draw consumes the generator in
    the order of a per-step loop that runs the matrices one after another.
    """
    ids = np.concatenate([m.T.ravel() for m in id_mats])
    return ag.embedding_lookup(model.embedding.node(), ids, rate, drop_rng, ws)


def _attention(hs: Tensor, enc_hs: Tensor, enc_lens: np.ndarray) -> Tensor:
    """Global dot-product attention (Luong et al. 2015) as one autograd op.

    ``hs`` holds the (T_dec*B, H) decoder states and ``enc_hs`` the
    (T_enc*B, H) encoder states, both time-major. Returns the (T_dec*B, 2H)
    rows [h_t; context_t] in the same order: every decoder state attends over
    its own row's real encoder steps, with (B, T_dec, T_enc) scores from one
    batched product. The VJP is written by hand from the saved weights; h_t's
    gradient is its own columns' plus the one through the scores.
    """
    bsz = len(enc_lens)
    hsz = hs.value.shape[1]
    q = hs.value.reshape(-1, bsz, hsz).transpose(1, 0, 2)  # (B, T_dec, H)
    k = enc_hs.value.reshape(-1, bsz, hsz).transpose(1, 0, 2)  # (B, T_enc, H)
    pad = np.arange(k.shape[1]) >= enc_lens[:, None, None]
    scores = np.where(pad, -np.inf, q @ k.transpose(0, 2, 1))
    a = np.exp(scores - scores.max(axis=2, keepdims=True))
    a /= a.sum(axis=2, keepdims=True)

    def vjp(grad):
        g = grad[:, hsz:].reshape(-1, bsz, hsz).transpose(1, 0, 2)
        da = g @ k.transpose(0, 2, 1)
        ds = a * (da - (da * a).sum(axis=2, keepdims=True))
        dq = ds @ k
        dk = ds.transpose(0, 2, 1) @ q + a.transpose(0, 2, 1) @ g
        return grad[:, :hsz] + dq.transpose(1, 0, 2).reshape(-1, hsz), dk.transpose(1, 0, 2).reshape(-1, hsz)

    context = (a @ k).transpose(1, 0, 2).reshape(-1, hsz)
    return Tensor(np.concatenate([hs.value, context], axis=1), (hs, enc_hs), vjp)


def _attend(model: Seq2SeqModel, hs: Tensor, enc_hs: Tensor, enc_lens: np.ndarray) -> Tensor:
    """tanh([h_t; context_t] @ wc) for every decoder state in ``hs``."""
    return ag.tanh(ag.matmul(_attention(hs, enc_hs, enc_lens), model.attn_wc.node()))


def _sequence_loss(model, cell, batch: list[_Row], x: Tensor, h: Tensor | None = None,
                   c: Tensor | None = None, enc=None, ws=None) -> tuple[Tensor, int]:
    """The loss path the LM and the translation decoder share.

    Runs ``cell`` from (h, c) over the time-major inputs ``x``, then the
    output layer, one projection and one masked cross-entropy over every
    step as one node. ``enc`` holds the encoder's (states, lengths) when the
    decoder attends. Returns the summed cross-entropy and the token count.
    """
    dec_out, out_lens = pad_batch([r.dec_out for r in batch])
    hs, _, _ = lstm_sequence(cell, x, out_lens, h, c, ws)
    if enc is not None:
        hs = _attend(model, hs, *enc)
    mask = (np.arange(dec_out.shape[1])[:, None] < out_lens).astype(np.float64)
    loss = ag.softmax_cross_entropy(hs, dec_out.T.ravel(), mask.ravel(),
                                    model.proj_w.node(), model.proj_b.node(), ws=ws)
    return loss, int(out_lens.sum())


def _nmt_batch_loss(model: Seq2SeqModel, batch: list[_Row], drop_rng, rate: float, ws=None):
    enc_ids, enc_lens = pad_batch([r.enc_ids for r in batch])
    dec_in, _ = pad_batch([r.dec_in for r in batch])
    x = _embedded_inputs(model, [enc_ids, dec_in], drop_rng, rate, ws)
    split = (np.empty if ws is None else ws.take)(x.value.shape)  # both halves' gradient
    enc_hs, h, c = lstm_sequence(model.encoder, ag.slice_(x, np.s_[: enc_ids.size], split), enc_lens, ws=ws)
    enc = (enc_hs, enc_lens) if model.attn_wc is not None else None
    return _sequence_loss(model, model.decoder, batch, ag.slice_(x, np.s_[enc_ids.size :], split),
                          h, c, enc, ws)


def _lm_batch_loss(model: RnnLmModel, batch: list[_Row], drop_rng, rate: float, ws=None):
    dec_in, _ = pad_batch([r.dec_in for r in batch])
    return _sequence_loss(model, model.cell, batch, _embedded_inputs(model, [dec_in], drop_rng, rate, ws),
                          ws=ws)


def _size_workspace(model, batches: list[list[_Row]], config: TrainConfig, batch_loss,
                    ws: ag.Workspace) -> None:
    """Grows every buffer of ``ws`` to its final size before the first batch.

    Runs one forward and backward pass, whose graph this function drops, over
    B copies of one row, B being the largest batch's row count. A buffer's
    size is a batch's row count times a sum of its step counts plus a
    constant, so the row's encoder input, decoder input and decoder output
    each take as many steps as the largest product of a batch's row count and
    its longest such sequence, over B and rounded up. The pass thus asks
    every buffer for at least what any batch asks, and a long row in a short
    last batch does not count as B long rows. Dropout runs at the run's rate
    from a generator of its own, so the pass takes the buffers in the order
    every batch does. It leaves the parameters' gradients dirty, which each
    batch zeroes first, and makes no update.
    """
    width = max(map(len, batches))

    def steps(seq):  # the longest such sequence, cut to the steps the pass needs
        need = max(len(batch) * max(len(seq(r)) for r in batch) for batch in batches)
        return max((seq(r) for batch in batches for r in batch), key=len)[: -(-need // width)]

    row = _Row(steps(lambda r: r.enc_ids), steps(lambda r: r.dec_in), steps(lambda r: r.dec_out))
    loss_sum, n_tokens = batch_loss(model, [row] * width, np.random.default_rng(0), config.dropout, ws)
    ag.backward(ag.scale(loss_sum, 1.0 / n_tokens))


def _train(model, rows: list[_Row], config: TrainConfig, batch_loss) -> list[float]:
    if not rows:
        raise TrainingError("training corpus is empty")
    params = model.parameters()
    state = AdamState()
    ws = ag.Workspace()
    batches = _length_batches(rows, config.batch_size)
    _size_workspace(model, batches, config, batch_loss, ws)
    curve: list[float] = []
    for epoch in range(config.epochs):
        order_rng = np.random.default_rng([config.seed, 7, epoch])
        drop_rng = np.random.default_rng([config.seed, 11, epoch])
        epoch_ce, epoch_tokens = 0.0, 0
        for batch_idx, batch in enumerate(batches[i] for i in order_rng.permutation(len(batches))):
            zero_gradients(params)
            ws.reset()
            loss_sum, n_tokens = batch_loss(model, batch, drop_rng, config.dropout, ws)
            value = float(loss_sum.value)
            where = f"at epoch {epoch + 1}, batch {batch_idx} ({len(batch)} rows, {n_tokens} tokens)"
            if not np.isfinite(value):
                raise TrainingError(f"non-finite loss {value} {where}")
            ag.backward(ag.scale(loss_sum, 1.0 / n_tokens))
            del loss_sum  # the batch's graph and its node gradients, gone before the update
            norm = clip_gradients(params, config.clip_norm)
            if not np.isfinite(norm):  # a non-finite gradient, or finite ones whose squares overflow
                bad = [p.name for p in params if not np.all(np.isfinite(p.grad))]
                raise TrainingError(f"non-finite gradient for parameter {bad[0]!r} {where}" if bad
                                    else f"gradient norm overflows {where}")
            adam_step(params, config.lr, state)
            epoch_ce += value
            epoch_tokens += n_tokens
        curve.append(epoch_ce / epoch_tokens)
    return curve


def _task(kind, encoded: EncodedCorpus, vocab: SubwordVocab):
    """``encoded`` as the rows of a ``kind`` model, and the batch loss that reads them.

    The pairing is looked up when called, so a batch loss patched on this
    module reaches every caller.
    """
    rows, batch_loss = {Seq2SeqModel: (_nmt_rows, _nmt_batch_loss), RnnLmModel: (_lm_rows, _lm_batch_loss)}[kind]
    return rows(encoded, vocab), batch_loss


def _fit(kind, encoded: EncodedCorpus, vocab: SubwordVocab, config: TrainConfig):
    """A ``kind`` model built from ``[seed, 0]`` and trained on ``encoded``; returns (model, loss curve)."""
    model = kind(len(vocab), config, np.random.default_rng([config.seed, 0]))
    rows, batch_loss = _task(kind, encoded, vocab)
    return model, _train(model, rows, config, batch_loss)


def train_nmt(encoded: EncodedCorpus, vocab: SubwordVocab,
              config: TrainConfig) -> tuple[Seq2SeqModel, list[float]]:
    """Train the many-to-one translation model; returns (model, loss curve).

    The loss curve holds the mean per-token cross-entropy observed during
    each epoch (computed on the forward pass, before that batch's update).
    """
    return _fit(Seq2SeqModel, encoded, vocab, config)


def train_lm(encoded: EncodedCorpus, vocab: SubwordVocab,
             config: TrainConfig) -> tuple[RnnLmModel, list[float]]:
    """Train the multilingual language model; next-token objective over
    [language token] + source."""
    return _fit(RnnLmModel, encoded, vocab, config)


def perplexity(model, encoded: EncodedCorpus, vocab: SubwordVocab) -> float:
    """exp(mean per-token negative log-likelihood) over the corpus.

    Sentences are length-sorted into batches of 64 and run without dropout.
    """
    if not encoded.ordered:
        raise ValueError("perplexity of an empty corpus is undefined")
    rows, batch_loss = _task(type(model), encoded, vocab)
    total_nll, total_tokens = 0.0, 0
    for batch in _length_batches(rows, 64):
        loss, n_tokens = batch_loss(model, batch, None, 0.0)
        total_nll += float(loss.value)
        total_tokens += n_tokens
    return float(np.exp(total_nll / total_tokens))
