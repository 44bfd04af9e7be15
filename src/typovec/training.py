"""Teacher-forced training loops and perplexity evaluation.

Batching buckets sentences by length (stable sort by source/target length,
then original index), chunks them, and shuffles the chunk order with an
epoch-derived seed. Each padded batch is a handful of graph nodes:

- one embedding lookup and one dropout over every input id of the batch,
  time-major, encoder ids first. The single (T, B, E) mask draw consumes the
  dropout generator in the same order as one (B, E) draw per encoder step
  and then per decoder step;
- one :func:`typovec.models.lstm_sequence` op per recurrence (the encoder,
  then the decoder started from the encoder's final state; the LM's single
  LSTM). Rows that have finished keep their state, so the final encoder
  state of every row is its own last real step;
- with attention, one op that attends every decoder state over its row's
  encoder states with batched (B, T_dec, T_enc) scores, then
  tanh([h_t; context_t] @ wc). Attention is not fed back into the
  recurrence, so it runs once, after it;
- one (T*B, H) @ (H, V) projection and one masked cross-entropy; padded
  positions are masked out of the loss.

Perplexity runs the training loss path: it sums the same batch losses over
length-sorted batches, with dropout off.
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


def _make_batches(rows: list[_Row], batch_size: int, rng: np.random.Generator) -> list[list[_Row]]:
    order = sorted(range(len(rows)), key=lambda i: (len(rows[i].enc_ids), len(rows[i].dec_in), i))
    chunks = [
        [rows[i] for i in order[start : start + batch_size]]
        for start in range(0, len(order), batch_size)
    ]
    return [chunks[i] for i in rng.permutation(len(chunks))]


def _embedded_inputs(model, id_mats: list[np.ndarray], drop_rng, rate: float) -> Tensor:
    """One embedding lookup and one dropout over every (B, T) id matrix.

    Rows are time-major within each matrix and the matrices follow each
    other, so the single (sum T * B, E) mask draw consumes the generator in
    the order of a per-step loop that runs the matrices one after another.
    """
    ids = np.concatenate([m.T.ravel() for m in id_mats])
    x = ag.embedding_lookup(model.embedding.node(), ids)
    return ag.dropout(x, rate, drop_rng) if rate > 0.0 else x


def _attention(hs: Tensor, enc_hs: Tensor, enc_lens: np.ndarray) -> Tensor:
    """Global dot-product attention (Luong et al. 2015) as one autograd op.

    ``hs`` holds the (T_dec*B, H) decoder states and ``enc_hs`` the
    (T_enc*B, H) encoder states, both time-major. Returns the (T_dec*B, H)
    contexts in the same order: every decoder state attends over its own
    row's real encoder steps, with (B, T_dec, T_enc) scores from one batched
    product. The VJP is written by hand from the saved weights.
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
        g = grad.reshape(-1, bsz, hsz).transpose(1, 0, 2)
        da = g @ k.transpose(0, 2, 1)
        ds = a * (da - (da * a).sum(axis=2, keepdims=True))
        dq = ds @ k
        dk = ds.transpose(0, 2, 1) @ q + a.transpose(0, 2, 1) @ g
        return dq.transpose(1, 0, 2).reshape(-1, hsz), dk.transpose(1, 0, 2).reshape(-1, hsz)

    return Tensor((a @ k).transpose(1, 0, 2).reshape(-1, hsz), (hs, enc_hs), vjp)


def _attend(model: Seq2SeqModel, hs: Tensor, enc_hs: Tensor, enc_lens: np.ndarray) -> Tensor:
    """tanh([h_t; context_t] @ wc) for every decoder state in ``hs``."""
    ctx = _attention(hs, enc_hs, enc_lens)
    return ag.tanh(ag.matmul(ag.concat([hs, ctx], axis=1), model.attn_wc.node()))


def _sequence_loss(model, cell, batch: list[_Row], x: Tensor, h: Tensor | None = None,
                   c: Tensor | None = None, enc=None) -> tuple[Tensor, int]:
    """The loss path the LM and the translation decoder share.

    Runs ``cell`` from (h, c) over the time-major inputs ``x``, then one
    projection and one masked cross-entropy over every step. ``enc`` holds
    the encoder's (states, lengths) when the decoder attends. Returns the
    summed cross-entropy and the token count.
    """
    dec_out, out_lens = pad_batch([r.dec_out for r in batch])
    hs, _, _ = lstm_sequence(cell, x, out_lens, h, c)
    if enc is not None:
        hs = _attend(model, hs, *enc)
    logits = ag.linear(hs, model.proj_w.node(), model.proj_b.node())
    mask = (np.arange(dec_out.shape[1])[:, None] < out_lens).astype(np.float64)
    loss = ag.softmax_cross_entropy(logits, dec_out.T.ravel(), mask.ravel())
    return loss, int(out_lens.sum())


def _nmt_batch_loss(model: Seq2SeqModel, batch: list[_Row], drop_rng, rate: float):
    enc_ids, enc_lens = pad_batch([r.enc_ids for r in batch])
    dec_in, _ = pad_batch([r.dec_in for r in batch])
    x = _embedded_inputs(model, [enc_ids, dec_in], drop_rng, rate)
    enc_hs, h, c = lstm_sequence(model.encoder, ag.slice_(x, np.s_[: enc_ids.size]), enc_lens)
    enc = (enc_hs, enc_lens) if model.attn_wc is not None else None
    return _sequence_loss(model, model.decoder, batch, ag.slice_(x, np.s_[enc_ids.size :]), h, c, enc)


def _lm_batch_loss(model: RnnLmModel, batch: list[_Row], drop_rng, rate: float):
    dec_in, _ = pad_batch([r.dec_in for r in batch])
    return _sequence_loss(model, model.cell, batch, _embedded_inputs(model, [dec_in], drop_rng, rate))


def _train(model, rows: list[_Row], config: TrainConfig, batch_loss) -> list[float]:
    if not rows:
        raise TrainingError("training corpus is empty")
    params = model.parameters()
    state = AdamState()
    curve: list[float] = []
    for epoch in range(config.epochs):
        order_rng = np.random.default_rng([config.seed, 7, epoch])
        drop_rng = np.random.default_rng([config.seed, 11, epoch])
        epoch_ce, epoch_tokens = 0.0, 0
        for batch_idx, batch in enumerate(_make_batches(rows, config.batch_size, order_rng)):
            zero_gradients(params)
            loss_sum, n_tokens = batch_loss(model, batch, drop_rng, config.dropout)
            value = float(loss_sum.value)
            if not np.isfinite(value):
                raise TrainingError(
                    f"non-finite loss {value} at epoch {epoch + 1}, batch {batch_idx} "
                    f"({len(batch)} rows, {n_tokens} tokens)"
                )
            ag.backward(ag.scale(loss_sum, 1.0 / n_tokens))
            clip_gradients(params, config.clip_norm)
            adam_step(params, [p.grad for p in params], config.lr, state)
            epoch_ce += value
            epoch_tokens += n_tokens
        curve.append(epoch_ce / epoch_tokens)
    return curve


def train_nmt(encoded: EncodedCorpus, vocab: SubwordVocab,
              config: TrainConfig) -> tuple[Seq2SeqModel, list[float]]:
    """Train the many-to-one translation model; returns (model, loss curve).

    The loss curve holds the mean per-token cross-entropy observed during
    each epoch (computed on the forward pass, before that batch's update).
    """
    rng = np.random.default_rng([config.seed, 0])
    model = Seq2SeqModel(len(vocab), config, rng)
    curve = _train(model, _nmt_rows(encoded, vocab), config, _nmt_batch_loss)
    return model, curve


def train_lm(encoded: EncodedCorpus, vocab: SubwordVocab,
             config: TrainConfig) -> tuple[RnnLmModel, list[float]]:
    """Train the multilingual language model; next-token objective over
    [language token] + source."""
    rng = np.random.default_rng([config.seed, 0])
    model = RnnLmModel(len(vocab), config, rng)
    curve = _train(model, _lm_rows(encoded, vocab), config, _lm_batch_loss)
    return model, curve


def perplexity(model, encoded: EncodedCorpus, vocab: SubwordVocab) -> float:
    """exp(mean per-token negative log-likelihood) over the corpus.

    Sentences are length-sorted into batches of 64 and run without dropout.
    """
    if not encoded.ordered:
        raise ValueError("perplexity of an empty corpus is undefined")
    if isinstance(model, Seq2SeqModel):
        rows, batch_loss = _nmt_rows(encoded, vocab), _nmt_batch_loss
    else:
        rows, batch_loss = _lm_rows(encoded, vocab), _lm_batch_loss
    rows.sort(key=lambda r: (len(r.enc_ids), len(r.dec_in)))
    total_nll, total_tokens = 0.0, 0
    for start in range(0, len(rows), 64):
        loss, n_tokens = batch_loss(model, rows[start : start + 64], None, 0.0)
        total_nll += float(loss.value)
        total_tokens += n_tokens
    return float(np.exp(total_nll / total_tokens))
