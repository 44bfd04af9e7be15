"""Teacher-forced training loops and perplexity evaluation.

Batching buckets sentences by length (stable sort by source/target length,
then original index), chunks them, and shuffles the chunk order with an
epoch-derived seed. Padded positions are masked out of the loss; encoder
states of finished rows are frozen so the final encoder state of every row
is its own last real step.

Perplexity runs the same padded batches, without dropout, through the
inference recurrence :func:`typovec.models.lstm_states`, which freezes
finished rows the same way.
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
    lstm_states,
    lstm_step,
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


def _masked_carry(new: Tensor, prev: Tensor, alive: np.ndarray) -> Tensor:
    # alive is a constant (B,1) 0/1 mask; dead rows keep their previous state
    a = ag.constant(alive)
    na = ag.constant(1.0 - alive)
    return ag.add(ag.mul(new, a), ag.mul(prev, na))


def _run_encoder(model: Seq2SeqModel, batch: list[_Row], drop_rng, rate: float):
    """Returns (h, c, per-step h list, per-step alive masks)."""
    ids, lens = pad_batch([r.enc_ids for r in batch])
    bsz = len(batch)
    embed = model.embedding.node()
    nodes = (model.encoder.w.node(), model.encoder.u.node(), model.encoder.b.node())
    h = ag.constant(np.zeros((bsz, model.hidden_size)))
    c = ag.constant(np.zeros((bsz, model.hidden_size)))
    hs: list[Tensor] = []
    alive_masks: list[np.ndarray] = []
    for t in range(ids.shape[1]):
        x = ag.embedding_lookup(embed, ids[:, t])
        if rate > 0.0:
            x = ag.dropout(x, rate, drop_rng)
        h_new, c_new = lstm_step(model.encoder, x, h, c, nodes=nodes)
        alive = (t < lens).astype(np.float64)[:, None]
        if alive.all():
            h, c = h_new, c_new
        else:
            h = _masked_carry(h_new, h, alive)
            c = _masked_carry(c_new, c, alive)
        hs.append(h)
        alive_masks.append(alive)
    return h, c, hs, alive_masks


def _attention_context(h_dec: Tensor, enc_hs: list[Tensor], alive_masks: list[np.ndarray]) -> Tensor:
    scores = ag.concat(
        [ag.reduce_sum(ag.mul(h_dec, h_enc), axis=1, keepdims=True) for h_enc in enc_hs],
        axis=1,
    )
    neg = np.concatenate([(1.0 - a) * -1e9 for a in alive_masks], axis=1)
    scores = ag.add(scores, ag.constant(neg))
    # softmax over source positions; the shift is a detached constant
    shift = ag.constant(scores.value.max(axis=1, keepdims=True))
    e = ag.exp(ag.sub(scores, shift))
    attn = ag.div(e, ag.reduce_sum(e, axis=1, keepdims=True))
    ctx: Tensor | None = None
    for t, h_enc in enumerate(enc_hs):
        part = ag.mul(h_enc, ag.slice_(attn, np.s_[:, t : t + 1]))
        ctx = part if ctx is None else ag.add(ctx, part)
    return ctx


def _decoder_loss(model: Seq2SeqModel, batch: list[_Row], h: Tensor, c: Tensor,
                  enc_hs, alive_masks, drop_rng, rate: float) -> tuple[Tensor, int]:
    dec_in, _ = pad_batch([r.dec_in for r in batch])
    dec_out, out_lens = pad_batch([r.dec_out for r in batch])
    embed = model.embedding.node()
    nodes = (model.decoder.w.node(), model.decoder.u.node(), model.decoder.b.node())
    proj_w, proj_b = model.proj_w.node(), model.proj_b.node()
    attn_wc = model.attn_wc.node() if model.attn_wc is not None else None
    total: Tensor | None = None
    for t in range(dec_in.shape[1]):
        x = ag.embedding_lookup(embed, dec_in[:, t])
        if rate > 0.0:
            x = ag.dropout(x, rate, drop_rng)
        h, c = lstm_step(model.decoder, x, h, c, nodes=nodes)
        out = h
        if attn_wc is not None:
            ctx = _attention_context(h, enc_hs, alive_masks)
            out = ag.tanh(ag.matmul(ag.concat([h, ctx], axis=1), attn_wc))
        logits = ag.add(ag.matmul(out, proj_w), proj_b)
        mask = (t < out_lens).astype(np.float64)
        step_loss = ag.softmax_cross_entropy(logits, dec_out[:, t], mask)
        total = step_loss if total is None else ag.add(total, step_loss)
    return total, int(out_lens.sum())


def _nmt_batch_loss(model: Seq2SeqModel, batch: list[_Row], drop_rng, rate: float):
    h, c, enc_hs, alive_masks = _run_encoder(model, batch, drop_rng, rate)
    if not model.attention:
        enc_hs, alive_masks = None, None
    return _decoder_loss(model, batch, h, c, enc_hs, alive_masks, drop_rng, rate)


def _lm_batch_loss(model: RnnLmModel, batch: list[_Row], drop_rng, rate: float):
    dec_in, _ = pad_batch([r.dec_in for r in batch])
    dec_out, out_lens = pad_batch([r.dec_out for r in batch])
    bsz = len(batch)
    embed = model.embedding.node()
    nodes = (model.cell.w.node(), model.cell.u.node(), model.cell.b.node())
    proj_w, proj_b = model.proj_w.node(), model.proj_b.node()
    h = ag.constant(np.zeros((bsz, model.hidden_size)))
    c = ag.constant(np.zeros((bsz, model.hidden_size)))
    total: Tensor | None = None
    for t in range(dec_in.shape[1]):
        x = ag.embedding_lookup(embed, dec_in[:, t])
        if rate > 0.0:
            x = ag.dropout(x, rate, drop_rng)
        h, c = lstm_step(model.cell, x, h, c, nodes=nodes)
        logits = ag.add(ag.matmul(h, proj_w), proj_b)
        mask = (t < out_lens).astype(np.float64)
        step_loss = ag.softmax_cross_entropy(logits, dec_out[:, t], mask)
        total = step_loss if total is None else ag.add(total, step_loss)
    return total, int(out_lens.sum())


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


def _log_softmax_np(z: np.ndarray) -> np.ndarray:
    zmax = z.max(axis=-1, keepdims=True)
    ez = np.exp(z - zmax)
    return (z - zmax) - np.log(ez.sum(axis=-1, keepdims=True))


def _batch_nll(model, batch: list[_Row]) -> float:
    """Summed target negative log-likelihood of one padded batch (no dropout)."""
    embed = model.embedding.value
    dec_in, _ = pad_batch([r.dec_in for r in batch])
    dec_out, out_lens = pad_batch([r.dec_out for r in batch])
    h = c = attn_wc = None
    decoder = model.decoder if isinstance(model, Seq2SeqModel) else model.cell
    if isinstance(model, Seq2SeqModel):
        attn_wc = model.attn_wc
        enc_ids, enc_lens = pad_batch([r.enc_ids for r in batch])
        enc_hs = []
        for h, c in lstm_states(model.encoder, embed, enc_ids, enc_lens):
            if attn_wc is not None:
                enc_hs.append(h)
        if attn_wc is not None:
            enc_hs = np.stack(enc_hs, axis=1)  # (B, T_enc, H)
            pad_mask = np.arange(enc_hs.shape[1]) >= enc_lens[:, None]
    rows = np.arange(len(batch))
    nll = 0.0
    # the encoder's final state starts the decoder; attention is not fed back
    # into the recurrence, so it is applied to each decoder state afterwards
    for t, (h, c) in enumerate(lstm_states(decoder, embed, dec_in, out_lens, h, c)):
        out = h
        if attn_wc is not None:
            scores = np.where(pad_mask, -np.inf, np.einsum("bh,bth->bt", h, enc_hs))
            attn = np.exp(scores - scores.max(axis=1, keepdims=True))
            ctx = np.einsum("bt,bth->bh", attn / attn.sum(axis=1, keepdims=True), enc_hs)
            out = np.tanh(np.concatenate([h, ctx], axis=1) @ attn_wc.value)
        logp = _log_softmax_np(out @ model.proj_w.value + model.proj_b.value)
        nll -= float(np.sum(logp[rows, dec_out[:, t]] * (t < out_lens)))
    return nll


def perplexity(model, encoded: EncodedCorpus, vocab: SubwordVocab) -> float:
    """exp(mean per-token negative log-likelihood) over the corpus.

    Sentences are length-sorted into batches of 64 and run without dropout.
    """
    if not encoded.ordered:
        raise ValueError("perplexity of an empty corpus is undefined")
    rows = _nmt_rows(encoded, vocab) if isinstance(model, Seq2SeqModel) else _lm_rows(encoded, vocab)
    rows.sort(key=lambda r: (len(r.enc_ids), len(r.dec_in)))
    total_nll = sum(_batch_nll(model, rows[i : i + 64]) for i in range(0, len(rows), 64))
    total_tokens = sum(len(r.dec_out) for r in rows)
    return float(np.exp(total_nll / total_tokens))
