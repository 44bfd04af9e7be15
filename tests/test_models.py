import contextlib
import hashlib
import io
import math
import tracemalloc

import numpy as np
import pytest

from typovec import autograd as ag
from typovec.autograd import backward
from typovec.bpe import build_vocab, encode_corpus, learn_bpe
from typovec.checkpoint import save_checkpoint
from typovec.cli import main
from typovec.corpus import CorpusStore, LanguageRecord, Registry, SentencePair
from typovec.models import (
    LSTMCellParams,
    RnnLmModel,
    Seq2SeqModel,
    TrainConfig,
    encode,
    load_model,
    lstm_sequence,
    lstm_states,
    lstm_step,
    save_model,
)
from typovec.synth import generate_suite
from typovec import training
from typovec.training import (
    TrainingError,
    _lm_batch_loss,
    _nmt_batch_loss,
    _Row,
    perplexity,
    train_lm,
    train_nmt,
)

from oracles import finite_difference_grads, max_relative_error


def zero_cell(e, h) -> LSTMCellParams:
    rng = np.random.default_rng(0)
    cell = LSTMCellParams.create("z", e, h, rng)
    for p in cell.parameters():
        p.value[...] = 0.0
    return cell


class TestLstmStep:
    def test_zero_everything_is_a_fixed_point(self):
        cell = zero_cell(3, 4)
        h, c = lstm_step(cell, ag.constant(np.zeros(3)), ag.constant(np.zeros(4)), ag.constant(np.zeros(4)))
        np.testing.assert_array_equal(h.value, np.zeros(4))
        np.testing.assert_array_equal(c.value, np.zeros(4))

    def test_saturated_forget_gate_preserves_cell(self, rng):
        cell = zero_cell(3, 4)
        # forget bias +20, input bias -20: f ~ 1, i ~ 0, g = tanh(0) = 0
        cell.b.value[4:8] = 20.0
        cell.b.value[0:4] = -20.0
        c_prev = rng.uniform(-1, 1, size=4)
        _, c = lstm_step(cell, ag.constant(np.zeros(3)), ag.constant(np.zeros(4)), ag.constant(c_prev))
        assert np.max(np.abs(c.value - c_prev)) < 1e-6

    def test_hidden_state_strictly_inside_unit_box(self, rng):
        cell = LSTMCellParams.create("r", 5, 6, rng)
        for p in cell.parameters():
            p.value[...] = rng.uniform(-3, 3, size=p.value.shape)
        h, _ = lstm_step(cell, ag.constant(rng.uniform(-1, 1, size=5)),
                         ag.constant(rng.uniform(-0.9, 0.9, size=6)),
                         ag.constant(rng.uniform(-2, 2, size=6)))
        assert np.all(np.abs(h.value) < 1.0)

    def test_shape_mismatch_reported(self, rng):
        cell = LSTMCellParams.create("r", 3, 4, rng)
        with pytest.raises(ag.ShapeError, match="lstm_step"):
            lstm_step(cell, ag.constant(np.zeros(5)), ag.constant(np.zeros(4)), ag.constant(np.zeros(4)))

    def test_gradients_match_finite_differences(self, rng):
        cell = LSTMCellParams.create("g", 3, 4, rng)
        x = rng.uniform(-1, 1, size=3)
        h0 = rng.uniform(-1, 1, size=4)
        c0 = rng.uniform(-1, 1, size=4)
        weights = rng.uniform(-1, 1, size=4)

        def loss_value() -> float:
            h, c = lstm_step(cell, ag.constant(x), ag.constant(h0), ag.constant(c0))
            out = ag.add(ag.mul(h, ag.constant(weights)), ag.mul(c, ag.constant(weights)))
            return float(ag.reduce_sum(out).value)

        h, c = lstm_step(cell, ag.constant(x), ag.constant(h0), ag.constant(c0))
        out = ag.add(ag.mul(h, ag.constant(weights)), ag.mul(c, ag.constant(weights)))
        backward(ag.reduce_sum(out))
        fd = finite_difference_grads(loss_value, cell.parameters())
        for p in cell.parameters():
            assert max_relative_error(p.grad, fd[p.name]) <= 1e-4, p.name

    def test_inference_twin_matches_graph_step(self, rng):
        # ragged padded batch: each live row matches the per-row graph step,
        # and a finished row keeps its final state
        cell = LSTMCellParams.create("t", 3, 4, rng)
        embedding = rng.uniform(-1, 1, size=(6, 3))
        lens = np.array([4, 1, 3])
        ids = np.array([[1, 2, 3, 4], [5, 0, 0, 0], [3, 3, 1, 0]])
        states = list(lstm_states(cell, embedding, ids, lens))
        assert len(states) == 4
        for row in range(3):
            h, c = ag.constant(np.zeros(4)), ag.constant(np.zeros(4))
            for t in range(4):
                if t < lens[row]:
                    h, c = lstm_step(cell, ag.constant(embedding[ids[row, t]]), h, c)
                np.testing.assert_allclose(states[t][0][row], h.value, rtol=0, atol=1e-15)
                np.testing.assert_allclose(states[t][1][row], c.value, rtol=0, atol=1e-15)


# ragged batches: encoder rows finish at steps 5, 2 and 3, decoder and LM rows at 2, 4 and 1
NMT_ROWS = [
    _Row([10, 3, 4, 5, 2], [1, 6], [6, 2]),
    _Row([11, 2], [1, 7, 8, 9], [7, 8, 9, 2]),
    _Row([10, 9, 2], [1], [2]),
]
LM_ROWS = [
    _Row([], [10, 3], [3, 2]),
    _Row([], [11, 7, 8, 9], [7, 8, 9, 2]),
    _Row([], [10], [2]),
]


class TestLstmSequence:
    def test_states_match_per_row_steps(self, rng):
        # hs holds every step in time-major order; finished rows keep their state
        cell = LSTMCellParams.create("s", 3, 4, rng)
        lens = np.array([4, 1, 3])
        x = rng.uniform(-1, 1, size=(4 * 3, 3))
        h0, c0 = rng.uniform(-1, 1, size=(3, 4)), rng.uniform(-1, 1, size=(3, 4))
        hs, h_last, c_last = lstm_sequence(cell, ag.constant(x), lens, ag.constant(h0), ag.constant(c0))
        for row in range(3):
            h, c = ag.constant(h0[row]), ag.constant(c0[row])
            for t in range(4):
                if t < lens[row]:
                    h, c = lstm_step(cell, ag.constant(x[t * 3 + row]), h, c)
                np.testing.assert_allclose(hs.value[t * 3 + row], h.value, rtol=0, atol=1e-15)
            np.testing.assert_allclose(h_last.value[row], h.value, rtol=0, atol=1e-15)
            np.testing.assert_allclose(c_last.value[row], c.value, rtol=0, atol=1e-15)

    def test_shape_mismatch_reported(self, rng):
        cell = LSTMCellParams.create("s", 3, 4, rng)
        with pytest.raises(ag.ShapeError, match="lstm_sequence"):
            lstm_sequence(cell, ag.constant(np.zeros((5, 3))), np.array([2, 2]))

    @pytest.mark.parametrize("rate", [0.0, 0.1])
    @pytest.mark.parametrize("kind", ["lm", "nmt-attention"])
    def test_batch_loss_gradients_match_finite_differences(self, kind, rate):
        # the hand-written BPTT of the fused op, reached through both training losses on a
        # ragged batch; every evaluation draws the same dropout masks from a fresh generator
        config = TrainConfig(hidden_size=4, embed_size=3, epochs=1, seed=2, attention=True)
        if kind == "lm":
            model, batch_loss, rows = RnnLmModel(12, config, np.random.default_rng(4)), _lm_batch_loss, LM_ROWS
        else:
            model, batch_loss, rows = Seq2SeqModel(12, config, np.random.default_rng(4)), _nmt_batch_loss, NMT_ROWS

        def mean_loss():
            loss, n = batch_loss(model, rows, np.random.default_rng(8), rate)
            return ag.scale(loss, 1.0 / n)

        backward(mean_loss())
        fd = finite_difference_grads(lambda: float(mean_loss().value), model.parameters())
        for p in model.parameters():
            assert max_relative_error(p.grad, fd[p.name]) <= 1e-4, p.name

    # row 0 is the one longest row in "sorted" and "unsorted", and at the full length in all
    ISOLATION_LENS = {
        "full": np.full(24, 11),
        "sorted": np.array([11, *(10 - np.arange(23) // 3)]),
        "unsorted": np.array([11, *np.random.default_rng(3).integers(1, 11, size=23)]),
    }

    @staticmethod
    def _row_results(cell, x, h0, c0, lens, row):
        # the row's states and the gradients of a loss that reads only that row
        bsz = len(lens)
        xt, h0t, c0t = ag.constant(x), ag.constant(h0), ag.constant(c0)
        hs, h, c = lstm_sequence(cell, xt, lens, h0t, c0t)
        weights = np.random.default_rng(9).uniform(-1, 1, size=hs.value.shape)
        rows_of = np.arange(len(x)) % bsz == row
        weights[~rows_of] = 0.0
        picked = np.zeros((bsz, 1))
        picked[row] = 1.0
        loss = ag.add(ag.reduce_sum(ag.mul(hs, ag.constant(weights))),
                      ag.reduce_sum(ag.mul(ag.add(h, ag.scale(c, 0.5)), ag.constant(picked))))
        backward(loss)
        return [a.tobytes() for a in (hs.value[rows_of], h.value[row], c.value[row],
                                      xt.grad[rows_of], h0t.grad[row], c0t.grad[row])]

    def test_row_results_do_not_depend_on_other_rows(self):
        # each step runs only the span of live rows, so a row must come out bit for bit the
        # same whatever the other rows' lengths: a one-row product (gemv) or few rows times
        # the transposed view of u (another OpenBLAS kernel) would sum in another order
        rng = np.random.default_rng(5)
        cell = LSTMCellParams.create("iso", 64, 64, rng)
        steps, bsz = 11, 24
        x = rng.uniform(-1, 1, size=(steps * bsz, 64))
        h0, c0 = rng.uniform(-1, 1, size=(bsz, 64)), rng.uniform(-1, 1, size=(bsz, 64))
        results = {name: self._row_results(cell, x, h0, c0, lens, 0)
                   for name, lens in self.ISOLATION_LENS.items()}
        assert results["sorted"] == results["full"]
        assert results["unsorted"] == results["full"]

        embedding = rng.uniform(-1, 1, size=(30, 64))
        ids = rng.integers(1, 30, size=(bsz, steps))
        states = {}
        for name, lens in self.ISOLATION_LENS.items():
            states[name] = [(h[0].tobytes(), c[0].tobytes())
                            for h, c in lstm_states(cell, embedding, ids, lens, h0, c0)]
        assert states["sorted"] == states["full"]
        assert states["unsorted"] == states["full"]

    def test_attention_graph_does_not_grow_with_length(self):
        # attention is one node over all steps: a batch of long rows builds the same graph
        config = TrainConfig(hidden_size=4, embed_size=3, epochs=1, seed=2, attention=True)
        model = Seq2SeqModel(12, config, np.random.default_rng(4))
        long_rows = [_Row([10, *range(3, 10), 2], [1, *range(3, 11)], [*range(3, 11), 2]),
                     _Row([11, 4, 2], [1, 5, 6, 7, 8, 9], [5, 6, 7, 8, 9, 2])]
        sizes = [len(ag._topo_order(_nmt_batch_loss(model, rows, np.random.default_rng(8), 0.1)[0]))
                 for rows in (NMT_ROWS[2:], long_rows)]
        assert sizes[0] == sizes[1]


@pytest.fixture
def tiny_setup(small_registry, small_corpus):
    merges = learn_bpe(small_corpus, 20)
    vocab = build_vocab(small_corpus, merges, small_registry)
    encoded = encode_corpus(small_corpus, merges, vocab)
    return vocab, encoded


class TestEncode:
    def test_state_count_is_source_length_plus_two(self, tiny_setup, rng):
        vocab, encoded = tiny_setup
        model = Seq2SeqModel(len(vocab), TrainConfig(hidden_size=8, epochs=1, seed=1), rng)
        pair = encoded.by_lang["deu"][0]
        states = encode(model, vocab, "deu", pair.source_ids)
        assert len(states) == len(pair.source_ids) + 2

    def test_empty_source_has_two_steps(self, tiny_setup, rng):
        vocab, encoded = tiny_setup
        model = Seq2SeqModel(len(vocab), TrainConfig(hidden_size=8, epochs=1, seed=1), rng)
        assert len(encode(model, vocab, "fra", [])) == 2

    def test_repeated_calls_identical(self, tiny_setup, rng):
        vocab, encoded = tiny_setup
        model = Seq2SeqModel(len(vocab), TrainConfig(hidden_size=8, epochs=1, seed=1), rng)
        pair = encoded.by_lang["kor"][0]
        a = encode(model, vocab, "kor", pair.source_ids)
        b = encode(model, vocab, "kor", pair.source_ids)
        for (ha, ca), (hb, cb) in zip(a, b):
            np.testing.assert_array_equal(ha, hb)
            np.testing.assert_array_equal(ca, cb)

    def test_unknown_language_rejected(self, tiny_setup, rng):
        vocab, encoded = tiny_setup
        model = Seq2SeqModel(len(vocab), TrainConfig(hidden_size=8, epochs=1, seed=1), rng)
        with pytest.raises(ValueError, match="unknown language"):
            encode(model, vocab, "zzz", [5, 6])


def _single_pair_setup():
    registry = Registry([LanguageRecord("deu", ("G",), 51.0, 10.0)])
    store = CorpusStore()
    store.add(SentencePair("deu", tuple("der hund sieht die katze".split()),
                           tuple("the dog sees the cat".split())))
    merges = learn_bpe(store, 10)
    vocab = build_vocab(store, merges, registry)
    return vocab, encode_corpus(store, merges, vocab)


class TestTraining:
    def test_first_epoch_loss_is_near_uniform(self):
        vocab, encoded = _single_pair_setup()
        config = TrainConfig(hidden_size=16, lr=0.01, dropout=0.0, epochs=1, batch_size=4, seed=3)
        _, curve = train_nmt(encoded, vocab, config)
        assert curve[0] == pytest.approx(math.log(len(vocab)), rel=0.05)

    def test_loss_decreases_on_small_corpus(self, tiny_setup):
        vocab, encoded = tiny_setup
        config = TrainConfig(hidden_size=12, lr=0.02, dropout=0.0, epochs=8, batch_size=4, seed=5)
        _, curve = train_nmt(encoded, vocab, config)
        assert curve[-1] < curve[0]

    def test_same_seed_gives_identical_curves(self, tiny_setup):
        vocab, encoded = tiny_setup
        config = TrainConfig(hidden_size=10, lr=0.02, dropout=0.3, epochs=3, batch_size=4, seed=9)
        _, curve_a = train_nmt(encoded, vocab, config)
        _, curve_b = train_nmt(encoded, vocab, config)
        assert curve_a == curve_b

    @pytest.mark.parametrize("kind", ["lm", "nmt", "nmt-attention"])
    def test_dropout_draws_reproduce_per_step_trainer(self, kind):
        # first-epoch losses of the per-step autograd trainer at commit 0b8333a, which drew
        # one (B, E) dropout mask per time step, encoder steps first; the trained model's
        # perplexity is pinned to the separate numpy evaluator of commit 6020de6
        expected = {"lm": 3.928411298010625, "nmt": 3.4859945768698752,
                    "nmt-attention": 3.480778592470047}[kind]
        expected_ppl = {"lm": 40.60009421917402, "nmt": 18.529701753110082,
                        "nmt-attention": 20.23787688201453}[kind]
        suite = generate_suite(4, 30, seed=5)
        merges = learn_bpe(suite.corpus, 40)
        vocab = build_vocab(suite.corpus, merges, suite.registry)
        encoded = encode_corpus(suite.corpus, merges, vocab)
        config = TrainConfig(hidden_size=12, lr=0.02, dropout=0.1, epochs=1, batch_size=8, seed=9,
                             attention=kind == "nmt-attention")
        model, curve = (train_lm if kind == "lm" else train_nmt)(encoded, vocab, config)
        assert curve[0] == pytest.approx(expected, rel=1e-12, abs=0)
        assert perplexity(model, encoded, vocab) == pytest.approx(expected_ppl, rel=1e-12, abs=0)

    def test_lm_same_seed_identical_and_decreasing(self, tiny_setup):
        vocab, encoded = tiny_setup
        config = TrainConfig(hidden_size=10, lr=0.02, dropout=0.0, epochs=6, batch_size=4, seed=11)
        _, curve_a = train_lm(encoded, vocab, config)
        _, curve_b = train_lm(encoded, vocab, config)
        assert curve_a == curve_b
        assert curve_a[-1] < curve_a[0]

    def test_lm_memorizes_single_sentence(self):
        vocab, encoded = _single_pair_setup()
        config = TrainConfig(hidden_size=24, lr=0.02, dropout=0.0, epochs=200, batch_size=1, seed=6)
        model, _ = train_lm(encoded, vocab, config)
        assert perplexity(model, encoded, vocab) <= 1.1

    def test_attention_variant_trains(self, tiny_setup):
        vocab, encoded = tiny_setup
        config = TrainConfig(hidden_size=8, lr=0.02, dropout=0.0, epochs=2, batch_size=4,
                             seed=13, attention=True)
        model, curve = train_nmt(encoded, vocab, config)
        assert model.attn_wc is not None
        assert math.isfinite(curve[-1])

    def test_empty_corpus_rejected(self, tiny_setup):
        vocab, _ = tiny_setup
        from typovec.bpe import EncodedCorpus

        with pytest.raises(TrainingError, match="empty"):
            train_nmt(EncodedCorpus(), vocab, TrainConfig(hidden_size=8, epochs=1))

    def test_language_token_carries_identity(self):
        # two languages, disjoint lexicons, identical target: with the language
        # token the LM separates them; removing it from a fresh vocabulary
        # (training on a registry whose tokens never match) is not expressible,
        # so compare perplexity of the true-token model against one where the
        # language ids are swapped at evaluation time.
        registry = Registry([
            LanguageRecord("aaa", ("F",), 0.0, 0.0),
            LanguageRecord("bbb", ("G",), 1.0, 1.0),
        ])
        store = CorpusStore()
        for _ in range(4):
            store.add(SentencePair("aaa", ("ka", "tu", "ra"), ("x",)))
            store.add(SentencePair("bbb", ("zo", "mi", "pe"), ("x",)))
        merges = learn_bpe(store, 5)
        vocab = build_vocab(store, merges, registry)
        encoded = encode_corpus(store, merges, vocab)
        config = TrainConfig(hidden_size=16, lr=0.05, dropout=0.0, epochs=60, batch_size=8, seed=21)
        model, _ = train_lm(encoded, vocab, config)
        true_ppl = perplexity(model, encoded, vocab)

        swapped = CorpusStore()
        for p in store.ordered:
            swapped.add(SentencePair("bbb" if p.lang == "aaa" else "aaa", p.source, p.target))
        swapped_ppl = perplexity(model, encode_corpus(swapped, merges, vocab), vocab)
        assert true_ppl < swapped_ppl


def _suite_setup(n_langs, n_sentences, merges):
    suite = generate_suite(n_langs, n_sentences, seed=3)
    table = learn_bpe(suite.corpus, merges)
    vocab = build_vocab(suite.corpus, table, suite.registry)
    return vocab, encode_corpus(suite.corpus, table, vocab)


class TestTrainingWorkspace:
    """Training reuses one workspace for every batch; nothing it returns may alias it."""

    CONFIG = TrainConfig(hidden_size=10, embed_size=6, lr=0.02, dropout=0.2, epochs=2, batch_size=8, seed=3)

    def test_two_runs_in_one_process_give_identical_checkpoints(self, tmp_path):
        vocab, encoded = _suite_setup(4, 24, 30)
        digests = []
        for run in range(2):
            model, _ = train_nmt(encoded, vocab, self.CONFIG)
            path = tmp_path / f"run{run}.ckpt"
            save_checkpoint(path, {p.name: p.value for p in model.parameters()}, seed=3)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("trainer", [train_lm, train_nmt])
    def test_perplexity_after_training_equals_that_of_the_loaded_model(self, trainer, tmp_path):
        vocab, encoded = _suite_setup(4, 24, 30)
        model, curve = trainer(encoded, vocab, self.CONFIG)
        save_model(tmp_path / "m.ckpt", tmp_path / "m.model", model, self.CONFIG, curve, "sha")
        loaded, _, _ = load_model(tmp_path / "m.ckpt", tmp_path / "m.model")
        assert perplexity(model, encoded, vocab) == perplexity(loaded, encoded, vocab)

    def test_ops_outside_training_return_fresh_arrays(self, rng):
        cell = LSTMCellParams.create("fresh", 3, 4, rng)
        x, lens = rng.normal(size=(6, 3)), np.array([3, 2])
        runs = []
        for _ in range(2):
            xt = ag.constant(x)
            hs, h, c = lstm_sequence(cell, xt, lens)
            proj = (ag.constant(rng.normal(size=(4, 5))), ag.constant(rng.normal(size=5)))
            loss = ag.add(ag.softmax_cross_entropy(hs, [0, 1, 2, 3, 4, 0], proj=proj),
                          ag.softmax_cross_entropy(ag.constant(rng.normal(size=(2, 5))), [1, 2]))
            backward(loss)
            runs.append([t.value for t in (hs, h, c)] + [t.grad for t in (xt, hs, *proj)])
        for a, b in zip(*runs):
            assert not np.shares_memory(a, b)

    def test_second_epoch_allocates_no_buffer_of_batch_size(self):
        # every (T*B, .) array comes from the run's workspace, which the first epoch grows to
        # its largest batch: the second epoch's newly traced peak stays below one (T*B, E)
        # embedding output of its longest batch (it was 10 to 12 of them without the workspace)
        vocab, encoded = _suite_setup(4, 64, 20)
        config = TrainConfig(hidden_size=32, embed_size=32, lr=0.02, dropout=0.1, epochs=2, batch_size=32,
                             seed=4)
        for rows, model, batch_loss in [
            (training._nmt_rows(encoded, vocab), Seq2SeqModel(len(vocab), config, np.random.default_rng(0)),
             _nmt_batch_loss),
            (training._lm_rows(encoded, vocab), RnnLmModel(len(vocab), config, np.random.default_rng(0)),
             _lm_batch_loss),
        ]:
            per_epoch = math.ceil(len(rows) / config.batch_size)
            seen = {"calls": 0, "base": 0, "largest": 0}

            def traced(model, batch, *args):
                if seen["calls"] == per_epoch:  # the second epoch starts
                    tracemalloc.reset_peak()
                    seen["base"] = tracemalloc.get_traced_memory()[0]
                if seen["calls"] >= per_epoch:
                    steps = max(len(r.enc_ids) for r in batch) + max(len(r.dec_in) for r in batch)
                    seen["largest"] = max(seen["largest"], steps * len(batch) * config.embed_size * 8)
                seen["calls"] += 1
                return batch_loss(model, batch, *args)

            tracemalloc.start()
            try:
                training._train(model, rows, config, traced)
                peak = tracemalloc.get_traced_memory()[1] - seen["base"]
            finally:
                tracemalloc.stop()
            assert seen["calls"] == 2 * per_epoch
            assert peak < seen["largest"], batch_loss.__name__

    def test_first_epoch_peak_holds_no_outgrown_buffer(self):
        # at seed 8 the shuffled batches grow three times in the first epoch. Each batch's graph
        # is gone before the next batch takes its buffers, and an outgrown buffer is freed before
        # its successor is allocated, so the traced peak is the final workspace, the Adam state
        # that the first step allocates (two moments and two scratch arrays per parameter) and
        # less than one (T*B, E) buffer of the longest batch. Were the previous graph still
        # alive, the outgrown buffers would stay with it: 7 to 9 such buffers more
        vocab, encoded = _suite_setup(4, 128, 20)
        config = TrainConfig(hidden_size=32, embed_size=32, lr=0.02, dropout=0.1, epochs=1, batch_size=64,
                             seed=8)
        for rows, model, batch_loss in [
            (training._nmt_rows(encoded, vocab), Seq2SeqModel(len(vocab), config, np.random.default_rng(0)),
             _nmt_batch_loss),
            (training._lm_rows(encoded, vocab), RnnLmModel(len(vocab), config, np.random.default_rng(0)),
             _lm_batch_loss),
        ]:
            sizes, seen = [], {}  # each batch's (T*B, E) bytes; the run's workspace

            def traced(model, batch, drop_rng, rate, ws):
                steps = max(len(r.enc_ids) for r in batch) + max(len(r.dec_in) for r in batch)
                sizes.append(steps * len(batch) * config.embed_size * 8)
                seen["ws"] = ws
                return batch_loss(model, batch, drop_rng, rate, ws)

            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                training._train(model, rows, config, traced)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            workspace = sum(buf.nbytes for buf in seen["ws"]._buffers)
            adam = 4 * sum(p.value.nbytes for p in model.parameters())
            assert sum(size > max(sizes[:i]) for i, size in enumerate(sizes) if i) == 3
            assert peak < workspace + adam + max(sizes), batch_loss.__name__

    @pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
    def test_overflowing_gradient_norm_is_a_training_error(self, tiny_setup):
        # finite gradients whose squares overflow the norm: no factor clips them, and Adam's
        # second moment would overflow too
        def huge_gradient(model, batch, drop_rng, rate, ws=None):
            b = model.proj_b.node()
            return ag.Tensor(np.float64(1.0), (b,), lambda g: (np.full(b.shape, 1e200),)), len(batch)

        vocab, encoded = tiny_setup
        model = Seq2SeqModel(len(vocab), self.CONFIG, np.random.default_rng(0))
        with pytest.raises(TrainingError, match="gradient norm overflows at epoch 1, batch 0"):
            training._train(model, training._nmt_rows(encoded, vocab), self.CONFIG, huge_gradient)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_gradient_names_epoch_batch_and_parameter(self, tmp_path, capsys, monkeypatch):
        # a finite loss whose backward writes inf into one gradient is a training fault (exit 2);
        # clipping leaves the gradients as they are, so numpy warns of no inf * 0
        def inf_gradient(model, batch, drop_rng, rate, ws=None):
            b = model.proj_b.node()
            grad = np.zeros(b.shape)
            grad[1] = np.inf
            return ag.Tensor(np.float64(1.0), (b,), lambda g: (grad,)), len(batch)

        monkeypatch.setattr(training, "_nmt_batch_loss", inf_gradient)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"workdir={tmp_path / 'work'}\nseed=5\nsynth_langs=4\nsynth_sentences=6\n"
                       "synth_lexicon=10\nnum_merges=10\nhidden_size=4\nembed_size=4\nepochs=1\n",
                       encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            for stage in ("synth", "bpe-learn"):
                assert main(["--config", str(cfg), stage]) == 0
        assert main(["--config", str(cfg), "train-nmt"]) == 2
        err = capsys.readouterr().err
        assert "non-finite gradient for parameter 'proj.b' at epoch 1, batch 0" in err


@pytest.mark.parametrize("attention, digests", [
    (0, ("d812f6055d441388e4724ae4366b62a1b3fcd6218e5a9fce009b81f5b4363dfe",
         "6d5c694f37b5b8cfd8c3d3f2f7128daf3b35c3ca4420347ce0c6964e47dd6de4")),
    (1, ("d812f6055d441388e4724ae4366b62a1b3fcd6218e5a9fce009b81f5b4363dfe",
         "eaed5880cbe4b298176a99eb304712e5bdc44969d662c5fe6690173f56eb816a")),
])
def test_small_suite_checkpoints_match_pinned_digests(tmp_path, attention, digests):
    # computed when every training op allocated its arrays afresh for each batch
    entries = {"workdir": tmp_path / "work", "seed": 5, "synth_langs": 10, "synth_sentences": 20,
               "synth_lexicon": 12, "num_merges": 40, "hidden_size": 16, "embed_size": 12, "lr": 0.02,
               "dropout": 0.1, "epochs": 2, "batch_size": 8, "attention": attention}
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in entries.items()), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        for stage in ("synth", "bpe-learn", "train-lm", "train-nmt"):
            assert main(["--config", str(cfg), stage]) == 0, stage
    assert tuple(hashlib.sha256((tmp_path / "work" / name).read_bytes()).hexdigest()
                 for name in ("lm.ckpt", "nmt.ckpt")) == digests


class TestPerplexity:
    def test_zeroed_model_is_uniform(self, tiny_setup):
        vocab, encoded = tiny_setup
        rng = np.random.default_rng(0)
        model = RnnLmModel(len(vocab), TrainConfig(hidden_size=8, epochs=1), rng)
        for p in model.parameters():
            p.value[...] = 0.0
        assert perplexity(model, encoded, vocab) == pytest.approx(len(vocab), rel=1e-9)

    def test_at_least_one(self, tiny_setup, rng):
        vocab, encoded = tiny_setup
        model = Seq2SeqModel(len(vocab), TrainConfig(hidden_size=8, epochs=1, seed=2), rng)
        assert perplexity(model, encoded, vocab) >= 1.0

    def test_empty_corpus_rejected(self, tiny_setup, rng):
        from typovec.bpe import EncodedCorpus

        vocab, _ = tiny_setup
        model = Seq2SeqModel(len(vocab), TrainConfig(hidden_size=8, epochs=1, seed=2), rng)
        with pytest.raises(ValueError, match="empty"):
            perplexity(model, EncodedCorpus(), vocab)


def test_default_sizes_match_documented_values():
    config = TrainConfig()
    assert config.hidden_size == 512
    assert config.embed_size == 512
    assert config.lr == 0.001
    assert config.dropout == 0.5
    assert config.clip_norm == 5.0
    assert config.attention is False


@pytest.mark.parametrize("field, value", [("lr", 0.0), ("lr", -1e-3), ("lr", math.nan), ("lr", math.inf),
                                          ("clip_norm", -1.0), ("clip_norm", math.nan),
                                          ("clip_norm", math.inf)])
def test_train_config_rejects_bad_lr_and_clip_norm(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


def test_train_config_zero_clip_norm_means_off():
    assert TrainConfig(clip_norm=0.0).clip_norm == 0.0


def test_parameter_names_unique_per_model(rng):
    model = Seq2SeqModel(30, TrainConfig(hidden_size=4, epochs=1), rng)
    names = [p.name for p in model.parameters()]
    assert len(names) == len(set(names))


class TestPersistence:
    def test_seq2seq_round_trip(self, tiny_setup, tmp_path):
        vocab, encoded = tiny_setup
        config = TrainConfig(hidden_size=8, lr=0.02, dropout=0.0, epochs=2, batch_size=4, seed=17)
        model, curve = train_nmt(encoded, vocab, config)
        save_model(tmp_path / "m.ckpt", tmp_path / "m.model", model, config, curve, "sha-of-vocab")
        loaded, manifest, loaded_curve = load_model(tmp_path / "m.ckpt", tmp_path / "m.model")
        assert manifest["type"] == "seq2seq"
        assert manifest["vocab_sha256"] == "sha-of-vocab"
        assert loaded_curve == curve
        for p, q in zip(model.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(p.value, q.value)
        pair = encoded.by_lang["deu"][0]
        for (h1, c1), (h2, c2) in zip(encode(model, vocab, "deu", pair.source_ids),
                                      encode(loaded, vocab, "deu", pair.source_ids)):
            np.testing.assert_array_equal(c1, c2)
