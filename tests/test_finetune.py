"""Loss values, gradients vs finite differences, and training behavior."""

import math

import numpy as np
import pytest

from riskrank.corpus import QAPair, synth_dataset
from riskrank.embedding import HashEmbedder
from riskrank.finetune import (
    AdapterParams,
    TrainingBatch,
    TrainingConfig,
    apply_adapter,
    batch_similarity,
    load_adapter,
    mnr_loss,
    mnr_loss_grad,
    save_adapter,
    train_adapter,
)

from gradcheck import finite_diff_check


def cosine(u, v):
    """Cosine of two nonzero vectors, straight from the definition."""
    return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


def random_batch(rng, n=8, dim=16):
    return TrainingBatch(
        query_vecs=rng.normal(size=(n, dim)),
        positive_vecs=rng.normal(size=(n, dim)),
    )


class TestApplyAdapter:
    def test_identity(self):
        adapter = AdapterParams.identity(4)
        v = np.array([0.5, -1.0, 2.0, 0.0])
        assert np.array_equal(apply_adapter(adapter, v), v)

    def test_scaling(self):
        adapter = AdapterParams(weight=2.0 * np.eye(3))
        v = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(apply_adapter(adapter, v), 2.0 * v)

    def test_basis_vector_selects_column(self, rng):
        weight = rng.normal(size=(3, 3))
        adapter = AdapterParams(weight=weight)
        out = apply_adapter(adapter, np.array([1.0, 0.0, 0.0]))
        assert np.array_equal(out, weight[:, 0])

    def test_bias_added(self):
        adapter = AdapterParams(weight=np.eye(2), bias=np.array([1.0, -1.0]))
        out = apply_adapter(adapter, np.array([0.0, 0.0]))
        assert np.array_equal(out, [1.0, -1.0])

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            apply_adapter(AdapterParams.identity(3), np.ones(4))

    def test_nonfinite_weight_rejected(self):
        with pytest.raises(ValueError):
            AdapterParams(weight=np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestBatchSimilarity:
    def test_single_pair(self, rng):
        q = rng.normal(size=(1, 5))
        p = rng.normal(size=(1, 5))
        batch = TrainingBatch(query_vecs=q, positive_vecs=p)
        s = batch_similarity(AdapterParams.identity(5), batch, scale=20.0)
        assert s.shape == (1, 1)
        assert s[0, 0] == pytest.approx(20.0 * cosine(q[0], p[0]), abs=1e-10)

    def test_self_pairs_have_unit_diagonal(self, rng):
        q = rng.normal(size=(6, 4))
        batch = TrainingBatch(query_vecs=q, positive_vecs=q.copy())
        s = batch_similarity(AdapterParams.identity(4), batch, scale=1.0)
        np.testing.assert_allclose(np.diagonal(s), 1.0, atol=1e-12)

    def test_matches_scalar_cosine(self, rng):
        batch = random_batch(rng, n=5, dim=7)
        weight = rng.normal(size=(7, 7))
        adapter = AdapterParams(weight=weight)
        s = batch_similarity(adapter, batch, scale=20.0)
        for i in range(5):
            for j in range(5):
                expected = 20.0 * cosine(
                    apply_adapter(adapter, batch.query_vecs[i]),
                    apply_adapter(adapter, batch.positive_vecs[j]),
                )
                assert s[i, j] == pytest.approx(expected, abs=1e-9)

    def test_degenerate_adapter_rejected(self, rng):
        batch = random_batch(rng, n=3, dim=4)
        with pytest.raises(ValueError, match="zero"):
            batch_similarity(AdapterParams(weight=np.zeros((4, 4))), batch, scale=1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TrainingBatch(query_vecs=np.ones((3, 4)), positive_vecs=np.ones((2, 4)))


class TestMnrLoss:
    def test_single_pair_is_exactly_zero(self):
        assert mnr_loss(np.array([[3.7]])) == 0.0

    def test_two_uniform_rows(self):
        s = np.full((2, 2), 0.5)
        assert mnr_loss(s) == pytest.approx(2.0 * math.log(2.0), abs=1e-9)

    def test_diagonal_two(self):
        s = np.array([[2.0, 0.0], [0.0, 2.0]])
        expected = 2.0 * math.log(1.0 + math.exp(-2.0))
        assert mnr_loss(s) == pytest.approx(expected, abs=1e-9)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            mnr_loss(np.ones((2, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            mnr_loss(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_shift_invariance(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 8))
            s = rng.normal(size=(n, n)) * 5.0
            c = float(rng.uniform(-100, 100))
            assert mnr_loss(s + c) == pytest.approx(mnr_loss(s), abs=1e-9)

    def test_loss_nonnegative_for_plausible_scores(self, rng):
        # with a zero-diagonal-dominant matrix the loss is positive;
        # in general it is finite
        for _ in range(50):
            n = int(rng.integers(2, 10))
            s = rng.normal(size=(n, n))
            value = mnr_loss(s)
            assert math.isfinite(value)

    def test_large_scores_stable(self):
        s = np.array([[1000.0, 999.0], [998.0, 1000.0]])
        value = mnr_loss(s)
        assert math.isfinite(value)
        assert value == pytest.approx(
            math.log(1 + math.exp(-1.0)) + math.log(1 + math.exp(-2.0)), abs=1e-9
        )


class TestMnrLossGrad:
    def test_uniform_two_by_two(self):
        grad = mnr_loss_grad(np.zeros((2, 2)))
        np.testing.assert_allclose(grad, [[-0.5, 0.5], [0.5, -0.5]], atol=1e-15)

    def test_rows_sum_to_zero(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 10))
            grad = mnr_loss_grad(rng.normal(size=(n, n)) * 10)
            np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_matches_finite_differences(self, rng):
        for _ in range(10):
            s = rng.normal(size=(4, 4))
            analytic = mnr_loss_grad(s)
            eps = 1e-6
            for i in range(4):
                for j in range(4):
                    bumped = s.copy()
                    bumped[i, j] += eps
                    up = mnr_loss(bumped)
                    bumped[i, j] -= 2 * eps
                    down = mnr_loss(bumped)
                    numeric = (up - down) / (2 * eps)
                    assert numeric == pytest.approx(
                        analytic[i, j], abs=1e-6, rel=1e-6
                    )


def pipeline_loss(weight, batch, scale, bias=None):
    adapter = AdapterParams(weight=weight, bias=bias)
    return mnr_loss(batch_similarity(adapter, batch, scale))


class TestFiniteDiffCheck:
    def test_quadratic(self):
        params = np.arange(1.0, 10.0).reshape(3, 3)
        error = finite_diff_check(
            lambda w: float((w**2).sum()), params, 2.0 * params, eps=1e-4
        )
        assert error < 1e-8

    def test_mnr_pipeline_gradients_raw_similarity(self, rng):
        """Unscaled cosine similarity: eps=1e-3 stays within 1e-4 relative."""
        from riskrank.finetune import _loss_and_param_grads

        for trial in range(5):
            batch = random_batch(rng, n=8, dim=16)
            weight = np.eye(16) + 0.1 * rng.normal(size=(16, 16))
            adapter = AdapterParams(weight=weight)
            _, _, grad_weight, _ = _loss_and_param_grads(adapter, batch, 1.0)
            error = finite_diff_check(
                lambda w: pipeline_loss(w, batch, 1.0),
                weight,
                grad_weight,
                eps=1e-3,
                max_coords=64,
                seed=trial,
            )
            assert error < 1e-4

    def test_mnr_pipeline_gradients_training_scale(self, rng):
        """scale=20 steepens the loss, so the step must shrink accordingly."""
        from riskrank.finetune import _loss_and_param_grads

        for trial in range(5):
            batch = random_batch(rng, n=8, dim=16)
            weight = np.eye(16) + 0.1 * rng.normal(size=(16, 16))
            adapter = AdapterParams(weight=weight)
            _, _, grad_weight, _ = _loss_and_param_grads(adapter, batch, 20.0)
            error = finite_diff_check(
                lambda w: pipeline_loss(w, batch, 20.0),
                weight,
                grad_weight,
                eps=1e-4,
                max_coords=64,
                seed=trial,
            )
            assert error < 1e-4

    def test_bias_gradient(self, rng):
        from riskrank.finetune import _loss_and_param_grads

        batch = random_batch(rng, n=6, dim=8)
        weight = np.eye(8) + 0.05 * rng.normal(size=(8, 8))
        bias = 0.1 * rng.normal(size=8)
        adapter = AdapterParams(weight=weight, bias=bias)
        _, _, _, grad_bias = _loss_and_param_grads(adapter, batch, 20.0)
        error = finite_diff_check(
            lambda b: pipeline_loss(weight, batch, 20.0, bias=b),
            bias,
            grad_bias,
            eps=1e-3,
        )
        assert error < 1e-4

    def test_tiny_eps_on_float32_is_noise(self, rng):
        """Negative control: a step below float32 resolution reads pure noise."""
        batch = random_batch(rng, n=4, dim=8)
        weight = np.eye(8)
        adapter = AdapterParams(weight=weight)
        from riskrank.finetune import _loss_and_param_grads

        _, _, grad_weight, _ = _loss_and_param_grads(adapter, batch, 20.0)

        def loss32(w):
            w32 = np.asarray(w, dtype=np.float32).astype(np.float64)
            return pipeline_loss(w32, batch, 20.0)

        error = finite_diff_check(
            loss32, weight, grad_weight, eps=1e-12, max_coords=16
        )
        assert error > 0.1

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            finite_diff_check(lambda w: 0.0, np.ones(2), np.ones(2), eps=0.0)


def tiny_corpus(n=30):
    docs, pairs = synth_dataset(3, n // 3, 12, seed=11)
    return pairs


class TestTrainAdapter:
    def test_zero_learning_rate_keeps_identity(self):
        pairs = tiny_corpus()
        embedder = HashEmbedder(dim=32, seed=0)
        config = TrainingConfig(batch_size=4, epochs=2, learning_rate=0.0, seed=3)
        adapter, report = train_adapter(pairs, embedder, config)
        assert np.array_equal(adapter.weight, np.eye(32))
        assert len(report.epoch_mean_loss) == 2

    def test_deterministic_under_seed(self):
        pairs = tiny_corpus()
        embedder = HashEmbedder(dim=32, seed=0)
        config = TrainingConfig(batch_size=4, epochs=2, learning_rate=0.05, seed=3)
        a, _ = train_adapter(pairs, embedder, config)
        b, _ = train_adapter(pairs, embedder, config)
        assert a.weight.tobytes() == b.weight.tobytes()

    def test_seed_changes_batching(self):
        pairs = tiny_corpus()
        embedder = HashEmbedder(dim=32, seed=0)
        a, _ = train_adapter(
            pairs, embedder, TrainingConfig(batch_size=4, seed=1, learning_rate=0.05)
        )
        b, _ = train_adapter(
            pairs, embedder, TrainingConfig(batch_size=4, seed=2, learning_rate=0.05)
        )
        assert a.weight.tobytes() != b.weight.tobytes()

    def test_records_training_pair_ids(self):
        pairs = tiny_corpus()
        embedder = HashEmbedder(dim=16, seed=0)
        adapter, _ = train_adapter(pairs, embedder, TrainingConfig(batch_size=4))
        assert adapter.train_pair_ids == tuple(p.pair_id for p in pairs)

    def test_short_final_batch_kept_when_pair_remains(self):
        # 10 pairs, batch 4 -> batches of 4, 4, 2: the tail is trained on
        pairs = tiny_corpus(30)[:10]
        embedder = HashEmbedder(dim=16, seed=0)
        config = TrainingConfig(batch_size=4, epochs=1, learning_rate=0.05, seed=0)
        _, report = train_adapter(pairs, embedder, config)
        assert [b.batch_size for b in report.batches] == [4, 4, 2]

    def test_single_pair_tail_dropped(self):
        # 9 pairs, batch 4 -> 4, 4, and a 1-pair tail with no negatives
        pairs = tiny_corpus(30)[:9]
        embedder = HashEmbedder(dim=16, seed=0)
        config = TrainingConfig(batch_size=4, epochs=1, learning_rate=0.05, seed=0)
        _, report = train_adapter(pairs, embedder, config)
        assert [b.batch_size for b in report.batches] == [4, 4]

    def test_shared_context_never_shares_a_batch(self):
        # 4 contexts, 3 questions each; every text embeds to its context's
        # basis vector, so a batch holding one context twice has loss >= log 2
        pairs = [
            QAPair(f"p{c}{i}", f"question {c} {i}", f"context {c}")
            for c in range(4) for i in range(3)
        ]
        vectors = {}
        for pair in pairs:
            vectors[pair.question] = vectors[pair.context] = np.eye(8)[int(pair.pair_id[1])]

        class ContextBasis:
            def embed(self, texts):
                return np.stack([vectors[t] for t in texts])

        config = TrainingConfig(batch_size=4, epochs=3, learning_rate=0.0, scale=20.0, seed=3)
        _, report = train_adapter(pairs, ContextBasis(), config)
        assert report.batches
        assert all(b.loss < 1e-6 for b in report.batches)

    def test_one_context_has_no_negatives(self):
        pairs = [QAPair(f"p{i}", f"question {i}", "same context") for i in range(4)]
        with pytest.raises(ValueError, match="distinct contexts"):
            train_adapter(pairs, HashEmbedder(dim=16), TrainingConfig(batch_size=2))

    def test_too_few_pairs_rejected(self):
        pairs = tiny_corpus(30)[:3]
        embedder = HashEmbedder(dim=16, seed=0)
        with pytest.raises(ValueError, match="batch_size"):
            train_adapter(pairs, embedder, TrainingConfig(batch_size=12))

    def test_zero_embedding_names_the_pair(self):
        pairs = [
            QAPair("good-1", "risk capital", "capital requirements"),
            QAPair("bad-2", "???", "stress testing"),  # tokenizes to nothing
            QAPair("good-3", "liquidity", "coverage ratio"),
        ]
        embedder = HashEmbedder(dim=16, seed=0)
        with pytest.raises(ValueError, match="bad-2"):
            train_adapter(pairs, embedder, TrainingConfig(batch_size=2))

    def test_epoch_callback_sees_snapshots(self):
        pairs = tiny_corpus()
        embedder = HashEmbedder(dim=16, seed=0)
        seen = []

        def callback(epoch, snapshot):
            seen.append((epoch, snapshot.weight.copy()))

        config = TrainingConfig(batch_size=4, epochs=2, learning_rate=0.05, seed=1)
        adapter, _ = train_adapter(pairs, embedder, config, epoch_callback=callback)
        assert [epoch for epoch, _ in seen] == [1, 2]
        assert np.array_equal(seen[-1][1], adapter.weight)
        assert not np.array_equal(seen[0][1], seen[1][1])

    def test_training_log_jsonl(self, tmp_path):
        pairs = tiny_corpus()
        embedder = HashEmbedder(dim=16, seed=0)
        _, report = train_adapter(
            pairs, embedder, TrainingConfig(batch_size=4, epochs=1, learning_rate=0.05)
        )
        report.write_jsonl(tmp_path / "log.jsonl")
        lines = (tmp_path / "log.jsonl").read_text().splitlines()
        assert len(lines) == len(report.batches)
        import json

        first = json.loads(lines[0])
        assert {"epoch", "batch", "loss", "in_batch_accuracy"} <= set(first)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(batch_size=1)
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainingConfig(scale=0.0)


class TestAdapterPersistence:
    def test_round_trip(self, tmp_path, rng):
        weight = np.eye(8) + 0.01 * rng.normal(size=(8, 8))
        adapter = AdapterParams(
            weight=weight, bias=0.1 * rng.normal(size=8), train_pair_ids=("a", "b")
        )
        config = TrainingConfig(batch_size=4, use_bias=True)
        save_adapter(tmp_path / "adapter", adapter, config)
        loaded, loaded_config = load_adapter(tmp_path / "adapter")
        np.testing.assert_allclose(
            loaded.weight, weight.astype(np.float32).astype(np.float64), atol=0
        )
        assert loaded.train_pair_ids == ("a", "b")
        assert loaded_config == config

    def test_identity_survives_float32(self, tmp_path):
        adapter = AdapterParams.identity(16)
        save_adapter(tmp_path / "adapter", adapter, TrainingConfig())
        loaded, _ = load_adapter(tmp_path / "adapter")
        assert np.array_equal(loaded.weight, np.eye(16))

    def test_truncated_bin_rejected(self, tmp_path):
        adapter = AdapterParams.identity(4)
        save_adapter(tmp_path / "adapter", adapter, TrainingConfig())
        blob = (tmp_path / "adapter" / "adapter.bin").read_bytes()
        (tmp_path / "adapter" / "adapter.bin").write_bytes(blob[:-4])
        with pytest.raises(ValueError, match="adapter.bin"):
            load_adapter(tmp_path / "adapter")
