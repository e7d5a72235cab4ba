"""Loss values, gradients vs finite differences, and training behavior."""

import json
import math
import re
import struct

import numpy as np
import pytest

from riskrank.cache import CorruptCacheError
from riskrank.corpus import QAPair, synth_dataset
from riskrank.embedding import HashEmbedder
from riskrank.finetune import (
    AdapterParams,
    TrainingConfig,
    _loss_and_param_grads,
    apply_adapter,
    load_adapter,
    mnr_loss,
    save_adapter,
    train_adapter,
)

from blas_kernels import digests_under, why_no_kernel_switch
from gradcheck import finite_diff_check


def cosine(u, v):
    """Cosine of two nonzero vectors, straight from the definition."""
    return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


def scalar_similarity(adapter, questions, positives, scale):
    """``S[i, j] = scale * cos(adapt(q_i), adapt(p_j))``, one scalar cosine at a time."""
    adapted_q = [apply_adapter(adapter, q) for q in questions]
    adapted_p = [apply_adapter(adapter, p) for p in positives]
    return np.array([[scale * cosine(q, p) for p in adapted_p] for q in adapted_q])


def random_batch(rng, n=8, dim=16):
    """(questions, positives): row i of one pairs with row i of the other."""
    return rng.normal(size=(n, dim)), rng.normal(size=(n, dim))


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
    """The forward pass of ``_loss_and_param_grads`` against the definition of S."""

    def test_single_pair(self, rng):
        q = rng.normal(size=(1, 5))
        p = rng.normal(size=(1, 5))
        adapter = AdapterParams.identity(5)
        loss, accuracy, grad_weight, _ = _loss_and_param_grads(np.eye(5), None, q, p, 20.0)
        assert loss == 0.0 == mnr_loss(scalar_similarity(adapter, q, p, 20.0))[0]
        assert accuracy == 1.0
        assert not grad_weight.any()

    def test_self_pairs_have_unit_diagonal(self, rng):
        q = rng.normal(size=(6, 4))
        adapter = AdapterParams.identity(4)
        loss, accuracy, _, _ = _loss_and_param_grads(np.eye(4), None, q, q.copy(), 1.0)
        s = scalar_similarity(adapter, q, q, 1.0)
        np.fill_diagonal(s, 1.0)
        assert loss == pytest.approx(mnr_loss(s)[0], abs=1e-12)
        assert accuracy == 1.0

    def test_matches_scalar_cosine(self, rng):
        questions, positives = random_batch(rng, n=5, dim=7)
        adapter = AdapterParams(weight=rng.normal(size=(7, 7)))
        loss, accuracy, _, _ = _loss_and_param_grads(
            adapter.weight, None, questions, positives, 20.0
        )
        s = scalar_similarity(adapter, questions, positives, 20.0)
        assert loss == pytest.approx(mnr_loss(s)[0], abs=1e-9)
        assert accuracy == np.mean(s.argmax(axis=1) == np.arange(5))

    def test_degenerate_adapter_rejected(self, rng):
        questions, positives = random_batch(rng, n=3, dim=4)
        with pytest.raises(ValueError, match="zero"):
            _loss_and_param_grads(np.zeros((4, 4)), None, questions, positives, 1.0)


class TestMnrLoss:
    def test_single_pair_is_exactly_zero(self):
        assert mnr_loss(np.array([[3.7]]))[0] == 0.0

    def test_two_uniform_rows(self):
        s = np.full((2, 2), 0.5)
        assert mnr_loss(s)[0] == pytest.approx(2.0 * math.log(2.0), abs=1e-9)

    def test_diagonal_two(self):
        s = np.array([[2.0, 0.0], [0.0, 2.0]])
        expected = 2.0 * math.log(1.0 + math.exp(-2.0))
        assert mnr_loss(s)[0] == pytest.approx(expected, abs=1e-9)

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
            assert mnr_loss(s + c)[0] == pytest.approx(mnr_loss(s)[0], abs=1e-9)

    def test_loss_nonnegative_for_plausible_scores(self, rng):
        # with a zero-diagonal-dominant matrix the loss is positive;
        # in general it is finite
        for _ in range(50):
            n = int(rng.integers(2, 10))
            s = rng.normal(size=(n, n))
            value = mnr_loss(s)[0]
            assert math.isfinite(value)

    def test_large_scores_stable(self):
        s = np.array([[1000.0, 999.0], [998.0, 1000.0]])
        value = mnr_loss(s)[0]
        assert math.isfinite(value)
        assert value == pytest.approx(
            math.log(1 + math.exp(-1.0)) + math.log(1 + math.exp(-2.0)), abs=1e-9
        )


class TestMnrLossGrad:
    def test_uniform_two_by_two(self):
        grad = mnr_loss(np.zeros((2, 2)))[1]
        np.testing.assert_allclose(grad, [[-0.5, 0.5], [0.5, -0.5]], atol=1e-15)

    def test_rows_sum_to_zero(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 10))
            grad = mnr_loss(rng.normal(size=(n, n)) * 10)[1]
            np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_matches_finite_differences(self, rng):
        for _ in range(10):
            s = rng.normal(size=(4, 4))
            analytic = mnr_loss(s)[1]
            eps = 1e-6
            for i in range(4):
                for j in range(4):
                    bumped = s.copy()
                    bumped[i, j] += eps
                    up = mnr_loss(bumped)[0]
                    bumped[i, j] -= 2 * eps
                    down = mnr_loss(bumped)[0]
                    numeric = (up - down) / (2 * eps)
                    assert numeric == pytest.approx(
                        analytic[i, j], abs=1e-6, rel=1e-6
                    )


def pipeline_loss(weight, batch, scale, bias=None):
    return _loss_and_param_grads(weight, bias, *batch, scale)[0]


class TestFiniteDiffCheck:
    def test_quadratic(self):
        params = np.arange(1.0, 10.0).reshape(3, 3)
        error = finite_diff_check(
            lambda w: float((w**2).sum()), params, 2.0 * params, eps=1e-4
        )
        assert error < 1e-8

    def test_mnr_pipeline_gradients_raw_similarity(self, rng):
        """Unscaled cosine similarity: eps=1e-3 stays within 1e-4 relative."""
        for trial in range(5):
            batch = random_batch(rng, n=8, dim=16)
            weight = np.eye(16) + 0.1 * rng.normal(size=(16, 16))
            _, _, grad_weight, _ = _loss_and_param_grads(weight, None, *batch, 1.0)
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
        for trial in range(5):
            batch = random_batch(rng, n=8, dim=16)
            weight = np.eye(16) + 0.1 * rng.normal(size=(16, 16))
            _, _, grad_weight, _ = _loss_and_param_grads(weight, None, *batch, 20.0)
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
        batch = random_batch(rng, n=6, dim=8)
        weight = np.eye(8) + 0.05 * rng.normal(size=(8, 8))
        bias = 0.1 * rng.normal(size=8)
        _, _, _, grad_bias = _loss_and_param_grads(weight, bias, *batch, 20.0)
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
        _, _, grad_weight, _ = _loss_and_param_grads(weight, None, *batch, 20.0)

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

    @pytest.mark.parametrize("texts, message", [
        (("risk", "???", "???", "capital"), "pair p1: base embedding of context is all-zero"),
        (("???", "???", "risk", "capital"), "pair p1: base embedding of question is all-zero"),
        (("risk", "capital", "???", "???"), "pair p2: base embedding of question is all-zero"),
    ], ids=["context", "both", "later-pair"])
    def test_zero_embedding_names_the_first_pair_question_first(self, texts, message):
        """The first pair with a zero base embedding is named, and its
        question before its context (``???`` holds no token)."""
        q1, c1, q2, c2 = texts
        pairs = [
            QAPair("p0", "audit", "basel"), QAPair("p1", q1, c1), QAPair("p2", q2, c2),
        ]
        with pytest.raises(ValueError, match=re.escape(message)):
            train_adapter(pairs, HashEmbedder(dim=16, seed=0), TrainingConfig(batch_size=2))

    @pytest.mark.parametrize("extra", [-3, 1])
    def test_embedder_row_count_is_checked(self, extra):
        pairs = tiny_corpus()
        hash_embedder = HashEmbedder(dim=16, seed=0)

        class WrongRows:  # ``extra`` rows more than texts, the rows repeating
            def embed(self, texts):
                return np.resize(hash_embedder.embed(texts), (len(texts) + extra, 16))

        n = len(pairs)
        with pytest.raises(ValueError, match=f"embedder returned {n + extra} vectors for {n} "):
            train_adapter(pairs, WrongRows(), TrainingConfig(batch_size=4))

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
        first = json.loads(lines[0])
        assert {"epoch", "batch", "loss", "in_batch_accuracy"} <= set(first)

    def test_pinned_training_bits(self):
        # Digests of the float64 weight (and bias) and of every batch's
        # (loss, accuracy), for the default path and for a bias trained on
        # unshuffled batches: any change to the order of a floating-point
        # operation in training shows here. Training multiplies through BLAS, whose kernels sum in
        # different orders, so its bits are deterministic per kernel, not
        # across kernels: they are pinned under OpenBLAS's Prescott kernel,
        # which every x86-64 CPU runs, in a child process.
        reason = why_no_kernel_switch()
        if reason:
            pytest.skip(reason)
        assert digests_under("Prescott", "training") == {
            "weight": "188396665e3c34f2c7f922739f30d961d07f1e56cb0c2ec34e31cf8ad75d402c",
            "batches": "c1407c848e6e4dac4b1ad703ca9cfce02783c102325b9bae5beaffeae461bf49",
            "bias_unshuffled.weight":
                "0505b34da43bdd01c0c3d0964cf7bcb1a91469c115accc8150e00f921b73906a",
            "bias_unshuffled.bias":
                "b0da44bfb66dabdd034155a16d2e16dd165f590eaa7a071c26073657e2a2328d",
            "bias_unshuffled.batches":
                "ea6e9092359a5882bc4d4faec94e87c1268343c7e6ac8f02e4c007fe5a0da2d8",
        }

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(batch_size=1)
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainingConfig(scale=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [("batch_size", 2.5), ("batch_size", True), ("epochs", 1.0), ("epochs", True),
         ("seed", 7.0), ("seed", "7")],
    )
    def test_integer_fields_take_only_integers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            TrainingConfig(**{field: value})


def as_float32(values):
    return np.asarray(values).astype(np.float32).astype(np.float64)


class TestAdapterPersistence:
    def test_round_trip(self, tmp_path, rng):
        weight = np.eye(8) + 0.01 * rng.normal(size=(8, 8))
        bias = 0.1 * rng.normal(size=8)
        adapter = AdapterParams(weight=weight, bias=bias, train_pair_ids=("a", "b"))
        config = TrainingConfig(batch_size=4, use_bias=True)
        save_adapter(tmp_path / "adapter", adapter, config)
        loaded, loaded_config = load_adapter(tmp_path / "adapter")
        np.testing.assert_allclose(loaded.weight, as_float32(weight), atol=0)
        assert loaded.bias.tobytes() == as_float32(bias).tobytes()
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

    def test_files_are_rkv1(self, tmp_path):
        weight = np.arange(6.0).reshape(2, 3)
        save_adapter(
            tmp_path / "adapter",
            AdapterParams(weight=weight, bias=np.array([0.5, -1.0])),
            TrainingConfig(),
        )
        assert (tmp_path / "adapter" / "adapter.bin").read_bytes() == (
            b"RKV1" + struct.pack("<I", 3) + struct.pack("<6f", *range(6))
        )
        assert (tmp_path / "adapter" / "bias.bin").read_bytes() == (
            b"RKV1" + struct.pack("<I", 2) + struct.pack("<2f", 0.5, -1.0)
        )
        meta = json.loads((tmp_path / "adapter" / "adapter.json").read_text())
        assert set(meta) == {"config", "d_in", "d_out", "train_pair_ids", "use_bias"}

    def test_pre_rkv1_adapter_rejected(self, tmp_path):
        # Before RKV1, adapter.bin held the bare float32 values.
        save_adapter(tmp_path / "adapter", AdapterParams.identity(4), TrainingConfig())
        bin_path = tmp_path / "adapter" / "adapter.bin"
        bin_path.write_bytes(np.eye(4, dtype="<f4").tobytes())
        message = f"bad magic in RKV1 file {bin_path}"
        with pytest.raises(CorruptCacheError, match=re.escape(message)):
            load_adapter(tmp_path / "adapter")

    @pytest.mark.parametrize("name", ["adapter.bin", "bias.bin"])
    def test_dim_disagreeing_with_json_rejected(self, tmp_path, name):
        config = TrainingConfig(use_bias=True)
        save_adapter(tmp_path / "adapter", AdapterParams.identity(4, use_bias=True), config)
        save_adapter(tmp_path / "other", AdapterParams.identity(5, use_bias=True), config)
        (tmp_path / "adapter" / name).write_bytes((tmp_path / "other" / name).read_bytes())
        damaged = tmp_path / "adapter" / name
        with pytest.raises(CorruptCacheError, match=re.escape(str(damaged))):
            load_adapter(tmp_path / "adapter")

    @pytest.mark.parametrize(
        "damage, field",
        [
            (lambda meta: meta.pop("d_out"), "missing field 'd_out'"),
            (lambda meta: meta.update(d_in="4"), "field 'd_in'"),
            (lambda meta: meta["config"].update(momentum=0.9), "field 'config'.*'momentum'"),
            (lambda meta: meta["config"].update(batch_size=2.5), "field 'config'.*batch_size"),
            (lambda meta: meta.update(train_pair_ids="ab"), "field 'train_pair_ids'"),
            ('{"d_out": 4,', "invalid JSON"),
            ("[4, 4]", "expected a JSON object"),
        ],
        ids=[
            "missing-d_out", "string-d_in", "unknown-config-key", "float-batch-size",
            "string-pair-ids",
            "invalid-json", "not-an-object",
        ],
    )
    def test_malformed_json_names_file_and_field(self, tmp_path, damage, field):
        # ``damage`` edits the parsed adapter.json, or is the file's new text.
        save_adapter(tmp_path / "adapter", AdapterParams.identity(4), TrainingConfig())
        meta_path = tmp_path / "adapter" / "adapter.json"
        if isinstance(damage, str):
            meta_path.write_text(damage)
        else:
            meta = json.loads(meta_path.read_text())
            damage(meta)
            meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"^{re.escape(str(meta_path))}: {field}"):
            load_adapter(tmp_path / "adapter")
