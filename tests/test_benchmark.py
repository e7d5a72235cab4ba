"""End-to-end evaluation harness, comparison tables, and report emission."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from riskrank.benchmark import (
    BenchmarkTable,
    EvalConfig,
    MetricComparison,
    compare_adapter,
    compare_systems,
    emit_report,
    make_run_dir,
    run_eval,
)
from riskrank.corpus import DatasetSplit, QAPair, split_pairs, synth_dataset
from riskrank.embedding import HashEmbedder
from riskrank.finetune import AdapterParams
from riskrank.index import Run
from riskrank.metrics import MetricReport, evaluate_run

from blas_kernels import KERNELS, digests_under, why_no_kernel_switch
from reference import reference_ranked_list, reference_unit_rows


def small_corpus():
    _, pairs = synth_dataset(3, 20, 30, seed=21)
    return pairs, split_pairs(pairs, ratio=0.9, seed=21)


class PerfectEmbedder:
    """Maps each question and its paired context to the same unit vector."""

    def __init__(self, pairs, dim=16):
        self.dim = dim
        rng = np.random.default_rng(5)
        self.lookup = {}
        for pair in pairs:
            vec = reference_unit_rows([rng.normal(size=dim)])[0]
            self.lookup[pair.question] = vec
            self.lookup[pair.context] = vec

    def embed(self, texts):
        return np.stack([self.lookup[t] for t in texts])


class TestEvalConfig:
    def test_defaults_valid(self):
        config = EvalConfig()
        assert config.retrieval_mode == "dense"
        assert config.candidate_pool == "all_contexts"

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            EvalConfig(retrieval_mode="quantum")

    def test_bad_pool(self):
        with pytest.raises(ValueError):
            EvalConfig(candidate_pool="everything")

    def test_empty_k_list(self):
        with pytest.raises(ValueError):
            EvalConfig(k_list=())

    def test_rerank_accepts_only_none(self):
        assert EvalConfig().to_dict()["rerank"] is None
        with pytest.raises(ValueError, match="rerank must be None"):
            EvalConfig(rerank="x")

    def test_fingerprint_stable_and_sensitive(self):
        a = EvalConfig(seed=1)
        b = EvalConfig(seed=1)
        c = EvalConfig(seed=2)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()


class TestRunEval:
    def test_identity_adapter_equals_no_adapter(self):
        pairs, split = small_corpus()
        embedder = HashEmbedder(dim=64, seed=0)
        config = EvalConfig(k_list=(5, 10, 100))
        base = run_eval(pairs, split, embedder, config, adapter=None)
        identity = run_eval(
            pairs, split, embedder, config, adapter=AdapterParams.identity(64)
        )
        assert base.to_json_bytes() == identity.to_json_bytes()

    def test_perfect_embedder_scores_one(self):
        pairs, split = small_corpus()
        embedder = PerfectEmbedder(pairs)
        config = EvalConfig(candidate_pool="test_contexts", k_list=(5, 10, 100))
        report = run_eval(pairs, split, embedder, config)
        assert all(value == 1.0 for value in report.aggregate.values())

    def test_leakage_guard(self):
        pairs, split = small_corpus()
        embedder = HashEmbedder(dim=32, seed=0)
        leaked = AdapterParams(
            np.eye(32), train_pair_ids=tuple(p.pair_id for p in pairs)  # includes test
        )
        with pytest.raises(ValueError, match="trained on"):
            run_eval(pairs, split, embedder, EvalConfig(), adapter=leaked)

    def test_clean_adapter_passes_guard(self):
        pairs, split = small_corpus()
        embedder = HashEmbedder(dim=32, seed=0)
        clean = AdapterParams(np.eye(32), train_pair_ids=tuple(p.pair_id for p in split.train))
        run_eval(pairs, split, embedder, EvalConfig(), adapter=clean)

    def test_empty_test_split_rejected(self):
        pairs, _ = small_corpus()
        broken = DatasetSplit(train=tuple(pairs), test=(), ratio=0.9, seed=0)
        with pytest.raises(ValueError, match="test"):
            run_eval(pairs, broken, HashEmbedder(dim=8), EvalConfig())

    def test_pool_must_contain_test_contexts(self):
        pairs, split = small_corpus()
        pool_without_test = [p for p in pairs if p.pair_id not in
                             {q.pair_id for q in split.test}]
        with pytest.raises(ValueError, match="missing test contexts"):
            run_eval(pool_without_test, split, HashEmbedder(dim=8), EvalConfig())

    def test_unknown_rerank_hook(self):
        pairs, split = small_corpus()
        with pytest.raises(ValueError, match="rerank"):
            run_eval(pairs, split, HashEmbedder(dim=8), EvalConfig(rerank="nope"))

    def test_lexical_and_hybrid_modes(self):
        pairs, split = small_corpus()
        embedder = HashEmbedder(dim=64, seed=0)
        lexical = run_eval(
            pairs, split, embedder, EvalConfig(retrieval_mode="lexical", k_list=(10,))
        )
        hybrid = run_eval(
            pairs, split, embedder, EvalConfig(retrieval_mode="hybrid", k_list=(10,))
        )
        assert 0.0 <= lexical.aggregate["MRR@10"] <= 1.0
        assert 0.0 <= hybrid.aggregate["MRR@10"] <= 1.0

    def test_deterministic_reports(self):
        pairs, split = small_corpus()
        embedder = HashEmbedder(dim=32, seed=0)
        config = EvalConfig(retrieval_mode="hybrid", k_list=(5, 10, 100))
        a = run_eval(pairs, split, embedder, config)
        b = run_eval(pairs, split, embedder, config)
        assert a.to_json_bytes() == b.to_json_bytes()

    @pytest.mark.parametrize("mode", ["dense", "lexical", "hybrid"])
    def test_questions_sharing_a_context_all_hit_it(self, mode):
        shared = "capital buffer liquidity stress"
        questions = ["capital buffer liquidity", "buffer liquidity stress",
                     "liquidity stress capital", "stress capital buffer"]
        test = tuple(QAPair(f"q{i}", q, shared) for i, q in enumerate(questions))
        train = tuple(
            QAPair(f"t{i}", f"other question {i}", f"unrelated passage number {i}")
            for i in range(6)
        )
        split = DatasetSplit(train=train, test=test, ratio=0.6, seed=0)
        config = EvalConfig(retrieval_mode=mode, k_list=(1, 10))
        report = run_eval(train + test, split, HashEmbedder(dim=256, seed=0), config)
        assert report.aggregate["MRR@10"] == 1.0
        assert report.aggregate["HR@1"] == 1.0

    def test_context_shared_with_a_train_pair_is_not_leakage(self):
        train = (QAPair("t0", "what is the buffer", "capital buffer rules"),
                 QAPair("t1", "who reports", "reporting duties"))
        test = (QAPair("e0", "define the buffer", "capital buffer rules"),)
        split = DatasetSplit(train=train, test=test, ratio=0.5, seed=0)
        adapter = AdapterParams(np.eye(32), train_pair_ids=("t0", "t1"))
        embedder = HashEmbedder(dim=32, seed=0)
        report = run_eval(train + test, split, embedder, EvalConfig(k_list=(1,)),
                          adapter=adapter)
        assert report.per_query["e0"]["HR@1"] == 1.0
        adapter = replace(adapter, train_pair_ids=("t0", "e0"))
        with pytest.raises(ValueError, match="trained on"):
            run_eval(train + test, split, embedder, EvalConfig(), adapter=adapter)

    @pytest.mark.parametrize("mode", ["dense", "lexical", "hybrid"])
    def test_compare_adapter_equals_two_runs_and_embeds_once(self, mode):
        pairs, split = small_corpus()
        embedder = HashEmbedder(dim=32, seed=0)
        calls = []

        class Counting:
            def embed(self, texts):
                calls.append(len(texts))
                return embedder.embed(texts)

        adapter = AdapterParams(
            weight=np.eye(32) + 0.1 * np.random.default_rng(3).normal(size=(32, 32)),
            bias=np.full(32, 0.01),
        )
        config = EvalConfig(retrieval_mode=mode)
        comparison = compare_adapter(pairs, split, Counting(), config, adapter)
        assert comparison.base.to_json_bytes() == run_eval(
            pairs, split, embedder, config).to_json_bytes()
        assert comparison.finetuned.to_json_bytes() == run_eval(
            pairs, split, embedder, config, adapter=adapter).to_json_bytes()
        assert calls == ([] if mode == "lexical" else [len(pairs), len(split.test)])

    def test_bad_embedder_output_count(self):
        pairs, split = small_corpus()

        class Broken:
            dim = 8

            def embed(self, texts):
                return np.zeros((max(0, len(texts) - 1), 8), dtype=np.float32)

        with pytest.raises(ValueError, match="embedder returned"):
            run_eval(pairs, split, Broken(), EvalConfig())


def test_reports_are_equal_under_every_blas_kernel():
    """The promise that dense scores, and so rankings, index rows and
    reports (a ``riskrank eval`` one among them), are bit-stable across BLAS
    builds, checked under three OpenBLAS kernels in child processes. The raw
    float64 matmul must differ between them first, or the check would prove
    nothing."""
    reason = why_no_kernel_switch()
    if reason:
        pytest.skip(reason)
    runs = [digests_under(kernel, "eval") for kernel in KERNELS]
    if len({digests.pop("matmul") for digests in runs}) == 1:
        pytest.skip(f"a float64 matmul has the same bits under each of {KERNELS}")
    assert runs == [runs[0]] * len(runs)


def report_with(hr5: float) -> MetricReport:
    run = Run.from_rankings([
        reference_ranked_list("q0", [("rel", 1.0), ("x", 0.5)]),
        reference_ranked_list("q1", [("y", 1.0), ("rel1", 0.5)]),
    ])
    report = evaluate_run(run, {"q0": {"rel"}, "q1": {"rel1"}}, (5,))
    report.aggregate["HR@5"] = hr5  # pin the exact rate for table tests
    return report


class TestCompareSystems:
    def test_improvement_from_unrounded_values(self):
        reports = {"ours": report_with(0.88), "provider-a": report_with(0.84)}
        table = compare_systems(reports, "ours", {"ours": 768, "provider-a": 768})
        by_name = {row.name: row for row in table.rows}
        assert by_name["provider-a"].improvement_points == pytest.approx(4.0, abs=1e-9)
        assert by_name["ours"].improvement_points == 0.0
        assert by_name["ours"].is_reference

    def test_rows_sorted_ascending_with_name_ties(self):
        reports = {
            "zeta": report_with(0.8),
            "alpha": report_with(0.8),
            "mid": report_with(0.9),
        }
        table = compare_systems(
            reports, "mid", {"zeta": 10, "alpha": 10, "mid": 10}
        )
        assert [row.name for row in table.rows] == ["alpha", "zeta", "mid"]

    def test_missing_hr5_is_error(self):
        report = MetricReport(per_query={}, aggregate={"MRR@10": 0.5},
                              k_list=(10,), query_count=0)
        with pytest.raises(ValueError, match="HR@5"):
            compare_systems({"a": report}, "a", {"a": 8})

    def test_missing_reference(self):
        with pytest.raises(ValueError, match="reference"):
            compare_systems({"a": report_with(0.5)}, "b", {"a": 8})

    def test_missing_dim(self):
        with pytest.raises(ValueError, match="dim"):
            compare_systems({"a": report_with(0.5)}, "a", {})

    @pytest.mark.parametrize("dim", [64.9, 0, True, "64"])
    def test_dim_that_is_not_a_positive_integer(self, dim):
        with pytest.raises(ValueError, match=f"system 'a': dim must be an integer >= 1, got {dim!r}"):
            compare_systems({"a": report_with(0.5)}, "a", {"a": dim})

    def test_empty_reports(self):
        with pytest.raises(ValueError):
            compare_systems({}, "a", {})


class TestEmitReport:
    def make_table(self):
        reports = {
            "ours-768": report_with(0.88),
            "api-large-3072": report_with(0.86),
            "api-small-768": report_with(0.84),
        }
        dims = {"ours-768": 768, "api-large-3072": 3072, "api-small-768": 768}
        return compare_systems(reports, "ours-768", dims)

    def test_benchmark_markdown_columns(self, tmp_path):
        path = emit_report(self.make_table(), "markdown", tmp_path / "t.md")
        lines = path.read_text().splitlines()
        assert lines[0] == "| System | HR@5 | Improvement | Embedding Size |"
        assert "(reference)" in lines[-1]

    def test_comparison_markdown_rows(self, tmp_path):
        base = report_with(0.5)
        finetuned = report_with(0.9)
        for name, value in (("MRR@10", 0.38), ("MAP@100", 0.39), ("NDCG@10", 0.43)):
            base.aggregate[name] = value
        for name, value in (("MRR@10", 0.84), ("MAP@100", 0.84), ("NDCG@10", 0.86)):
            finetuned.aggregate[name] = value
        comparison = MetricComparison(base=base, finetuned=finetuned)
        path = emit_report(comparison, "markdown", tmp_path / "c.md")
        lines = path.read_text().splitlines()
        assert lines[0] == "| Metric | Base | Finetuned |"
        assert [line.split("|")[1].strip() for line in lines[2:]] == [
            "MRR@10",
            "MAP@100",
            "NDCG@10",
        ]

    def test_comparison_requires_metrics(self):
        incomplete = report_with(0.5)
        with pytest.raises(ValueError, match="missing"):
            MetricComparison(base=incomplete, finetuned=incomplete)

    def test_json_carries_fingerprint_and_full_precision(self, tmp_path):
        table = self.make_table()
        path = emit_report(table, "json", tmp_path / "t.json", fingerprint="abc123")
        payload = json.loads(path.read_text())
        assert payload["config_fingerprint"] == "abc123"
        rows = {row["name"]: row for row in payload["rows"]}
        assert rows["api-small-768"]["improvement_points"] == pytest.approx(
            4.0, abs=1e-9
        )

    def test_json_records_retrieval_mode_via_config(self, tmp_path):
        config = EvalConfig(retrieval_mode="hybrid", k_list=(5, 10, 100))
        path = emit_report(
            self.make_table(), "json", tmp_path / "t.json", config=config
        )
        payload = json.loads(path.read_text())
        assert payload["config"]["retrieval_mode"] == "hybrid"
        assert payload["config"]["candidate_pool"] == "all_contexts"
        assert payload["config_fingerprint"] == config.fingerprint()

    def test_markdown_equals_json_after_rounding(self, tmp_path):
        """The display rule is round-half-even at the printed precision."""
        table = self.make_table()
        md = emit_report(table, "markdown", tmp_path / "t.md").read_text()
        payload = json.loads(
            emit_report(table, "json", tmp_path / "t.json").read_text()
        )
        for row in payload["rows"]:
            name = row["name"] + (" (reference)" if row["is_reference"] else "")
            line = next(l for l in md.splitlines() if l.startswith(f"| {name} |"))
            cells = [c.strip() for c in line.split("|")[1:-1]]
            assert cells[1] == f"{row['hit_rate_at_5']:.4f}"
            assert cells[2] == f"{row['improvement_points']:.1f}"

    def test_csv_long_format(self, tmp_path):
        path = emit_report(self.make_table(), "csv", tmp_path / "t.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "system,hr_at_5,improvement_points,embedding_dim,is_reference"
        assert len(lines) == 4

    def test_empty_table_never_writes(self, tmp_path):
        empty = BenchmarkTable(rows=(), reference="x")
        target = tmp_path / "nope.md"
        with pytest.raises(ValueError):
            emit_report(empty, "markdown", target)
        assert not target.exists()

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            emit_report(self.make_table(), "xml", tmp_path / "t.xml")

    def test_metric_report_formats(self, tmp_path):
        report = report_with(0.75)
        md = emit_report(report, "markdown", tmp_path / "r.md").read_text()
        assert md.splitlines()[0] == "| Metric | Value |"
        csv_lines = emit_report(report, "csv", tmp_path / "r.csv").read_text().splitlines()
        assert csv_lines[0] == "metric,value"
        assert any(line.startswith("MRR@5,") for line in csv_lines)
        payload = json.loads(emit_report(report, "json", tmp_path / "r.json").read_text())
        assert payload["kind"] == "metric_report"


REPORT_BYTES_DIR = Path(__file__).parent / "report_bytes"
REPORT_FORMATS = {"json": "json", "markdown": "md", "csv": "csv"}


def fixed_report(values: dict[str, float]) -> MetricReport:
    per_query = {
        "q0": dict(values),
        "q1": {name: 1.0 - value for name, value in values.items()},
    }
    return MetricReport(
        per_query=per_query, aggregate=dict(values), k_list=(5, 10, 100),
        query_count=2, metrics=tuple(values),
    )


def pinned_reports():
    """One object of each report type; several values need 17 digits to round-trip."""
    base = fixed_report(
        {"MRR@10": 1 / 3, "MAP@100": 0.1 + 0.2, "NDCG@10": 2 / 3, "HR@5": 0.5}
    )
    finetuned = fixed_report(
        {"MRR@10": 0.84, "MAP@100": 5 / 7, "NDCG@10": 1.0, "HR@5": 0.88}
    )
    rates = {
        "api-text-768": (0.84, 768),
        "api-large-3072": (0.86, 3072),
        "adapted-local-768": (0.88, 768),
        "api-finance-1024": (0.88, 1024),
    }
    table = compare_systems(
        {name: fixed_report({"HR@5": rate}) for name, (rate, _) in rates.items()},
        "adapted-local-768",
        {name: dim for name, (_, dim) in rates.items()},
    )
    return {
        "metric_report": (base, {"fingerprint": "0123456789abcdef"}),
        "metric_comparison": (
            MetricComparison(base=base, finetuned=finetuned),
            {"config": EvalConfig(retrieval_mode="hybrid", system="pinned", seed=7)},
        ),
        "benchmark_table": (table, {}),
    }


@pytest.mark.parametrize("format", sorted(REPORT_FORMATS))
@pytest.mark.parametrize("kind", ["metric_report", "metric_comparison", "benchmark_table"])
def test_report_bytes_are_pinned(tmp_path, kind, format):
    obj, options = pinned_reports()[kind]
    name = f"{kind}.{REPORT_FORMATS[format]}"
    written = emit_report(obj, format, tmp_path / name, **options)
    assert written.read_bytes() == (REPORT_BYTES_DIR / name).read_bytes()


class TestRunDir:
    def test_name_contains_fingerprint_prefix(self, tmp_path):
        from datetime import datetime, timezone

        stamp = datetime(2024, 8, 1, 12, 0, 0, tzinfo=timezone.utc)
        run_dir = make_run_dir(tmp_path, "deadbeefcafe0123", now=stamp)
        assert run_dir.name == "20240801T120000-deadbeef"
        assert run_dir.is_dir()

    def test_a_taken_name_is_never_reused(self, tmp_path):
        from datetime import datetime, timezone

        stamp = datetime(2024, 8, 1, 12, 0, 0, tzinfo=timezone.utc)
        names = [make_run_dir(tmp_path, "deadbeefcafe0123", now=stamp).name for _ in range(3)]
        assert names == [
            "20240801T120000-deadbeef", "20240801T120000-deadbeef-2", "20240801T120000-deadbeef-3",
        ]
        assert sorted(path.name for path in tmp_path.iterdir()) == names
