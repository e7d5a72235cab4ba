"""Exit codes, config precedence, and the synth -> train -> eval -> bench path."""

import json
import subprocess
import sys

import pytest

from riskrank.cli import main
from riskrank.corpus import load_qa_pairs, split_pairs
from riskrank.embedding import HashEmbedder


def write_config(path, payload):
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


@pytest.fixture
def workspace(tmp_path):
    """A synth corpus plus a shared config for train/eval/bench."""
    data_dir = tmp_path / "data"
    code = main(
        ["synth", "--clusters", "3", "--pairs", "30", "--vocab", "30",
         "--seed", "7", "-o", str(data_dir)]
    )
    assert code == 0
    config = {
        "pairs_path": str(data_dir / "pairs.jsonl"),
        "split": {"ratio": 0.9, "seed": 7},
        "embedder": {"kind": "hash", "dim": 64, "seed": 0},
        "training": {
            "batch_size": 8, "epochs": 2, "learning_rate": 0.05,
            "scale": 4.0, "seed": 7,
        },
        "eval": {"retrieval_mode": "dense", "candidate_pool": "all_contexts",
                 "k_list": [5, 10, 100], "seed": 7},
        "adapter_dir": str(tmp_path / "adapter"),
        "cache_dir": str(tmp_path / "cache"),
    }
    return tmp_path, data_dir, config


class TestUsageErrors:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "riskrank" in capsys.readouterr().out

    def test_no_subcommand(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_rejected(self, capsys):
        assert main(["synth", "--does-not-exist"]) == 1

    def test_eval_without_config(self, capsys):
        assert main(["eval"]) == 1
        err = capsys.readouterr().err
        assert "usage" in err.lower()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["eval", "-c", str(tmp_path / "absent.json")]) == 1

    def test_config_must_be_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["eval", "-c", str(bad)]) == 1

    def test_config_must_be_an_object(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        assert main(["eval", "-c", str(bad)]) == 1
        assert capsys.readouterr().err.startswith(
            f"riskrank: usage error: config file {bad}: expected a JSON object\n"
        )


@pytest.mark.parametrize(
    "section, value",
    [
        ("eval", {"bogus": 1}),
        ("eval", {"k_list": 5}),
        ("eval", "dense"),
        ("split", {"ratio": "x"}),
        ("embedder", {"kind": "remote"}),
        ("eval", {"rerank": "x"}),
    ],
    ids=["eval-unknown-key", "eval-k-list-not-a-list", "eval-not-an-object",
         "split-ratio-not-a-number", "embedder-missing-key", "eval-rerank"],
)
def test_config_section_its_type_refuses_is_a_usage_error(workspace, capsys, section, value):
    tmp_path, _, config = workspace
    cfg = write_config(
        tmp_path / "cfg.json", {**config, "out_dir": str(tmp_path / "runs"), section: value}
    )
    assert main(["eval", "-c", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"riskrank: usage error: config section '{section}': "), err
    assert not (tmp_path / "runs").exists()


class TestRuntimeErrors:
    def test_missing_pairs_file_is_exit_two(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "cfg.json",
            {"pairs_path": str(tmp_path / "absent.jsonl"), "out_dir": str(tmp_path)},
        )
        assert main(["train", "-c", config]) == 2
        err_lines = [l for l in capsys.readouterr().err.splitlines() if l]
        assert len(err_lines) == 1
        assert err_lines[0].startswith("riskrank: error: ")

    def test_verbose_adds_traceback(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "cfg.json",
            {"pairs_path": str(tmp_path / "absent.jsonl"), "out_dir": str(tmp_path)},
        )
        assert main(["train", "-c", config, "--verbose"]) == 2
        assert "Traceback" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,bad_line,problem",
        [
            ("embed", '{"context": 42}', "field 'context'"),
            ("embed", "{not json", "invalid JSON"),
            ("chunk", '{"doc_id": "d2", "title": "t"}', "field 'body'"),
            ("chunk", '["d2", "body"]', "record must be an object"),
        ],
        ids=["embed-not-a-string", "embed-not-json", "chunk-no-body", "chunk-not-an-object"],
    )
    def test_malformed_jsonl_names_file_line_and_field(
        self, tmp_path, capsys, command, bad_line, problem
    ):
        good = {"embed": {"context": "fine"}, "chunk": {"doc_id": "d1", "body": "fine"}}
        path = tmp_path / "input.jsonl"
        path.write_text(json.dumps(good[command]) + "\n" + bad_line + "\n")
        flag = "--input" if command == "embed" else "--docs"
        assert main([command, flag, str(path), "-o", str(tmp_path / "out.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"riskrank: error: ValueError: {path}: line 2: ")
        assert problem in err


class TestSynth:
    def test_writes_pairs_and_documents(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["synth", "--clusters", "2", "--pairs", "5", "--vocab", "20",
                     "--seed", "1", "-o", str(out)]) == 0
        assert (out / "pairs.jsonl").exists()
        assert (out / "documents.jsonl").exists()
        lines = (out / "pairs.jsonl").read_text().splitlines()
        assert len(lines) == 10

    def test_prints_config_digest(self, tmp_path, capsys):
        main(["synth", "--pairs", "2", "-o", str(tmp_path / "d")])
        assert "config digest: " in capsys.readouterr().out

    def test_seed_flag_changes_digest(self, tmp_path, capsys):
        main(["synth", "--pairs", "2", "--seed", "1", "-o", str(tmp_path / "a")])
        digest_one = [l for l in capsys.readouterr().out.splitlines()
                      if "config digest" in l][0]
        main(["synth", "--pairs", "2", "--seed", "2", "-o", str(tmp_path / "b")])
        digest_two = [l for l in capsys.readouterr().out.splitlines()
                      if "config digest" in l][0]
        assert digest_one != digest_two

    def test_same_seed_identical_output(self, tmp_path):
        main(["synth", "--pairs", "3", "--seed", "9", "-o", str(tmp_path / "a")])
        main(["synth", "--pairs", "3", "--seed", "9", "-o", str(tmp_path / "b")])
        assert (tmp_path / "a" / "pairs.jsonl").read_bytes() == (
            tmp_path / "b" / "pairs.jsonl"
        ).read_bytes()


class TestIngestChunkEmbedIndex:
    def test_ingest_csv(self, tmp_path, capsys):
        src = tmp_path / "raw.csv"
        src.write_text("question,context\nq1,c1\nq2,c2\n")
        out = tmp_path / "out"
        assert main(["ingest", "--pairs", str(src), "-o", str(out)]) == 0
        assert len((out / "pairs.jsonl").read_text().splitlines()) == 2

    def test_ingest_docs_dir(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "guide.txt").write_text("capital adequacy requirements apply")
        out = tmp_path / "out"
        assert main(["ingest", "--docs", str(docs), "-o", str(out)]) == 0
        record = json.loads((out / "documents.jsonl").read_text())
        assert record["doc_id"] == "guide"

    def test_ingest_of_unwritable_text_names_the_output(self, tmp_path, capsys):
        src = tmp_path / "raw.jsonl"
        src.write_text('{"question": "\\ud800", "context": "c1"}\n')
        out = tmp_path / "out"
        assert main(["ingest", "--pairs", str(src), "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"riskrank: error: ValueError: {out / 'pairs.jsonl'}: cannot write as UTF-8"
        )
        assert list(out.iterdir()) == []

    def test_ingest_requires_input(self, tmp_path):
        assert main(["ingest", "-o", str(tmp_path)]) == 1

    def test_chunk_documents(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "a.txt").write_text(" ".join(f"tok{i}" for i in range(30)))
        out = tmp_path / "chunks.jsonl"
        assert main(["chunk", "--docs", str(docs), "--window", "10",
                     "--stride", "5", "-o", str(out)]) == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == 6
        assert lines[0]["chunk_id"] == "a::c0000"

    @pytest.mark.parametrize("kind", ["hash", "remote"])
    def test_embed_populates_cache(
        self, workspace, capsys, kind, embedding_server, monkeypatch
    ):
        tmp_path, data_dir, config = workspace
        if kind == "remote":
            monkeypatch.setenv("RISKRANK_TEST_API_KEY", "sekret")
            config["embedder"] = {
                "kind": "remote", "provider_id": "testprov", "model_id": "ok-64",
                "base_url": embedding_server.base_url,
                "api_key_env": "RISKRANK_TEST_API_KEY", "dim": 64,
            }
        cfg = write_config(tmp_path / "cfg.json", config)
        assert main(["embed", "-c", cfg, "--input", str(data_dir / "pairs.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "embedded 90 texts (0 cache hits, 90 new)" in out
        assert (tmp_path / "cache").is_dir()
        # second run: everything cached
        embedding_server.reset()
        assert main(["embed", "-c", cfg, "--input", str(data_dir / "pairs.jsonl")]) == 0
        assert "90 cache hits" in capsys.readouterr().out
        assert embedding_server.requests == []

    def test_index_builds_directory(self, workspace):
        tmp_path, data_dir, config = workspace
        cfg = write_config(tmp_path / "cfg.json", config)
        out = tmp_path / "idx"
        assert main(["index", "-c", cfg, "--input", str(data_dir / "pairs.jsonl"),
                     "--mode", "hybrid", "-o", str(out)]) == 0
        assert (out / "meta.json").exists()
        assert (out / "vectors.bin").exists()
        assert (out / "postings.jsonl").exists()

    def test_index_holds_one_item_per_distinct_context(self, tmp_path):
        pairs = tmp_path / "pairs.jsonl"
        records = [("a", "shared passage"), ("b", "own passage"), ("c", "shared passage")]
        pairs.write_text("".join(
            json.dumps({"pair_id": i, "question": f"question {i}", "context": c}) + "\n"
            for i, c in records
        ))
        out = tmp_path / "idx"
        assert main(["index", "--input", str(pairs), "--mode", "hybrid", "-o", str(out)]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["count"] == 2
        assert meta["item_ids"] == ["a", "b"]
        assert sorted(meta["doc_len"]) == ["a", "b"]


class TestTrainEvalBench:
    def test_eval_names_malformed_adapter_json(self, workspace, capsys):
        tmp_path, _, config = workspace
        out = {**config, "out_dir": str(tmp_path / "adapter")}
        assert main(["train", "-c", write_config(tmp_path / "cfg.json", out)]) == 0
        meta_path = tmp_path / "adapter" / "adapter.json"
        meta = json.loads(meta_path.read_text())
        del meta["d_out"]
        meta_path.write_text(json.dumps(meta))
        capsys.readouterr()
        runs = {**config, "out_dir": str(tmp_path / "runs")}
        assert main(["eval", "-c", write_config(tmp_path / "eval.json", runs)]) == 2
        assert capsys.readouterr().err == (
            f"riskrank: error: ValueError: {meta_path}: missing field 'd_out'\n"
        )

    def test_full_pipeline(self, workspace, capsys):
        tmp_path, data_dir, config = workspace
        cfg = write_config(tmp_path / "cfg.json", {**config, "out_dir": str(tmp_path / "adapter")})
        assert main(["train", "-c", cfg]) == 0
        train_out = capsys.readouterr().out
        assert "epoch 1" in train_out and "epoch 2" in train_out
        assert (tmp_path / "adapter" / "adapter.json").exists()
        assert (tmp_path / "adapter" / "adapter.bin").exists()
        assert (tmp_path / "adapter" / "training_log.jsonl").exists()

        eval_cfg = write_config(
            tmp_path / "eval.json", {**config, "out_dir": str(tmp_path / "runs")}
        )
        assert main(["eval", "-c", eval_cfg]) == 0
        out = capsys.readouterr().out
        assert "| Metric | Base | Finetuned |" in out
        run_dirs = list((tmp_path / "runs").iterdir())
        assert len(run_dirs) == 1
        for name in ("report.json", "report.md", "plotdata.csv"):
            assert (run_dirs[0] / name).exists()
        payload = json.loads((run_dirs[0] / "report.json").read_text())
        assert payload["kind"] == "metric_comparison"
        assert "config_fingerprint" in payload

    def test_eval_with_adapter_embeds_each_text_once(self, workspace, monkeypatch):
        tmp_path, data_dir, config = workspace
        cfg = write_config(tmp_path / "cfg.json", {**config, "out_dir": str(tmp_path / "adapter")})
        assert main(["train", "-c", cfg]) == 0
        calls = []
        embed = HashEmbedder.embed

        def counting(self, texts):
            calls.append(list(texts))
            return embed(self, texts)

        monkeypatch.setattr(HashEmbedder, "embed", counting)
        eval_cfg = write_config(
            tmp_path / "eval.json",
            {**config, "eval": {**config["eval"], "retrieval_mode": "hybrid"},
             "out_dir": str(tmp_path / "runs")},
        )
        assert main(["eval", "-c", eval_cfg]) == 0
        pairs = load_qa_pairs(data_dir / "pairs.jsonl")
        test = split_pairs(pairs, ratio=0.9, seed=7).test
        assert calls == [[p.context for p in pairs], [p.question for p in test]]

    def test_eval_without_adapter_single_report(self, workspace, capsys):
        tmp_path, data_dir, config = workspace
        config = {k: v for k, v in config.items() if k != "adapter_dir"}
        cfg = write_config(tmp_path / "cfg.json", {**config, "out_dir": str(tmp_path / "runs")})
        assert main(["eval", "-c", cfg]) == 0
        run_dir = next((tmp_path / "runs").iterdir())
        payload = json.loads((run_dir / "report.json").read_text())
        assert payload["kind"] == "metric_report"

    def test_eval_reruns_are_byte_identical(self, workspace):
        tmp_path, data_dir, config = workspace
        config = {k: v for k, v in config.items() if k != "adapter_dir"}
        cfg = write_config(tmp_path / "cfg.json", {**config, "out_dir": str(tmp_path / "runs")})
        assert main(["eval", "-c", cfg]) == 0
        assert main(["eval", "-c", cfg]) == 0
        run_dirs = sorted((tmp_path / "runs").iterdir())
        contents = [
            (d / "report.json").read_bytes() for d in run_dirs
        ]
        assert all(c == contents[0] for c in contents)

    def test_mode_flag_overrides_config(self, workspace, capsys):
        tmp_path, data_dir, config = workspace
        config = {k: v for k, v in config.items() if k != "adapter_dir"}
        cfg = write_config(tmp_path / "cfg.json", {**config, "out_dir": str(tmp_path / "runs")})
        assert main(["eval", "-c", cfg, "--mode", "lexical"]) == 0
        run_dir = next((tmp_path / "runs").iterdir())
        report = json.loads((run_dir / "report.json").read_text())
        assert report["kind"] == "metric_report"

    def test_bench_compares_systems(self, workspace, capsys):
        tmp_path, data_dir, config = workspace
        train_cfg = write_config(
            tmp_path / "cfg.json", {**config, "out_dir": str(tmp_path / "adapter")}
        )
        assert main(["train", "-c", train_cfg]) == 0
        capsys.readouterr()
        bench_config = {
            **{k: v for k, v in config.items() if k != "adapter_dir"},
            "out_dir": str(tmp_path / "bench"),
            "reference": "adapted-hash-64",
            "systems": [
                {"name": "base-hash-64"},
                {"name": "adapted-hash-64", "adapter_dir": str(tmp_path / "adapter")},
            ],
        }
        cfg = write_config(tmp_path / "bench.json", bench_config)
        assert main(["bench", "-c", cfg]) == 0
        out = capsys.readouterr().out
        assert "| System | HR@5 | Improvement | Embedding Size |" in out
        run_dir = next((tmp_path / "bench").iterdir())
        table = json.loads((run_dir / "table.json").read_text())
        assert {row["name"] for row in table["rows"]} == {
            "base-hash-64", "adapted-hash-64",
        }

    def test_bench_requires_systems(self, workspace):
        tmp_path, data_dir, config = workspace
        cfg = write_config(tmp_path / "cfg.json", {**config, "out_dir": str(tmp_path)})
        assert main(["bench", "-c", cfg]) == 1


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "riskrank", "synth", "--clusters", "2",
         "--pairs", "3", "--vocab", "12", "-o", str(tmp_path / "d")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert "config digest" in result.stdout
    assert (tmp_path / "d" / "pairs.jsonl").exists()
