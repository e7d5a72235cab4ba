"""Exit codes, config precedence, and the synth -> train -> eval -> bench path."""

import argparse
import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from riskrank import cli
from riskrank.cli import build_parser, main
from riskrank.corpus import load_qa_pairs, split_pairs
from riskrank.embedding import HashEmbedder


def fail_if_called(*args, **kwargs):
    raise AssertionError("work started before every operand was checked")


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
        assert capsys.readouterr().err.startswith(
            f"riskrank: usage error: config file not found: {tmp_path / 'absent.json'}\n"
        )

    def test_config_must_be_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["eval", "-c", str(bad)]) == 1

    def test_config_path_that_is_a_directory(self, tmp_path, capsys):
        assert main(["eval", "-c", str(tmp_path), "-o", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(
            f"riskrank: usage error: config file {tmp_path}: Is a directory\n"
        )
        assert not (tmp_path / "out").exists()

    def test_config_must_be_an_object(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        assert main(["eval", "-c", str(bad)]) == 1
        assert capsys.readouterr().err.startswith(
            f"riskrank: usage error: config file {bad}: expected a JSON object\n"
        )


# A remote embedder spec that fails before any request: no API key is set.
REMOTE_SPEC = {"kind": "remote", "provider_id": "p", "model_id": "m",
               "base_url": "http://127.0.0.1:9", "api_key_env": "RISKRANK_UNSET_KEY", "dim": 8}
EVAL_HYBRID = ["eval", "--mode", "hybrid"]


@pytest.mark.parametrize(
    "overrides, argv",
    [
        ({"eval": {"bogus": 1}}, ["eval"]),
        ({"eval": {"k_list": 5}}, ["eval"]),
        ({"eval": "dense"}, ["eval"]),
        ({"split": {"ratio": "x"}}, ["eval"]),
        ({"embedder": {"kind": "remote"}}, ["eval"]),
        ({"eval": {"rerank": "x"}}, ["eval"]),
        ({"split": {"ratio": 1.5}}, EVAL_HYBRID),
        ({"eval": {"k_list": [0]}}, EVAL_HYBRID),
        ({"eval": {"k_rrf": 0}}, EVAL_HYBRID),
        ({"eval": {"rrf_depth": 0}}, EVAL_HYBRID),
        ({"eval": "dense"}, EVAL_HYBRID),
        ({"embedder": {"kind": "hash", "dimm": 16}}, EVAL_HYBRID),
        ({"embedder": {"kind": "hash", "dim": 16.7}}, EVAL_HYBRID),
        ({"split": {"seed": 1.5}}, EVAL_HYBRID),
        ({"eval": {"seed": 1.5}}, EVAL_HYBRID),
        ({"training": {"use_bias": "no"}}, ["train"]),
        ({"training": []}, ["train"]),
        ({"eval": []}, ["eval", "--seed", "3"]),
        ({"systems": "abc"}, ["bench"]),
        ({"systems": [{"name": "a", "dim": 64.5}], "reference": "a"}, ["bench"]),
        ({"embedder": REMOTE_SPEC}, ["eval", "--jobs", "0"]),
        ({"embedder": REMOTE_SPEC, "jobs": "2"}, ["eval"]),
        ({"embedder": {**REMOTE_SPEC, "timeout_ms": 1.5}}, ["eval"]),
        ({"eval": {}}, ["eval", "--k", ""]),
        ({"systems": [{"name": "a", "dim": 999}], "reference": "a"}, ["bench"]),
        ({"embedder": {**REMOTE_SPEC, "provider_id": 5}}, ["eval"]),
        ({"embedder": {**REMOTE_SPEC, "base_url": ""}}, ["eval"]),
        ({"training": {"scale": float("inf")}}, ["train"]),
    ],
    ids=["eval-unknown-key", "eval-k-list-not-a-list", "eval-not-an-object",
         "split-ratio-not-a-number", "embedder-missing-key", "eval-rerank",
         "split-ratio-out-of-range", "eval-cutoff-zero", "eval-k-rrf-zero",
         "eval-rrf-depth-zero", "eval-not-an-object-under-mode-flag",
         "embedder-unknown-key", "embedder-float-dim", "split-float-seed",
         "eval-float-seed", "training-string-use-bias", "training-empty-list",
         "eval-empty-list-under-seed-flag", "systems-not-a-list", "systems-float-dim",
         "jobs-flag-zero", "jobs-string", "embedder-float-timeout", "eval-k-flag-empty",
         "systems-dim-not-the-embedding-size", "embedder-integer-provider-id",
         "embedder-empty-base-url", "training-infinite-scale"],
)
def test_config_section_its_type_refuses_is_a_usage_error(workspace, capsys, overrides, argv):
    # The first key of ``overrides`` is the section the error must name.
    section = next(iter(overrides))
    tmp_path, _, config = workspace
    cfg = write_config(
        tmp_path / "cfg.json", {**config, "out_dir": str(tmp_path / "runs"), **overrides}
    )
    assert main([argv[0], "-c", cfg, *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"riskrank: usage error: config section '{section}': "), err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "overrides, argv, message",
    [
        ({"embedder": {**REMOTE_SPEC, "provider_id": 5}}, ["embed", "--input", "{pairs}"],
         "config section 'embedder': provider_id must be a nonempty string, got 5"),
        ({"system": 5}, ["eval"], "config section 'eval': system must be a string, got 5"),
    ],
    ids=["embed-integer-provider-id", "eval-integer-system"],
)
def test_wrong_typed_config_value_names_its_section(workspace, capsys, overrides, argv, message):
    tmp_path, data_dir, config = workspace
    cfg = write_config(
        tmp_path / "cfg.json", {**config, "out_dir": str(tmp_path / "runs"), **overrides}
    )
    argv = [arg.format(pairs=data_dir / "pairs.jsonl") for arg in argv]
    assert main([argv[0], "-c", cfg, *argv[1:]]) == 1
    assert capsys.readouterr().err.startswith(f"riskrank: usage error: {message}\n")
    assert not (tmp_path / "runs").exists()


BODY_30 = " ".join(f"tok{i}" for i in range(30))


@pytest.mark.parametrize(
    "argv, file_values, shows",
    [
        (["synth", "--clusters", "2"], {"clusters": 3, "pairs_per_cluster": 2}, "wrote 4 pairs"),
        (["synth", "--pairs", "2"], {"clusters": 2, "pairs_per_cluster": 3}, "wrote 4 pairs"),
        (["synth", "--vocab", "50"],
         {"clusters": 1, "pairs_per_cluster": 5, "vocab_per_cluster": 3}, "c00w049"),
        (["ingest", "--pairs", "two.jsonl"], {"pairs_path": "three.jsonl"}, "ingested 2 pairs"),
        (["ingest", "--docs", "docs2"], {"docs_dir": "docs1"}, "ingested 2 documents"),
        (["chunk", "--docs", "docs2"], {"docs": "docs1"}, "from 2 documents"),
        (["chunk", "--docs", "docs1", "--window", "30"], {"window": 5, "stride": 5},
         json.dumps({"text": BODY_30})[1:-1]),
        (["chunk", "--docs", "docs1", "--stride", "5"], {"window": 10, "stride": 10},
         "wrote 6 chunks"),
        (["embed", "--input", "two.jsonl"], {"input": "three.jsonl"}, "embedded 2 texts"),
        (["embed", "--input", "contexts.jsonl", "--text-field", "context"],
         {"text_field": "question"}, "embedded 2 texts"),
        (["index", "--input", "two.jsonl"], {"input": "three.jsonl"}, "indexed 2 items"),
    ],
    ids=["synth-clusters", "synth-pairs", "synth-vocab", "ingest-pairs", "ingest-docs",
         "chunk-docs", "chunk-window", "chunk-stride", "embed-input", "embed-text-field",
         "index-input"],
)
def test_flag_wins_over_the_config_file(tmp_path, monkeypatch, capsys, argv, file_values, shows):
    # ``shows`` is in what the run prints or writes only if the flag's value was used.
    monkeypatch.chdir(tmp_path)
    for name, count in (("two.jsonl", 2), ("three.jsonl", 3)):
        Path(name).write_text("".join(
            json.dumps({"question": f"q{i}", "context": f"context {i}"}) + "\n"
            for i in range(count)
        ))
    Path("contexts.jsonl").write_text('{"context": "c0"}\n{"context": "c1"}\n')
    for name, count in (("docs1", 1), ("docs2", 2)):
        Path(name).mkdir()
        for i in range(count):
            Path(name, f"d{i}.txt").write_text(BODY_30)
    cfg = write_config(tmp_path / "cfg.json",
                       {"out_dir": "out", "cache_dir": "cache", **file_values})
    assert main([argv[0], "-c", cfg, *argv[1:]]) == 0
    written = "".join(p.read_text() for p in sorted(Path("out").rglob("*.jsonl")))
    assert shows in capsys.readouterr().out + written


def test_ingest_format_flag_is_part_of_the_config(tmp_path, capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("question,context\nq1,c1\n")
    runs = [[], ["--format", "csv"],
            ["-c", write_config(tmp_path / "cfg.json", {"pairs_format": "csv"})]]
    codes, digests = [], []
    for extra in runs:
        codes.append(main(["ingest", "--pairs", str(pairs), "-o", str(tmp_path / "out"), *extra]))
        digests.append(capsys.readouterr().out.splitlines()[0])
    assert codes == [2, 0, 0]  # without a format, the .txt suffix names none
    assert digests[1] == digests[2] != digests[0]


@pytest.mark.parametrize("command", ["eval", "ingest", "index"])
def test_a_pairs_format_from_the_config_file_is_checked(workspace, capsys, command):
    # A format the file suffix implies is checked by the loader; one the
    # config gives is a refused config value, refused before any output.
    tmp_path, data_dir, config = workspace
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", {
        **config, "pairs_format": "xml", "input": str(data_dir / "pairs.jsonl"),
        "out_dir": str(out),
    })
    argv = {"eval": [], "ingest": ["--pairs", config["pairs_path"]], "index": []}[command]
    assert main([command, "-c", cfg, *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("riskrank: usage error: pairs_format must be jsonl or csv, got 'xml'")
    assert not out.exists()


@pytest.mark.parametrize("command, argv", [
    ("ingest", ["--pairs", "{missing}"]),
    ("ingest", ["--docs", "{missing}"]),
    ("ingest", ["--pairs", "{pairs}", "--docs", "{missing}"]),
    ("chunk", ["--docs", "{missing}"]),
    ("index", ["--input", "{missing}"]),
    ("train", ["-c", "{config}"]),
    ("eval", ["-c", "{config}"]),
    ("bench", ["-c", "{config}"]),
], ids=["ingest-pairs", "ingest-docs", "ingest-pairs-then-docs", "chunk", "index",
        "train", "eval", "bench"])
def test_no_output_after_a_missing_input(workspace, command, argv):
    # Every command reads all its inputs before it makes or writes anything.
    tmp_path, data_dir, config = workspace
    missing = tmp_path / "missing.jsonl"
    del config["adapter_dir"]
    cfg = write_config(tmp_path / "cfg.json", {
        **config, "pairs_path": str(missing), "systems": [{"name": "hash"}],
        "reference": "hash",
    })
    names = {"missing": missing, "pairs": data_dir / "pairs.jsonl", "config": cfg}
    out = tmp_path / "out"
    assert main([command, *(a.format(**names) for a in argv), "-o", str(out)]) != 0
    assert not out.exists()


def test_chunk_makes_the_directories_of_its_output_file(workspace):
    tmp_path, data_dir, _ = workspace
    out = tmp_path / "new" / "sub" / "chunks.jsonl"
    assert main(["chunk", "--docs", str(data_dir / "documents.jsonl"), "-o", str(out)]) == 0
    assert json.loads(out.read_text().splitlines()[0])["chunk_id"]


@pytest.mark.parametrize("command, source", [
    ("eval", "the top-level 'system'"),
    ("bench", "each system's 'name'"),
], ids=["eval", "bench"])
def test_a_config_section_cannot_set_what_the_command_passes(workspace, capsys, command,
                                                             source):
    tmp_path, _, config = workspace
    del config["adapter_dir"]
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", {
        **config, "eval": {**config["eval"], "system": "mine"},
        "systems": [{"name": "hash"}], "reference": "hash",
    })
    assert main([command, "-c", cfg, "-o", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        f"riskrank: usage error: config section 'eval' cannot set 'system': "
        f"the command takes it from {source}\n"
    )
    assert not out.exists()


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

    @pytest.mark.parametrize(
        "counts, problem",
        [
            ({"clusters": 2.7, "pairs_per_cluster": 3.9}, "n_clusters must be an integer >= 1, got 2.7"),
            ({"pairs_per_cluster": 3.9}, "pairs_per_cluster must be an integer >= 1, got 3.9"),
            ({"vocab_per_cluster": 0}, "vocab_per_cluster must be an integer >= 1, got 0"),
        ],
        ids=["float-clusters", "float-pairs", "zero-vocab"],
    )
    def test_counts_that_are_not_positive_integers_are_usage_errors(
        self, tmp_path, capsys, counts, problem
    ):
        config = write_config(tmp_path / "cfg.json", counts)
        out = tmp_path / "data"
        assert main(["synth", "-c", config, "-o", str(out)]) == 1
        assert f"riskrank: usage error: synth: {problem}" in capsys.readouterr().err
        assert not out.exists()

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
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "values, problem",
        [({"window": 10.5}, "window must be an integer >= 1, got 10.5"),
         ({"stride": 4.9}, "stride must be an integer >= 1, got 4.9"),
         ({"window": 4, "stride": 5}, "stride must be at most window (4), got 5")],
        ids=["float-window", "float-stride", "stride-above-window"],
    )
    def test_chunk_sizes_that_are_not_positive_integers_are_usage_errors(
        self, tmp_path, capsys, values, problem
    ):
        (tmp_path / "a.txt").write_text(" ".join(f"tok{i}" for i in range(30)))
        config = write_config(tmp_path / "cfg.json", values)
        out = tmp_path / "chunks.jsonl"
        assert main(["chunk", "-c", config, "--docs", str(tmp_path / "a.txt"),
                     "-o", str(out)]) == 1
        assert f"riskrank: usage error: chunk: {problem}" in capsys.readouterr().err
        assert not out.exists()

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
        # The lexical files' bytes are pinned: the in-memory index layout
        # never reaches them.
        assert {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("postings.jsonl", "meta.json")
        } == {
            "postings.jsonl": "b67af2f126c8fbf2fe1d3717d2d96460dff20000628a85c6034c21a94b527ebf",
            "meta.json": "ad775749a5278e6cd47b338b78360b3597cbbf3dc83a6e551b3ce27869616739",
        }

    def test_index_mode_outside_the_modes_is_a_usage_error(self, workspace, capsys):
        tmp_path, data_dir, config = workspace
        cfg = write_config(tmp_path / "cfg.json", {**config, "mode": "foo"})
        out = tmp_path / "idx"
        assert main(["index", "-c", cfg, "--input", str(data_dir / "pairs.jsonl"),
                     "-o", str(out)]) == 1
        assert "mode must be one of ('dense', 'lexical', 'hybrid'), got 'foo'" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_index_mode_flag_leaves_the_eval_section_alone(self, workspace):
        # index never reads "eval", so a value there that eval would refuse
        # must not turn `index --mode` into a usage error.
        tmp_path, data_dir, config = workspace
        cfg = write_config(tmp_path / "cfg.json", {**config, "eval": "x"})
        argv = ["index", "-c", cfg, "--input", str(data_dir / "pairs.jsonl")]
        assert main([*argv, "-o", str(tmp_path / "a")]) == 0
        assert main([*argv, "--mode", "lexical", "-o", str(tmp_path / "b")]) == 0
        assert (tmp_path / "b" / "postings.jsonl").exists()
        assert not (tmp_path / "b" / "vectors.bin").exists()

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
                {"name": "base-hash-64", "dim": 64},
                {"name": "adapted-hash-64", "adapter_dir": str(tmp_path / "adapter")},
            ],
        }
        cfg = write_config(tmp_path / "bench.json", bench_config)
        assert main(["bench", "-c", cfg]) == 0
        out = capsys.readouterr().out
        assert "| System | HR@5 | Improvement | Embedding Size |" in out
        run_dir = next((tmp_path / "bench").iterdir())
        table = json.loads((run_dir / "table.json").read_text())
        assert {row["name"]: row["embedding_dim"] for row in table["rows"]} == {
            "base-hash-64": 64, "adapted-hash-64": 64,
        }

    def test_bench_requires_systems(self, workspace):
        tmp_path, data_dir, config = workspace
        cfg = write_config(tmp_path / "cfg.json", {**config, "out_dir": str(tmp_path)})
        assert main(["bench", "-c", cfg]) == 1

    def test_train_without_out_dir_trains_nothing(self, workspace, monkeypatch, capsys):
        tmp_path, _, config = workspace
        monkeypatch.setattr(cli, "train_adapter", fail_if_called)
        assert main(["train", "-c", write_config(tmp_path / "cfg.json", config)]) == 1
        assert "train requires 'out_dir'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bench, problem",
        [
            ({"systems": [{"name": "a"}], "reference": "a", "out_dir": None},
             "bench requires 'out_dir'"),
            ({"systems": [{"name": "a"}, {"dim": 8}], "reference": "a"}, "needs a 'name'"),
            ({"systems": [{"name": "a"}, {"name": "a"}], "reference": "a"}, "appears twice"),
            ({"systems": [{"name": "a"}], "reference": "b"}, "naming one of the systems"),
        ],
        ids=["no-out-dir", "system-without-name", "duplicate-name", "unknown-reference"],
    )
    def test_bench_checks_every_system_before_any_run(
        self, workspace, monkeypatch, capsys, bench, problem
    ):
        tmp_path, _, config = workspace
        monkeypatch.setattr(cli, "run_eval", fail_if_called)
        cfg = {**config, "out_dir": str(tmp_path / "bench"), **bench}
        assert main(["bench", "-c", write_config(tmp_path / "bench.json", cfg)]) == 1
        assert problem in capsys.readouterr().err
        assert not (tmp_path / "bench").exists()


class TestConfigContract:
    # Captured before the typed configs took over the CLI's conversions:
    # (printed config digest, EvalConfig fingerprint, report.json SHA-256).
    PINNED = {
        "no-flags": ("d57e05d47a39276b", "cc52965bf9e80448",
                     "c6c15189bc7460456556884771bc66bb7f327d81f6e9a6f7b12cc183a0b7de0b"),
        "mode": ("7abdac271bbf0ce4", "ad56244a3c83b30d",
                 "797c77b8c2b7b5fa5e43c45af52048f54c81305487d899c52b3486b31edff45c"),
        "k": ("9db03359a083e2e9", "0e4421a55116566d",
              "ea711543d2c1f5c23787d1ce4f7876c0929625cfea51c0dc3f304a718c74be38"),
        "seed": ("118eb0603ac8c96c", "b6ff0c8efc4f9fe8",
                 "f888eb4d5477bdd635658e0e4fe1387dd41e7c6bf3ec039799285bfdd395ac46"),
        "all-three": ("754c8ebe7a834f7a", "cf97a7a02055f65c",
                      "52cbbb9a0c254561e025777ecce320de7650771ae5aae74ae760c4543371e755"),
    }

    @pytest.mark.parametrize(
        "case, flags",
        [("no-flags", []), ("mode", ["--mode", "hybrid"]), ("k", ["--k", "1,5"]),
         ("seed", ["--seed", "3"]),
         ("all-three", ["--mode", "lexical", "--k", "3", "--seed", "11"])],
    )
    def test_valid_config_keeps_digest_and_fingerprint(
        self, workspace, capsys, monkeypatch, case, flags
    ):
        tmp_path, _, config = workspace
        monkeypatch.chdir(tmp_path)  # relative paths keep the digest independent of tmp_path
        config = {k: v for k, v in config.items() if k != "adapter_dir"}
        config.update(pairs_path="data/pairs.jsonl", cache_dir="cache", out_dir="runs")
        capsys.readouterr()
        assert main(["eval", "-c", write_config(tmp_path / "cfg.json", config), *flags]) == 0
        digest, fingerprint, report_sha = self.PINNED[case]
        assert capsys.readouterr().out.splitlines()[0] == f"config digest: {digest}"
        [run_dir] = (tmp_path / "runs").iterdir()
        assert run_dir.name.endswith(f"-{fingerprint[:8]}")
        report = (run_dir / "report.json").read_bytes()
        assert json.loads(report)["config_fingerprint"] == fingerprint
        assert hashlib.sha256(report).hexdigest() == report_sha

    def test_top_level_seed_reaches_training(self, workspace):
        tmp_path, _, config = workspace
        training = {k: v for k, v in config["training"].items() if k != "seed"}
        cfg = write_config(tmp_path / "cfg.json", {
            **config, "seed": 3, "training": training, "out_dir": str(tmp_path / "adapter"),
        })
        assert main(["train", "-c", cfg]) == 0
        meta = json.loads((tmp_path / "adapter" / "adapter.json").read_text())
        assert meta["config"]["seed"] == 3

    def test_readme_config_trains_and_evaluates(self, tmp_path, monkeypatch, capsys):
        # The README's command block and its cfg.json, run in tmp_path, where
        # the config's relative paths resolve.
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Command line", 1)[1]
        commands = section.split("```bash\n", 1)[1].split("```", 1)[0].splitlines()
        config = section.split("with `cfg.json` such as:", 1)[1]
        config = config.split("```json\n", 1)[1].split("```", 1)[0]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(config)
        assert [line.split()[:2] for line in commands] == [
            ["riskrank", "synth"], ["riskrank", "train"], ["riskrank", "eval"],
        ]
        for line in commands:
            assert main(line.split()[1:]) == 0, line
        assert "riskrank: " not in capsys.readouterr().err
        [run_dir] = [d for d in (tmp_path / "runs").iterdir() if d.name != "adapter"]
        report = json.loads((run_dir / "report.json").read_text())
        assert report["kind"] == "metric_comparison"

    def test_readme_flag_table_lists_every_config_flag(self):
        # Each row of the README's flag table, read as {(subcommand, flag): key}.
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
        rows = [line.split("|")[1:-1] for line in section.splitlines()
                if line.startswith("| `")]
        parser = build_parser()
        [commands] = [a.choices for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)]
        listed = {}
        for flags, subcommands, key, _default in rows:
            names = list(commands) if subcommands.strip() == "all" else re.findall(
                r"`([^`]+)`", subcommands)
            for name in names:
                for flag in re.findall(r"`([^`]+)`", flags):
                    listed[name, flag] = re.findall(r"`([^`]+)`", key)[0]
        declared = {
            (name, flag): action.dest
            for name, sub in commands.items()
            for action in sub._actions if isinstance(action, cli._ConfigFlag)
            for flag in action.option_strings
        }
        assert listed == declared


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
