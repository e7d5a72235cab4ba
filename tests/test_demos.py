"""Every script under demos/ runs to completion against the source tree,
and the demos listed in EXPECTED_STDOUT print exactly that text."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

EXPECTED_STDOUT = {
    "02_embeddings_and_cache": """\
tokenize('Credit exposure, VaR-99.5%') -> ['credit', 'exposure', 'var', '99', '5']

hash embeddings are unit float32 vectors: |a| = 1.000000
cosine(related texts)   = +0.8165
cosine(unrelated texts) = +0.0000
re-embedding is bit-identical: True

cache segment: .../hash-d256-s0/398007a3945697af...vec, 2 rows
round-trip bit-exact: True
""",
    "03_retrieval_modes": """\
query: 'how is credit risk capital calculated'

dense (cosine):
  1. guide-irb +0.4330
  2. guide-car +0.3086
  3. guide-ops +0.3086
  4. guide-lcr +0.0000
  5. guide-sec +0.0000
lexical (BM25):
  1. guide-irb +2.3571
  2. guide-car +1.0904
  3. guide-ops +1.0904
hybrid (reciprocal-rank fusion):
  1. guide-irb 0.032787
  2. guide-car 0.032258
  3. guide-ops 0.031746
  4. guide-lcr 0.015625
  5. guide-sec 0.015385
""",
    "04_adapter_training": """\
base model (identity adapter): MRR@10 = 0.1483

epoch | mean loss | in-batch acc | test MRR@10
  1   |  1.1809   |    0.792     |   0.2597
  2   |  0.9242   |    0.931     |   0.3615

trained adapter: MRR@10 = 0.3615 (+0.2132 vs base)
  MAP@100: 0.1701 -> 0.3790
  NDCG@10: 0.1975 -> 0.4176
  HR@5: 0.2400 -> 0.4800
""",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_cleanly(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    if demo.stem in EXPECTED_STDOUT:
        assert result.stdout == EXPECTED_STDOUT[demo.stem]
