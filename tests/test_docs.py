"""Docs that execute: fenced Python blocks in ``docs/*.md``.

Every fenced ```python block in the docs must at least be valid
syntax, so renamed APIs can't silently strand the prose. The campaign
and robustness guides go further: their blocks run end-to-end against
the simulators, in the namespace the pages document (backend
instances plus a small ``specs`` list predefined, cwd in a tmp dir so
relative journal paths are safe).
"""

import re
from pathlib import Path

import pytest

from repro import TrainConfig, gpt2_model
from repro.workloads.sweeps import SweepSpec

ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = ROOT / "docs"

# Pages whose blocks are executed, not just compiled.
EXECUTED_PAGES = ("campaign.md", "robustness.md", "observability.md",
                  "caching.md", "performance.md")

FENCE = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)
# A test file cited in prose, optionally with ``::Name`` parts.
TEST_REF = re.compile(r"\b((?:benchmarks|tests)/[\w/]+\.py)((?:::\w+)*)")


def python_blocks(page: Path) -> list[str]:
    return FENCE.findall(page.read_text())


def doc_pages() -> list[Path]:
    pages = sorted(DOCS_DIR.glob("*.md"))
    assert pages, "docs/ has gone missing"
    return pages


@pytest.mark.parametrize("page", doc_pages(), ids=lambda p: p.name)
def test_fenced_python_is_valid_syntax(page):
    for i, block in enumerate(python_blocks(page)):
        compile(block, f"{page.name}[block {i}]", "exec")


def test_executed_pages_have_blocks():
    for name in EXECUTED_PAGES:
        assert python_blocks(DOCS_DIR / name), \
            f"{name} should contain runnable examples"


@pytest.mark.parametrize("name", EXECUTED_PAGES)
def test_guide_blocks_execute(name, tmp_path, monkeypatch, capsys,
                              cerebras, sambanova, graphcore, gpu):
    monkeypatch.chdir(tmp_path)
    train = TrainConfig(batch_size=8, seq_len=256)
    model = gpt2_model("mini")
    specs = [SweepSpec(label=f"L{n}", model=model.with_layers(n),
                       train=train) for n in (2, 3)]
    namespace = {"cerebras": cerebras, "sambanova": sambanova,
                 "graphcore": graphcore, "gpu": gpu, "specs": specs}
    for i, block in enumerate(python_blocks(DOCS_DIR / name)):
        code = compile(block, f"{name}[block {i}]", "exec")
        exec(code, namespace)  # blocks share one namespace, in order
    assert "the page printed nothing" and capsys.readouterr().out


def test_named_tests_exist():
    """Every test file (and ``::Name``) the docs cite is really there."""
    broken = []
    for page in doc_pages() + [ROOT / "README.md"]:
        for path, names in TEST_REF.findall(page.read_text()):
            target = ROOT / path
            if not target.is_file():
                broken.append(f"{page.name}: {path}")
                continue
            source = target.read_text()
            for name in names.split("::")[1:]:
                if not re.search(rf"^\s*(?:def|class) {name}\b", source,
                                 re.MULTILINE):
                    broken.append(f"{page.name}: {path}::{name}")
    assert not broken, "docs cite missing tests: " + ", ".join(broken)
