"""``docs/API.md`` is generated: it must match what the generator gives
for the code as it stands (tier-1; imports every public package)."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_committed_api_reference_is_what_the_generator_writes():
    spec = importlib.util.spec_from_file_location(
        "gen_api_docs", ROOT / "tools" / "gen_api_docs.py")
    gen_api_docs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_api_docs)
    committed = (ROOT / "docs" / "API.md").read_text(encoding="utf-8")
    assert gen_api_docs.generate() == committed, \
        "run `python tools/gen_api_docs.py` and commit docs/API.md"
