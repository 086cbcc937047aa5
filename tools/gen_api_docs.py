"""Generate docs/API.md from the public API's docstrings.

Walks every subpackage's ``__all__``, collects the first docstring
paragraph of each export, and writes a markdown index.  Run from the
repository root:

    python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pathlib

PACKAGES = [
    "repro.core", "repro.eventlog", "repro.streaming", "repro.analytics",
    "repro.vision", "repro.sensors", "repro.render", "repro.offload",
    "repro.privacy", "repro.simnet", "repro.context", "repro.datagen",
    "repro.apps", "repro.store", "repro.geo", "repro.chaos", "repro.obs",
    "repro.util",
]


def _first_paragraph(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    paragraph = doc.split("\n\n", 1)[0].replace("\n", " ").strip()
    return paragraph or "(undocumented)"


def _kind(obj) -> str:
    if inspect.isclass(obj):
        return "class"
    if inspect.isfunction(inspect.unwrap(obj)):  # through lru_cache
        return "func"
    return "const"


def generate() -> str:
    lines = ["# API reference", "",
             "Generated by `tools/gen_api_docs.py`; the single-line "
             "summaries are each export's first docstring paragraph.",
             ""]
    for package_name in PACKAGES:
        module = importlib.import_module(package_name)
        lines.append(f"## {package_name}")
        lines.append("")
        module_doc = _first_paragraph(module)
        lines.append(module_doc)
        lines.append("")
        exports = sorted(getattr(module, "__all__", []))
        for name in exports:
            obj = getattr(module, name)
            kind = _kind(obj)
            if kind == "const":
                # A constant's docstring is its type's — not useful here.
                summary = f"constant of type `{type(obj).__name__}`"
            else:
                summary = _first_paragraph(obj)
            if len(summary) > 160:
                summary = summary[:157] + "..."
            lines.append(f"- **`{name}`** ({kind}) — {summary}")
        lines.append("")
    return "\n".join(lines)


def main() -> None:
    root = pathlib.Path(__file__).resolve().parent.parent
    out = root / "docs" / "API.md"
    out.write_text(generate(), encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
