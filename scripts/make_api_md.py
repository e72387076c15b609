#!/usr/bin/env python3
"""Generate docs/API.md: one-line summaries of the public API.

Walks every module under ``repro``, lists public classes and functions
with the first line of their docstrings, grouped by module.  Takes no
arguments; CI regenerates the file and fails if ``git diff`` shows a
change.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pathlib
import pkgutil
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import repro

OUT = ROOT / "docs" / "API.md"


def first_line(obj) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return "(undocumented)"
    return doc.splitlines()[0].rstrip(".")


def public_members(module):
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_"):
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if getattr(obj, "__module__", None) == module.__name__:
                yield name, obj


def main() -> None:
    lines = [
        "# API reference",
        "",
        "Auto-generated by `scripts/make_api_md.py`; one line per public",
        "class/function, grouped by module.",
        "",
    ]
    modules = [repro] + [
        importlib.import_module(name)
        for _, name, _ in pkgutil.walk_packages(
            repro.__path__, prefix="repro."
        )
        if not name.endswith("__main__")
    ]
    for module in modules:
        members = list(public_members(module))
        if not members:
            continue
        lines.append(f"## `{module.__name__}`")
        lines.append("")
        mod_doc = inspect.getdoc(module)
        if mod_doc:
            lines.append(mod_doc.splitlines()[0])
            lines.append("")
        for name, obj in members:
            kind = "class" if inspect.isclass(obj) else "def"
            lines.append(f"- `{kind} {name}` — {first_line(obj)}")
        lines.append("")
    OUT.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {OUT} ({len(lines)} lines)")


if __name__ == "__main__":
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    main()
