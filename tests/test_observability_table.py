"""The "What is instrumented" table in docs/OBSERVABILITY.md must list
exactly the metrics the package emits.

The emitted names are collected by walking the AST of every module under
``src/repro`` for calls to ``counter``/``gauge``/``histogram``/``observe``
whose first argument is a string literal.  An f-string name (such as
``f"diskcache.{what}"``) becomes a pattern the table's names may match.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRIC_CALLS = {"counter", "gauge", "histogram", "observe"}


def _emitted():
    literals, patterns = set(), []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in METRIC_CALLS
                and node.args
            ):
                continue
            name = node.args[0]
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                literals.add(name.value)
            elif isinstance(name, ast.JoinedStr):
                parts = [
                    re.escape(v.value) if isinstance(v, ast.Constant) else r"[a-z_]+"
                    for v in name.values
                ]
                patterns.append(re.compile("".join(parts) + r"\Z"))
    return literals, patterns


def _table_metrics():
    text = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
    section = text.split("## What is instrumented", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    assert rows, "no table rows under 'What is instrumented'"
    names = set()
    for row in rows:
        metrics_cell = row.split("|")[3]
        for token in re.findall(r"`([^`]+)`", metrics_cell):
            names.add(token.split("{", 1)[0])
    return names


def test_collector_finds_the_metrics():
    literals, patterns = _emitted()
    assert {"segment.tiles", "csr.derived_cache.misses", "train.epoch.loss"} <= literals
    assert any(p.match("diskcache.hits") for p in patterns)


def test_table_lists_every_emitted_metric():
    literals, _ = _emitted()
    missing = sorted(literals - _table_metrics())
    assert not missing, f"docs/OBSERVABILITY.md table omits {missing}"


def test_table_lists_no_metric_that_is_not_emitted():
    literals, patterns = _emitted()
    stale = sorted(
        name
        for name in _table_metrics() - literals
        if not any(p.match(name) for p in patterns)
    )
    assert not stale, f"docs/OBSERVABILITY.md table lists metrics nothing emits: {stale}"
