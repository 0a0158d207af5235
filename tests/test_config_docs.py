"""The README's node-config table lists exactly ``MoaraConfig``'s knobs.

A deleted knob must not linger in the docs, and a new one must not go
undocumented; the campaign schema may only name knobs that exist.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

from repro.campaigns.schema import NODE_CONFIG_KEYS
from repro.core.moara_node import MoaraConfig

README = Path(__file__).resolve().parent.parent / "README.md"
HEADING = "### `NodeConfig` / `MoaraConfig`"
ROW = re.compile(r"^\| `([^`]+)` \|", re.MULTILINE)


def table_rows(text: str) -> set[str]:
    """The backticked first cells of the table under ``HEADING``."""
    section = text.split(HEADING, 1)[1].split("\n#", 1)[0]
    return set(ROW.findall(section))


def documented_knobs() -> set[str]:
    return {f.name for f in dataclasses.fields(MoaraConfig)} | {
        "MoaraConfig.uncached()"
    }


def test_readme_table_rows_are_the_config_fields() -> None:
    assert table_rows(README.read_text(encoding="utf-8")) == documented_knobs()


def test_a_stale_row_is_caught() -> None:
    text = README.read_text(encoding="utf-8").replace(
        "| `threshold` |",
        "| `answered_ttl` | `300.0` | Gone. |\n| `threshold` |",
    )
    assert table_rows(text) - documented_knobs() == {"answered_ttl"}


def test_campaign_node_config_keys_are_config_fields() -> None:
    fields = {f.name for f in dataclasses.fields(MoaraConfig)}
    assert NODE_CONFIG_KEYS <= fields
