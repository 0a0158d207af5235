"""docs/API.md's ``POST /query`` field table names exactly the keys the
front-end returns.

The table and ``repro.serve.frontend_server.result_to_json`` drifted
apart once (fields returned but undocumented, fields documented but no
longer returned); this pins the two together.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.core.parser import parse_query
from repro.core.query import QueryResult
from repro.serve.frontend_server import result_to_json

API_DOC = Path(__file__).resolve().parents[2] / "docs" / "API.md"

#: a field-table row: ``| `name` | type | meaning |``
_ROW = re.compile(r"^\| `(\w+)` \| [^|]* \| (.*) \|$")


def _query_response_section() -> str:
    text = API_DOC.read_text(encoding="utf-8")
    start = text.index("### Response — `200 OK`")
    return text[start : text.index("### Errors", start)]


def _documented_fields() -> set[str]:
    fields = set()
    for line in _query_response_section().splitlines():
        match = _ROW.match(line)
        if match and "not in the query body" not in match.group(2).lower():
            fields.add(match.group(1))
    return fields


def test_query_field_table_matches_the_response_body() -> None:
    result = QueryResult(
        query=parse_query("SELECT COUNT(*) WHERE web = true"), value=3
    )
    assert _documented_fields() == set(result_to_json("fe-0-1", result))

