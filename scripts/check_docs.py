#!/usr/bin/env python3
"""Fail when documentation references a module path that no longer exists.

Scans markdown files for two kinds of references and verifies each one
resolves inside the repository:

* repo-relative file paths (``src/...``, ``tests/...``, ``benchmarks/...``,
  ``examples/...``, ``docs/...``, ``scripts/...``), with or without a
  trailing slash;
* dotted Python module paths rooted at ``repro`` (e.g.
  ``repro.core.inflight``), resolved under ``src/`` as either a
  module file or a package directory.  Components starting with an
  uppercase letter (class names) are never matched, so prose like
  ``repro.core.frontend.FrontendConfig`` checks the module part only;
* relative markdown links (``[text](other.md)``, ``[text](../README.md)``),
  resolved against the linking file's directory — dead links fail CI.
  External (``http(s)://``, ``mailto:``) and pure-anchor (``#...``)
  targets are skipped;
* environment-variable knobs (``MOARA_*``), which must occur in the
  source tree — either literally, or derived from an ``_env("flag")``
  call in ``repro.serve.__main__`` (``MOARA_SERVE_<FLAG>``) — so docs
  cannot advertise a knob nothing reads;
* campaign schema keys: every backticked key in a ``docs/CAMPAIGNS.md``
  table row must be accepted by ``repro.campaigns.schema``, and every
  key the schema accepts must appear in such a row — the YAML reference
  can neither invent keys nor silently omit one;
* standing message types: every backticked UPPERCASE type in a
  ``docs/STANDING_QUERIES.md`` table row must be a member of
  ``repro.core.messages.STANDING_MESSAGES``, and every member must
  appear in such a row — the wire-protocol table cannot drift;
* orphan docs (default run only): every ``docs/*.md`` must be reachable
  from ``README.md`` through file references / relative links, so a new
  document cannot silently go unlinked.

Usage::

    python scripts/check_docs.py [FILE ...]

With no arguments, checks ``docs/*.md`` and ``README.md``.  Exits
non-zero listing every dangling reference, so CI keeps the architecture
documentation honest as the codebase is refactored.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

PATH_RE = re.compile(
    r"\b(?:src|tests|benchmarks|examples|docs|scripts)/[\w./-]*"
)
MODULE_RE = re.compile(r"\brepro(?:\.[a-z_][a-z0-9_]*)+")
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
ENV_RE = re.compile(r"\bMOARA_[A-Z][A-Z0-9_]*")
ENV_DERIVE_RE = re.compile(r"""_env\(\s*["']([a-z0-9_]+)["']""")
_EXTERNAL_SCHEMES = ("http://", "https://", "mailto:")
#: the campaign YAML reference; its schema-key tables are validated
#: against repro.campaigns.schema in both directions.
CAMPAIGN_DOC = "CAMPAIGNS.md"
#: a markdown table row whose first cell is a backticked schema key
KEY_ROW_RE = re.compile(r"^\|\s*`([a-z][a-z0-9_]*)`", re.MULTILINE)
#: the standing-query reference; its wire-protocol table is validated
#: against repro.core.messages.STANDING_MESSAGES in both directions.
STANDING_DOC = "STANDING_QUERIES.md"
#: a markdown table row whose first cell is a backticked message type
MSG_ROW_RE = re.compile(r"^\|\s*`([A-Z][A-Z0-9_]*)`", re.MULTILINE)


def campaign_schema_keys() -> frozenset[str]:
    """Every key the campaign schema accepts (pure-stdlib import: the
    schema module defers its YAML dependency, so this works in the bare
    docs-job interpreter)."""
    sys.path.insert(0, str(REPO / "src"))
    from repro.campaigns.schema import all_schema_keys

    return all_schema_keys()


def check_campaign_keys(path: Path, text: str, rel_name) -> list[str]:
    errors: list[str] = []
    documented = set(KEY_ROW_RE.findall(text))
    accepted = campaign_schema_keys()
    for key in sorted(documented - accepted):
        errors.append(
            f"{rel_name}: documents campaign key {key!r} that the schema "
            f"does not accept (repro.campaigns.schema)"
        )
    for key in sorted(accepted - documented):
        errors.append(
            f"{rel_name}: campaign schema key {key!r} is missing from the "
            f"reference tables"
        )
    return errors


def standing_message_types() -> frozenset[str]:
    """The standing-plane wire protocol (stdlib-only import)."""
    sys.path.insert(0, str(REPO / "src"))
    from repro.core.messages import STANDING_MESSAGES

    return frozenset(STANDING_MESSAGES)


def check_standing_messages(path: Path, text: str, rel_name) -> list[str]:
    errors: list[str] = []
    documented = set(MSG_ROW_RE.findall(text))
    wire = standing_message_types()
    for mtype in sorted(documented - wire):
        errors.append(
            f"{rel_name}: documents standing message type {mtype!r} that "
            f"is not in repro.core.messages STANDING_MESSAGES"
        )
    for mtype in sorted(wire - documented):
        errors.append(
            f"{rel_name}: standing message type {mtype!r} is missing from "
            f"the wire-protocol table"
        )
    return errors


def md_references(path: Path, text: str) -> set[Path]:
    """Markdown files this file references (repo-relative paths in
    prose/backticks plus relative markdown links)."""
    refs: set[Path] = set()
    for match in PATH_RE.finditer(text):
        ref = match.group().rstrip("./")
        if ref.endswith(".md") and (REPO / ref).is_file():
            refs.add((REPO / ref).resolve())
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(_EXTERNAL_SCHEMES) or target.startswith("#"):
            continue
        target = target.split("#", 1)[0]
        if target.endswith(".md") and (path.parent / target).is_file():
            refs.add((path.parent / target).resolve())
    return refs


def orphan_docs() -> list[str]:
    """Every docs/*.md must be reachable from README.md via references."""
    start = (REPO / "README.md").resolve()
    seen = {start}
    queue = [start]
    while queue:
        current = queue.pop()
        for ref in md_references(current, current.read_text(encoding="utf-8")):
            if ref not in seen:
                seen.add(ref)
                queue.append(ref)
    return [
        f"{doc.relative_to(REPO)}: orphan document — not reachable from "
        f"README.md through any reference or link"
        for doc in sorted((REPO / "docs").glob("*.md"))
        if doc.resolve() not in seen
    ]


def module_resolves(dotted: str) -> bool:
    """True if ``dotted`` names a module file or package under src/."""
    rel = REPO / "src" / Path(*dotted.split("."))
    return rel.with_suffix(".py").is_file() or (rel / "__init__.py").is_file()


def known_env_vars() -> set[str]:
    """Every MOARA_* knob the source tree actually reads (or documents
    in a module docstring), plus the ``MOARA_SERVE_<FLAG>`` family
    derived from ``_env("flag")`` calls."""
    known: set[str] = set()
    for root in ("src", "scripts", "benchmarks", "tests"):
        base = REPO / root
        if not base.is_dir():
            continue
        for source in base.rglob("*.py"):
            text = source.read_text(encoding="utf-8")
            known.update(ENV_RE.findall(text))
            known.update(
                f"MOARA_SERVE_{flag.upper()}"
                for flag in ENV_DERIVE_RE.findall(text)
            )
    return known


def check_file(path: Path, env_vars: set[str]) -> list[str]:
    errors: list[str] = []
    text = path.read_text(encoding="utf-8")
    try:
        rel_name: Path | str = path.relative_to(REPO)
    except ValueError:
        rel_name = path
    for match in PATH_RE.finditer(text):
        ref = match.group().rstrip("./")
        if ref and not (REPO / ref).exists():
            errors.append(f"{rel_name}: dangling file reference {ref!r}")
    for match in MODULE_RE.finditer(text):
        dotted = match.group()
        if not module_resolves(dotted):
            errors.append(
                f"{rel_name}: module reference {dotted!r} does not "
                f"resolve under src/"
            )
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(_EXTERNAL_SCHEMES) or target.startswith("#"):
            continue
        target = target.split("#", 1)[0]
        if target and not (path.parent / target).exists():
            errors.append(f"{rel_name}: dead relative link {target!r}")
    for match in ENV_RE.finditer(text):
        knob = match.group()
        if knob.endswith("_"):  # a "MOARA_SERVE_<FLAG>" placeholder
            continue
        if knob not in env_vars:
            errors.append(
                f"{rel_name}: env knob {knob!r} is not read anywhere "
                f"in the source tree"
            )
    if path.name == CAMPAIGN_DOC:
        errors.extend(check_campaign_keys(path, text, rel_name))
    if path.name == STANDING_DOC:
        errors.extend(check_standing_messages(path, text, rel_name))
    return errors


def main(argv: list[str]) -> int:
    if argv:
        files = [Path(arg).resolve() for arg in argv]
    else:
        files = sorted((REPO / "docs").glob("*.md")) + [REPO / "README.md"]
    missing = [f for f in files if not f.is_file()]
    if missing:
        for f in missing:
            print(f"check_docs: no such file: {f}", file=sys.stderr)
        return 2
    env_vars = known_env_vars()
    errors = [error for f in files for error in check_file(f, env_vars)]
    if not argv:
        errors.extend(orphan_docs())
    for error in errors:
        print(f"check_docs: {error}", file=sys.stderr)
    if errors:
        print(f"check_docs: {len(errors)} dangling reference(s)", file=sys.stderr)
        return 1
    print(f"check_docs: {len(files)} file(s) OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
