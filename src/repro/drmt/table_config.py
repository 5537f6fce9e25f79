"""Table-entry configuration format (paper §4.2).

"dsim ... takes in ... a table entries file in our own configuration format
that specifies the table entries that will be added to the match+action
tables.  The configuration format ... primarily consists of (1) the table
that the entry will be added to, (2) the packet field to be matched on,
(3) the type of match to perform (e.g. ternary, exact), and (4) the
corresponding action to be executed if there is a match."

The reproduction's textual format is one entry per line::

    add <table> <field>=<pattern> [<field>=<pattern> ...] => <action>(<arg>, <arg>, ...)

with patterns written as

* ``42`` — exact match;
* ``42&&&0xff`` — ternary match (value ``&&&`` mask);
* ``42/24`` — longest-prefix match (value ``/`` prefix length, from 0 to
  the field's width).

``#`` and ``//`` comments and blank lines are ignored.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from ..errors import TableConfigError
from ..p4.program import P4Program
from .tables import MatchPattern, TableEntry, TableStore

PathLike = Union[str, Path]

_LINE_RE = re.compile(
    r"^add\s+(?P<table>\w+)\s+(?P<matches>.*?)\s*=>\s*(?P<action>\w+)\s*\((?P<args>[^)]*)\)\s*$"
)
_MATCH_RE = re.compile(r"(?P<field>[\w.]+)\s*=\s*(?P<pattern>[^\s]+)")


def _parse_int(text: str) -> int:
    text = text.strip()
    try:
        return int(text, 0)
    except ValueError:
        raise TableConfigError(f"{text!r} is not an integer") from None


def parse_pattern(text: str, kind: str, width: int) -> MatchPattern:
    """Parse one field's pattern according to the table's declared match kind."""
    if kind == "exact":
        return MatchPattern(kind="exact", value=_parse_int(text), width=width)
    if kind == "ternary":
        if "&&&" in text:
            value_text, mask_text = text.split("&&&", 1)
            return MatchPattern(
                kind="ternary", value=_parse_int(value_text), mask=_parse_int(mask_text), width=width
            )
        return MatchPattern(kind="ternary", value=_parse_int(text), mask=(1 << width) - 1, width=width)
    if kind == "lpm":
        if "/" in text:
            value_text, prefix_text = text.split("/", 1)
            prefix = _parse_int(prefix_text)
            if not 0 <= prefix <= width:
                raise TableConfigError(
                    f"LPM prefix /{prefix} in {text!r} is outside [0, {width}] "
                    f"for a {width}-bit field"
                )
            return MatchPattern(
                kind="lpm", value=_parse_int(value_text), prefix_len=prefix, width=width
            )
        return MatchPattern(kind="lpm", value=_parse_int(text), prefix_len=width, width=width)
    raise TableConfigError(f"unsupported match kind {kind!r}")


def parse_entry_line(line: str, program: P4Program, line_number: int = 0) -> Tuple[str, TableEntry]:
    """Parse one ``add`` line into ``(table name, entry)``.

    Every malformed line raises :class:`TableConfigError` naming
    ``line_number``: an unknown table or field, a field matched twice, text
    in the match list that is not ``field=pattern``, a bad pattern or
    argument, or an argument count that differs from the action's
    parameters.
    """
    try:
        return _parse_entry(line, program)
    except TableConfigError as error:
        raise TableConfigError(f"line {line_number}: {error}") from None


def _parse_entry(line: str, program: P4Program) -> Tuple[str, TableEntry]:
    match = _LINE_RE.match(line.strip())
    if match is None:
        raise TableConfigError(f"cannot parse table entry {line!r}")
    table_name = match.group("table")
    table = program.tables.get(table_name)
    if table is None:
        raise TableConfigError(f"unknown table {table_name!r}")

    matches_text = match.group("matches")
    stray = _MATCH_RE.sub("", matches_text).strip()
    if stray:
        raise TableConfigError(f"{stray!r} is not a field=pattern match")
    declared_kinds: Dict[str, str] = {read.field: read.match_kind for read in table.reads}
    patterns: Dict[str, MatchPattern] = {}
    for field_match in _MATCH_RE.finditer(matches_text):
        field_name = field_match.group("field")
        if field_name not in declared_kinds:
            raise TableConfigError(f"table {table_name!r} does not match on {field_name!r}")
        if field_name in patterns:
            raise TableConfigError(f"field {field_name!r} is matched more than once")
        patterns[field_name] = parse_pattern(
            field_match.group("pattern"),
            declared_kinds[field_name],
            program.field_width(field_name),
        )

    action_name = match.group("action")
    args_text = match.group("args").strip()
    action_args = [_parse_int(arg) for arg in args_text.split(",")] if args_text else []
    action = program.actions.get(action_name)
    if action is not None and len(action_args) != len(action.params):
        raise TableConfigError(
            f"action {action_name!r} takes {len(action.params)} argument(s) "
            f"({', '.join(action.params) or 'none'}), got {len(action_args)}"
        )
    entry = TableEntry(patterns=patterns, action=action_name, action_args=action_args)
    return table_name, entry


def parse_entries(text: str, program: P4Program) -> List[Tuple[str, TableEntry]]:
    """Parse a whole configuration document."""
    entries: List[Tuple[str, TableEntry]] = []
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0]
        line = line.split("//", 1)[0].strip()
        if not line:
            continue
        entries.append(parse_entry_line(line, program, line_number))
    return entries


def load_entries(path: PathLike, program: P4Program) -> List[Tuple[str, TableEntry]]:
    """Parse a configuration file from disk."""
    return parse_entries(Path(path).read_text(), program)


def populate_store(store: TableStore, entries: Sequence[Tuple[str, TableEntry]]) -> TableStore:
    """Add parsed entries to a table store (returns the store for chaining)."""
    for table_name, entry in entries:
        store.add_entry(table_name, entry)
    return store
