"""Match+action tables for dRMT simulation (paper §4.2).

dRMT "accesses centralized match+action tables using shared memory through a
crossbar"; this module models those tables: typed entries (exact, ternary and
longest-prefix matches), lookup against a packet's field values, and the
shared table store that every processor consults.

:meth:`MatchActionTable.lookup` is the linear scan the tick interpreter runs
and the oracle the faster drivers are tested against.  Those drivers probe
:meth:`MatchActionTable.mask_groups` instead: every pattern is rewritten as
``(x & mask) == (value & mask)`` (:attr:`MatchPattern.match_mask`), entries
sharing one tuple of masks land in one dict keyed by their masked values,
and a lookup becomes one dict probe per group (:func:`probe_groups`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import TableConfigError
from ..p4.program import P4Program, Table


@dataclass(frozen=True)
class MatchPattern:
    """One field's match pattern inside a table entry.

    * exact: ``value`` must equal the packet field;
    * ternary: ``(packet & mask) == (value & mask)``;
    * lpm: the top ``prefix_len`` bits of a ``width``-bit field must match.
    """

    kind: str
    value: int
    mask: Optional[int] = None
    prefix_len: Optional[int] = None
    width: int = 32

    def matches(self, field_value: int) -> bool:
        """True when ``field_value`` satisfies this pattern."""
        if self.kind == "exact":
            return field_value == self.value
        if self.kind == "ternary":
            mask = self.mask if self.mask is not None else (1 << self.width) - 1
            return (field_value & mask) == (self.value & mask)
        if self.kind == "lpm":
            prefix = self.prefix_len if self.prefix_len is not None else self.width
            if prefix == 0:
                return True
            shift = max(self.width - prefix, 0)
            return (field_value >> shift) == (self.value >> shift)
        raise TableConfigError(f"unknown match kind {self.kind!r}")

    @property
    def match_mask(self) -> int:
        """The mask ``m`` with ``matches(x) == ((x & m) == (value & m))``.

        Exact for every Python int ``x``, negative and out-of-width values
        included: exact is ``-1``, ternary its mask (full width when
        absent), and a ``/p`` prefix ``-1 << max(width - p, 0)`` (``0`` for
        ``/0``), since ``x >> s == v >> s`` exactly when
        ``x & (-1 << s) == v & (-1 << s)``.
        """
        if self.kind == "exact":
            return -1
        if self.kind == "ternary":
            return self.mask if self.mask is not None else (1 << self.width) - 1
        if self.kind == "lpm":
            prefix = self.prefix_len if self.prefix_len is not None else self.width
            if prefix == 0:
                return 0
            return -1 << max(self.width - prefix, 0)
        raise TableConfigError(f"unknown match kind {self.kind!r}")

    @property
    def specificity(self) -> int:
        """Used to order LPM entries: longer prefixes win."""
        if self.kind == "lpm":
            return self.prefix_len if self.prefix_len is not None else self.width
        if self.kind == "exact":
            return self.width
        mask = self.mask if self.mask is not None else (1 << self.width) - 1
        return bin(mask).count("1")


@dataclass
class TableEntry:
    """One row of a match+action table."""

    patterns: Dict[str, MatchPattern]
    action: str
    action_args: List[int] = field(default_factory=list)
    priority: int = 0

    def matches(self, fields: Mapping[str, int]) -> bool:
        """True when every pattern matches the packet's field values."""
        for field_name, pattern in self.patterns.items():
            if not pattern.matches(int(fields.get(field_name, 0))):
                return False
        return True

    @property
    def specificity(self) -> int:
        """Combined specificity used to break ties between matching entries."""
        return sum(pattern.specificity for pattern in self.patterns.values())


class MatchActionTable:
    """A populated match+action table."""

    def __init__(self, definition: Table, program: P4Program):
        self.definition = definition
        self.program = program
        self.entries: List[TableEntry] = []
        self.hit_count = 0
        self.miss_count = 0

    @property
    def name(self) -> str:
        """Table name."""
        return self.definition.name

    def add_entry(self, entry: TableEntry) -> None:
        """Append an entry (validated against the table's reads and actions)."""
        expected_fields = set(self.definition.match_fields())
        if set(entry.patterns) != expected_fields:
            raise TableConfigError(
                f"table {self.name!r} matches on {sorted(expected_fields)}, entry supplies "
                f"{sorted(entry.patterns)}"
            )
        if entry.action not in self.definition.actions:
            raise TableConfigError(
                f"table {self.name!r} cannot invoke action {entry.action!r}; allowed: "
                f"{self.definition.actions}"
            )
        if len(self.entries) >= self.definition.size:
            raise TableConfigError(f"table {self.name!r} is full (size {self.definition.size})")
        self.entries.append(entry)

    def lookup(self, fields: Mapping[str, int]) -> Optional[TableEntry]:
        """Find the best matching entry (highest priority, then most specific)."""
        candidates = [entry for entry in self.entries if entry.matches(fields)]
        if not candidates:
            self.miss_count += 1
            return None
        self.hit_count += 1
        return max(candidates, key=lambda entry: (entry.priority, entry.specificity))

    @property
    def is_exact(self) -> bool:
        """True when every ``reads`` clause entry uses the exact match kind.

        Such a table has one mask group, so a lookup is a single dict probe
        into :meth:`exact_index`; the fused dRMT code generator keys on the
        same definition property.
        """
        return self.definition.is_exact

    def _ranked_groups(
        self, scalar_keys: bool
    ) -> Dict[Tuple[int, ...], Dict[object, Tuple[int, TableEntry]]]:
        """Entries grouped by their tuple of masks, best group first.

        Each group maps a masked key to ``(rank, entry)`` for the best entry
        with that key.  Ranks order entries as :meth:`lookup`'s ``max`` does
        -- highest ``(priority, specificity)``, earliest added on ties -- and
        grow with preference, from ``0`` for the worst entry.  Entries are
        inserted best-first, so every group keeps its best entry per key,
        its first value holds its highest rank, and the groups come out
        sorted by that rank.
        """
        field_order = self.definition.match_fields()
        entries = self.entries
        order = sorted(
            range(len(entries)),
            key=lambda position: (
                entries[position].priority,
                entries[position].specificity,
                -position,
            ),
            reverse=True,
        )
        groups: Dict[Tuple[int, ...], Dict[object, Tuple[int, TableEntry]]] = {}
        for rank, position in zip(range(len(entries) - 1, -1, -1), order):
            entry = entries[position]
            patterns = [entry.patterns[name] for name in field_order]
            masks = tuple(pattern.match_mask for pattern in patterns)
            key = tuple(pattern.value & mask for pattern, mask in zip(patterns, masks))
            index = groups.setdefault(masks, {})
            index.setdefault(key[0] if scalar_keys else key, (rank, entry))
        return groups

    def mask_groups(self) -> Tuple[tuple, ...]:
        """The dict index the fused and generic dRMT drivers probe.

        One ``(bound, m0, ..., mk, index)`` tuple per distinct tuple of
        :attr:`MatchPattern.match_mask` values (fields in ``match_fields``
        order), sorted by ``bound``, the highest rank in the group, best
        first.  ``index`` maps the masked key -- a scalar for a one-field
        table, else a tuple -- to ``(rank, entry)``.  :func:`probe_groups`
        returns exactly the entry :meth:`lookup` would.  Rebuild after
        adding entries; the drivers build it once per run.
        """
        scalar_keys = len(self.definition.match_fields()) == 1
        return tuple(
            (next(iter(index.values()))[0], *masks, index)
            for masks, index in self._ranked_groups(scalar_keys).items()
        )

    def exact_index(self) -> Dict[Tuple[int, ...], TableEntry]:
        """The single mask group of an all-exact table, as a plain dict.

        Maps the tuple of pattern values (in ``match_fields`` order) to the
        entry :meth:`lookup` would return for a packet carrying exactly those
        values, under the tie-break rule of :meth:`mask_groups`.  Rebuild
        after adding entries; the generated fused loop builds it once per
        ``run_trace`` call.
        """
        if not self.is_exact:
            raise TableConfigError(
                f"table {self.name!r} mixes match kinds; only all-exact tables "
                "can be specialised into a dict index"
            )
        # Every exact mask is -1, so all entries share one group.
        for index in self._ranked_groups(scalar_keys=False).values():
            return {key: entry for key, (_rank, entry) in index.items()}
        return {}


def probe_groups(
    groups: Sequence[tuple], values: Sequence[int]
) -> Optional[TableEntry]:
    """Best entry of :meth:`MatchActionTable.mask_groups` for ``values``.

    ``values`` are the packet's field values in ``match_fields`` order.  A
    hit outranking a group's bound outranks every later group too, so the
    walk stops there.  The fused generator emits an arity-specialised copy
    of this loop per table.
    """
    rank, best = -1, None
    scalar = len(values) == 1
    for group in groups:
        if rank > group[0]:
            break
        if scalar:
            key = values[0] & group[1]
        else:
            key = tuple(value & mask for value, mask in zip(values, group[1:-1]))
        hit = group[-1].get(key)
        if hit is not None and hit[0] > rank:
            rank, best = hit
    return best


class TableStore:
    """The centralised table memory shared by every dRMT processor."""

    def __init__(self, program: P4Program):
        self.program = program
        self.tables: Dict[str, MatchActionTable] = {
            name: MatchActionTable(definition, program) for name, definition in program.tables.items()
        }

    def __getitem__(self, name: str) -> MatchActionTable:
        try:
            return self.tables[name]
        except KeyError:
            raise TableConfigError(f"unknown table {name!r}") from None

    def add_entry(self, table_name: str, entry: TableEntry) -> None:
        """Add one entry to one table."""
        self[table_name].add_entry(entry)

    def total_entries(self) -> int:
        """Number of entries across every table."""
        return sum(len(table.entries) for table in self.tables.values())

    def hit_statistics(self) -> Dict[str, Tuple[int, int]]:
        """Per-table (hits, misses) counters accumulated during simulation."""
        return {name: (table.hit_count, table.miss_count) for name, table in self.tables.items()}
