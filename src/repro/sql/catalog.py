"""Tables and the catalog.

Rows are :class:`~repro.tor.values.Record` objects stored in insertion
order; each row's position doubles as its ``_rowid``, the storage order
the ``Order`` function of the SQL generator relies on.  Hash indexes
are created explicitly (or automatically by the ORM layer, mirroring
Hibernate's index DDL) and maintained on insert.

Every table also maintains a :class:`~repro.sql.stats.TableStats`
(row count, per-column NDV/min/max) incrementally on insert; the
cost-based planner reads it and ``Catalog.analyze()`` /
``Table.analyze()`` recompute it from the stored rows when stats have
gone stale (rows written behind the ``insert`` API).
"""

from __future__ import annotations

import hashlib
import itertools
import pickle
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.sql.errors import SQLExecutionError
from repro.sql.indexes import HashIndex
from repro.sql.stats import TableStats
from repro.tor.values import Record

#: process-unique table identities, folded into content digests so two
#: different tables can never collide on an empty/equal digest cache
#: entry by accident of naming.
_TABLE_UIDS = itertools.count(1)


class Table:
    """One base table: named columns, ordered rows, optional indexes."""

    def __init__(self, name: str, columns: Tuple[str, ...]):
        if not columns:
            raise SQLExecutionError("table %r needs at least one column" % name)
        self.name = name
        self.columns = tuple(columns)
        self.rows: List[Record] = []
        self.indexes: Dict[str, HashIndex] = {}
        #: optimizer statistics, maintained incrementally on insert.
        self.stats = TableStats(self.columns)
        #: scan statistics for the benchmark harness.
        self.rows_scanned = 0
        #: monotone content version, bumped by every mutation (insert,
        #: index creation, stats refresh).  The worker-pool cache keys
        #: shipped tables on it: an unchanged version means the cached
        #: content digest — and the worker's cached copy — are current.
        self.data_version = 0
        #: process-unique identity, stable across content versions: the
        #: pool recognizes an older cached version of this table by it.
        self.uid = next(_TABLE_UIDS)
        #: ``data_version`` at the last mutation that was not an
        #: ``insert`` (index creation, stats refresh).  Every version
        #: from here on differs from the next only by appended rows.
        self._epoch_start = 0
        self._digest_cache: Optional[Tuple[int, int, str]] = None

    def insert(self, row: Mapping[str, Any]) -> int:
        """Insert one row; returns its rowid (= position)."""
        record = row if isinstance(row, Record) else Record(row)
        if tuple(record.fields) != self.columns:
            # Accept any order / dict input but normalise to the schema.
            try:
                record = Record({c: record[c] for c in self.columns})
            except KeyError as exc:
                raise SQLExecutionError(
                    "row for table %r is missing column %s"
                    % (self.name, exc)) from None
        position = len(self.rows)
        self.rows.append(record)
        self.stats.observe(record)
        for index in self.indexes.values():
            index.add(record[index.column], position)
        self.data_version += 1
        return position

    def insert_many(self, rows: Iterable[Mapping[str, Any]]) -> None:
        for row in rows:
            self.insert(row)

    def create_index(self, column: str) -> HashIndex:
        """Create (or return) a hash index on ``column``."""
        if column not in self.columns:
            raise SQLExecutionError("no column %r in table %r"
                                    % (column, self.name))
        if column in self.indexes:
            return self.indexes[column]
        index = HashIndex(column)
        for position, record in enumerate(self.rows):
            index.add(record[column], position)
        self.indexes[column] = index
        self._start_epoch()
        return index

    def analyze(self) -> TableStats:
        """Recompute the optimizer statistics from the stored rows."""
        self.stats.refresh(self.rows)
        self._start_epoch()
        return self.stats

    def _start_epoch(self) -> None:
        self.data_version += 1
        self._epoch_start = self.data_version

    def rows_appended_since(self, version: int,
                            nrows: int) -> Optional[List[Record]]:
        """The rows appended since this table was at ``data_version``
        ``version`` holding ``nrows`` rows, or None when anything else
        changed since then.

        Replaying the returned rows through :meth:`insert` turns a copy
        of that older version into an exact copy of this one — rows,
        index buckets and statistics — which is what lets the worker
        pool ship a delta instead of the whole table.  None means the
        copy cannot be brought up to date that way: an index was
        created or the statistics refreshed since ``version`` (a new
        epoch began), or rows were written behind the ``insert`` API,
        which shows as a row-count change that ``data_version`` does
        not account for.
        """
        appended = len(self.rows) - nrows
        if version < self._epoch_start or appended < 0 \
                or self.data_version - version != appended:
            return None
        return self.rows[nrows:]

    def content_digest(self) -> str:
        """A stable digest of this table's servable content (columns,
        rows, index set), memoized by ``data_version`` and row count (so
        rows written behind the ``insert`` API still change it).

        This is the worker pool's cache key: a worker holding a table
        under this digest can execute against it without any rows being
        re-shipped.  The digest folds in the table's process-unique id,
        so the key identifies *this* table at *this* content version —
        a deliberate choice: equality across coincidentally identical
        tables is not worth risking staleness of derived state (stats,
        index layout) that rides along with the shipped copy.
        """
        version, nrows = self.data_version, len(self.rows)
        cached = self._digest_cache
        if cached is not None and cached[:2] == (version, nrows):
            return cached[2]
        body = pickle.dumps(
            (self.uid, version, self.columns,
             tuple(sorted(self.indexes)), nrows),
            protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(body).hexdigest()[:24]
        self._digest_cache = (version, nrows, digest)
        return digest

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return "Table(%s, %d rows)" % (self.name, len(self.rows))


class Catalog:
    """All tables of one database."""

    def __init__(self):
        self.tables: Dict[str, Table] = {}
        #: schema version, bumped on create/drop; with each table's
        #: ``data_version`` it forms the pool's catalog cache key.
        self.version = 0

    def create_table(self, name: str, columns: Iterable[str]) -> Table:
        if name in self.tables:
            raise SQLExecutionError("table %r already exists" % name)
        table = Table(name, tuple(columns))
        self.tables[name] = table
        self.version += 1
        return table

    def content_key(self) -> Tuple:
        """The catalog's full content identity: schema version plus
        every table's content digest.  Two equal keys mean a worker's
        cached catalog needs zero rows re-shipped."""
        return (self.version,
                tuple(sorted((name, table.content_digest())
                             for name, table in self.tables.items())))

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise SQLExecutionError("unknown table %r" % name) from None

    def analyze(self, name: Optional[str] = None) -> None:
        """Refresh optimizer statistics for one table (or all of them)."""
        if name is not None:
            self.table(name).analyze()
            return
        for table in self.tables.values():
            table.analyze()

    def drop_table(self, name: str) -> None:
        if self.tables.pop(name, None) is not None:
            self.version += 1
