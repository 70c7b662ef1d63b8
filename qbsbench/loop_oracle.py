"""The original ORM loop as the oracle for synthesized SQL.

Each translated fragment's inferred SQL (``TransformedFragment.execute``)
must return what the fragment's original loop returns on the same
database.  The database is small, has a fixed seed and holds integers
and strings only; both results are normalized the way the corpus
equivalence tests compare them.
"""

from __future__ import annotations

import inspect
import random
import re
from typing import Any, Callable, Dict, List, Tuple

from repro.core.transform import TransformedFragment, entity_rows
from repro.corpus.advanced import AdvancedService, \
    create_advanced_database, make_advanced_service
from repro.corpus.itracker import ItrackerService, make_itracker_service
from repro.corpus.registry import CorpusFragment
from repro.corpus.schema import create_itracker_database, \
    create_wilos_database
from repro.corpus.wilos import WilosService, make_wilos_service
from repro.sql.database import Database
from repro.tor.values import Record

#: row count per table, grouped by application in load order.
SIZES: Dict[str, Dict[str, int]] = {
    "wilos": {"participant": 60, "role": 10, "project": 8, "process": 6,
              "role_descriptor": 25, "workproduct": 20,
              "workproduct_descriptor": 30},
    "itracker": {"issue": 80, "tracked_project": 6, "tracker_user": 16,
                 "notification": 40, "component": 12},
    "advanced": {"r": 40, "s": 25, "t": 30, "u": 20},
}
N = {table: count for tables in SIZES.values()
     for table, count in tables.items()}

_CREATE = {
    "wilos": create_wilos_database,
    "itracker": create_itracker_database,
    "advanced": create_advanced_database,
}
_SERVICE = {
    "wilos": make_wilos_service,
    "itracker": make_itracker_service,
    "advanced": make_advanced_service,
}
_SERVICE_CLASS = {
    "wilos": WilosService,
    "itracker": ItrackerService,
    "advanced": AdvancedService,
}


def _row(table: str, i: int, rng: random.Random) -> Dict[str, Any]:
    """Row ``i`` of ``table``: integers and strings, never None."""
    pick = rng.randrange
    rows: Dict[str, Callable[[], Dict[str, Any]]] = {
        "participant": lambda: {
            "id": i, "login": "user%d" % i, "role_id": pick(N["role"]),
            "project_id": pick(N["project"]),
            "is_manager": int(rng.random() < 0.1)},
        "role": lambda: {"role_id": i, "role_name": "role%d" % i},
        "project": lambda: {
            "id": i, "project_name": "proj%d" % i, "is_finished": pick(2),
            "creator_id": pick(N["participant"])},
        "process": lambda: {
            "id": i, "process_name": "proc%d" % i,
            "manager_id": pick(2 * N["process"])},
        "role_descriptor": lambda: {
            "id": i, "role_id": pick(N["role"]),
            "process_id": pick(N["process"]),
            "descriptor_name": "rd%d" % i},
        "workproduct": lambda: {
            "id": i, "workproduct_name": "wp%d" % i, "state": pick(2),
            "project_id": pick(N["project"])},
        "workproduct_descriptor": lambda: {
            "id": i, "workproduct_id": pick(N["workproduct"] + 10),
            "process_id": pick(N["process"]), "state": pick(2)},
        "issue": lambda: {
            "id": i, "project_id": pick(N["tracked_project"]),
            "status": pick(2), "severity": pick(5),
            "owner_id": pick(N["tracker_user"]), "created": pick(10 ** 6)},
        "tracked_project": lambda: {
            "id": i, "project_name": "proj%d" % i, "status": pick(2)},
        "tracker_user": lambda: {
            "id": i, "login": "dev%d" % i, "status": pick(2),
            "is_super": int(rng.random() < 0.2)},
        "notification": lambda: {
            "id": i, "issue_id": pick(N["issue"]),
            "user_id": pick(N["tracker_user"]), "role": pick(3)},
        "component": lambda: {
            "id": i, "project_id": pick(N["tracked_project"] + 10),
            "component_name": "comp%d" % i},
        "r": lambda: {"id": i, "a": pick(40)},
        "s": lambda: {"id": i, "b": pick(40)},
        "t": lambda: {"id": pick(10 ** 6)},
        "u": lambda: {"id": i, "c": pick(N["s"])},
    }
    return rows[table]()


def build_databases() -> Dict[str, Database]:
    """One populated database per application (default options)."""
    rng = random.Random("loop-oracle-data")
    dbs = {}
    for app, tables in SIZES.items():
        dbs[app] = _CREATE[app]()
        for table, count in tables.items():
            dbs[app].insert_many(table,
                                 [_row(table, i, rng) for i in range(count)])
    return dbs


def _argument(name: str, rng: random.Random) -> Any:
    if name == "login":
        return "user%d" % rng.randrange(N["participant"] * 11 // 10)
    if name == "role_id":
        return rng.randrange(N["role"])
    if name == "name":
        return "proc%d" % rng.randrange(N["process"] + 2)
    if name == "creator_id":
        return rng.randrange(N["participant"])
    if name == "role":
        return rng.randrange(3)
    if name == "user_id":
        return rng.randrange(N["tracker_user"])
    raise KeyError("no argument generator for %r" % name)


def _arguments(cf: CorpusFragment, rng: random.Random) -> Dict[str, Any]:
    """One seeded keyword-argument set for the fragment's method."""
    method = getattr(_SERVICE_CLASS[cf.app], cf.method)
    return {name: _argument(name, rng)
            for name in inspect.signature(method).parameters
            if name != "self"}


def _unwrap(row: Any) -> Any:
    """Single-column records compare as their scalar value."""
    if isinstance(row, Record) and len(row.fields) == 1:
        return row[row.fields[0]]
    return row


def _canonical_original(value: Any) -> Tuple[str, Any]:
    rows = entity_rows(value)
    if isinstance(value, set):
        return ("set", tuple(sorted({repr(_unwrap(r)) for r in rows})))
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(repr(_unwrap(r)) for r in rows))
    return ("val", repr(value))


def _canonical_inferred(value: Any, as_set: bool) -> Tuple[str, Any]:
    """The inferred SQL's result, in the shape of its original."""
    if isinstance(value, tuple):
        reprs = [repr(_unwrap(r)) for r in value]
        if as_set:
            return ("set", tuple(sorted(set(reprs))))
        return ("seq", tuple(reprs))
    return ("val", repr(value))


def wrong_sql(translated: List[Tuple[CorpusFragment, Any]]) -> List[str]:
    """Ids of the fragments whose SQL disagrees with the original loop.

    ``translated`` pairs each fragment with its ``QBSResult``; every
    fragment is checked on one seeded argument set.
    """
    dbs = build_databases()
    services = {app: _SERVICE[app](db) for app, db in dbs.items()}
    rng = random.Random("loop-oracle-arguments")
    wrong = []
    for cf, result in translated:
        transformed = TransformedFragment(result)
        kwargs = _arguments(cf, rng)
        want = _canonical_original(
            getattr(services[cf.app], cf.method)(**kwargs))
        params = {name: kwargs[name]
                  for name in set(re.findall(r":(\w+)", transformed.sql))}
        try:
            got = _canonical_inferred(
                transformed.execute(dbs[cf.app], params or None),
                want[0] == "set")
        except Exception:  # a raising query is a wrong answer here
            got = None
        if got != want:
            wrong.append(cf.fragment_id)
    return wrong
