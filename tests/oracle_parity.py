"""Shared helpers for the per-batch kernel parity tests: the flagship's
emit and flatten kernels are pinned to ``oracle.build_statements`` and
``prov.statement_to_triples`` (the one readable reference)."""

import datetime as dt

import pyarrow as pa

from gitprov_ray import oracle, prov, schemas
from gitprov_ray.stages import emit, versions
from gitprov_ray.util import pandas_to_arrow

STATELESS = {"activity", "wasAssociatedWith", "entity", "base_entity",
             "specializationOf", "wasInformedBy"}
STATUS = {"wasGeneratedBy", "wasInvalidatedBy", "used", "wasDerivedFrom"}


def stmt_rows(stmts) -> list[tuple]:
    """Statements (an Arrow table or oracle dicts) → row tuples with the
    Python values an Arrow round trip gives."""
    if not isinstance(stmts, pa.Table):
        stmts = pa.Table.from_pylist(stmts, schema=schemas.STATEMENTS)
    return [tuple(r[n] for n in schemas.STATEMENTS.names)
            for r in stmts.to_pylist()]


def triple_rows(table: pa.Table) -> list[tuple]:
    return [tuple(r[n] for n in prov.TRIPLE_COL_NAMES)
            for r in table.to_pylist()]


def oracle_statements(revisions: pa.Table, contributors: list[dict],
                      types=None) -> list[dict]:
    stmts, _ = oracle.build_statements(revisions.to_pylist(), contributors)
    return [s for s in stmts if types is None or s["stmt_type"] in types]


def oracle_triples(stmts: list[dict]) -> set[tuple]:
    return {tuple(t[n] for n in prov.TRIPLE_COL_NAMES)
            for s in stmts for t in prov.statement_to_triples(s)}


def status_statements(revisions: pa.Table) -> pa.Table:
    """The version-lag kernel over one batch taken as a single bucket."""
    out = versions.version_lag_group(
        revisions.select(versions.LAG_COLUMNS).to_pandas())
    return pandas_to_arrow(out, schemas.STATEMENTS)


def engine_statements(revisions: pa.Table, contributors: list[dict]) -> pa.Table:
    """Every statement the flagship emits for one batch: stateless, status
    dependent and agents."""
    agents = emit.agents_index(contributors)
    return pa.concat_tables([
        emit.emit_stateless_arrow(revisions.combine_chunks(), agents),
        status_statements(revisions),
        emit.emit_agents_table(contributors),
    ])


def edge_case_batch() -> tuple[pa.Table, list[dict]]:
    """Hostile inputs: JSON-escapable labels/filenames, null author (ST2
    fallback), null label, multi-parent and empty/null parents lists, one
    filename touched by two commits of one graph, control characters."""
    rows = []
    ts = dt.datetime(2024, 1, 2, 3, 4, 5)
    for i, (f, label, author, parents) in enumerate([
        ('dir/a "quoted".txt', 'msg with "quotes" and \\slash', "alice", ["p1"]),
        ("dir/a b.txt", "tab\there\nnewline", None, ["p1", "p2"]),
        ("unicode-café.md", "café ünïcode", "bob", []),
        ("dir/a b.txt", None, None, None),
        ("ctrl\x01char", "c\x02d", "alice", ["p1"]),
    ]):
        rows.append({
            "graph": "g%d.example" % (i % 2), "page_key": f,
            "snapshot_id": "sha%04d" % (i % 3), "ts": ts,
            "author": author, "author_name": "Alice Smith", "label": label,
            "change_status": "modified", "event_seq": i,
            "additions": 1, "changes": 1, "deletions": 0,
            "parents": parents, "url": "https://x/%d" % i})
    batch = pa.Table.from_pylist(rows, schema=schemas.REVISIONS)
    contributors = [
        {"graph": g, "login": login, "agent_type": "User", "contributions": 1,
         "email": None, "avatar_url": "https://img.example/%s.png" % login,
         "name": name}
        for g, login, name in [("g0.example", "alice", "Alice Smith"),
                               ("g1.example", "bob", None),
                               ("g1.example", "alice", "Alice Smith")]]
    return batch, contributors
