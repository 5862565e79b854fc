"""Stateless statement emit (SURVEY.md §2.9 rows without cross-row state).

``emit_stateless_arrow`` turns REVISIONS rows into statement rows for the
STATUS-INDEPENDENT statements only: activity, wasAssociatedWith, entity
(specialized), base-entity candidate, specializationOf, wasInformedBy
(parents-list explode, J4). The status-dependent statements (wasGeneratedBy
/ wasInvalidatedBy / used / wasDerivedFrom) come from the `versions.py`
shuffle stage, which owns the reference's within-commit first-event-wins
dedup (a duplicate (page_key, snapshot) row with a conflicting status must
emit only the FIRST event's statements — impossible to decide inside a
stateless batch when a page may straddle block boundaries).

Commit-level statements (activity / association / informedBy) repeat across
the file rows of one commit; they are deduped per batch here — keyed on
(graph, snapshot_id), since the same snapshot id may legally appear in two
graphs (forks sharing commit shas) — and globally by the final
(graph,subj,pred,obj) triple dedup: identical rows flatten to identical
triples, so no extra shuffle is needed for exactness.

Base-entity dedup (reference ST3, first-touch by LABEL,
ProvenanceService.java:378-394): the base-entity id and label are pure
functions of the filename, so emitting one candidate per event and deduping
at the triple level yields exactly the reference's triple set — including
the reference's id-collision behavior where two filenames normalize to the
same id but keep distinct labels (both label triples survive, as in the
reference). No groupby-first shuffle required for parity.

Agent resolution (ST2) uses a BROADCAST of the small contributors side
table: ``make_emitter`` captures the agents index in the task closure, which
Ray serializes once — never re-shipped per batch.

The readable reference for every statement emitted here is ``oracle.py``;
test_emit_vec.py pins this emitter to it per batch.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import idgen, prov, schemas
from ..schemas import STMT_RANK


def agents_index(contributor_rows: list[dict]) -> dict[str, list[tuple]]:
    """graph → [(login, name-or-None), ...] in contributor-table order (ST2)."""
    idx: dict[str, list[tuple]] = {}
    for c in contributor_rows:
        idx.setdefault(c["graph"], []).append((c["login"], c["name"]))
    return idx


def resolve_author(agents: list[tuple], author, author_name) -> str:
    """ST2 fallback (ProvenanceService.java:141-153): null login → first
    agent whose foaf:name equals the commit author name, agents WITHOUT a
    name matching by default; first match wins."""
    if author is not None:
        return author
    for login, name in agents:
        if name is None or name == author_name:
            return login
    raise IndexError("no agent matched author fallback")


def _stmts_to_table(stmts: list[dict]) -> pa.Table:
    return pa.Table.from_pylist(stmts, schema=schemas.STATEMENTS)


def make_emitter(agents_idx: dict):
    """Task-pool ``map_batches`` UDF for :func:`emit_stateless_arrow`: the
    (small) agents index is captured in the closure, which Ray serializes
    ONCE and ships by reference to tasks — the broadcast without actor-spawn
    latency."""
    def emit_batch(batch: pa.Table) -> pa.Table:
        return emit_stateless_arrow(batch, agents_idx)

    return emit_batch


def emit_agents_table(contributor_rows: list[dict]) -> pa.Table:
    """Agent statements from the contributors side table
    (processAllAgents, ProvenanceService.java:332-365)."""
    stmts = [
        prov.stmt_agent(c["graph"], c["login"], c["agent_type"],
                        c["contributions"], c["email"], c["avatar_url"], c["name"])
        for c in contributor_rows
    ]
    return _stmts_to_table(stmts)


def _json_quote_arrow(arr: pa.Array) -> pa.Array:
    """Vectorized ``json.dumps(v, ensure_ascii=False)`` over a string
    array: values without a JSON-escapable character (backslash, quote, C0
    control) are quoted with one C++ concat; the rare flagged rows fall back
    to json.dumps; nulls render as the JSON literal ``null`` (matching
    json.dumps(None))."""
    simple = pc.binary_join_element_wise('"', arr, '"', "")
    flagged = pc.fill_null(pc.match_substring_regex(arr, r'[\\"\x00-\x1f]'), False)
    if pc.any(flagged).as_py():
        idx = np.flatnonzero(flagged.to_numpy(zero_copy_only=False))
        vals = [json.dumps(v, ensure_ascii=False)
                for v in arr.take(pa.array(idx)).to_pylist()]
        out = np.asarray(simple.to_pandas(), dtype=object)
        out[idx] = vals
        simple = pa.array(out, type=pa.string())
    return pc.fill_null(simple, "null")


def _dict_map(arr: pa.Array, fn) -> pa.Array:
    """Apply a Python string function over the UNIQUE values of ``arr`` only
    (dictionary-encode → map dictionary → take), so per-row Python cost is
    amortized across repeats — filenames/logins repeat heavily per batch."""
    d = pc.dictionary_encode(arr)
    mapped = pa.array([fn(v) for v in d.dictionary.to_pylist()], pa.string())
    return mapped.take(d.indices)


def emit_stateless_arrow(batch: pa.Table, agents: dict) -> pa.Table:
    """REVISIONS batch → status-independent STATEMENTS rows, all Arrow C++
    kernels (no pandas string churn in the hot flagship path).

    Pinned by test_emit_vec.py set parity against ``oracle.build_statements``.
    Invariants it exploits: snapshot ids are hex, so escape_ncname is the
    identity on them; escape_ncname distributes over concatenation when the
    left part starts with a letter (every minted id starts with a literal
    prefix), so ids are string concats over per-unique-filename escaped
    bases. Per-unique-value Python escapes via dictionary encode,
    first-per-(graph,sha) via np.unique on dictionary codes, parents
    explode via list_flatten/list_parent_indices — zero per-row Python in
    the common path. Attrs JSON is rendered from templates that match
    ``json.dumps(..., ensure_ascii=False, sort_keys=True)`` byte for byte."""
    batch = batch.combine_chunks()
    n = batch.num_rows
    if n == 0:
        return schemas.STATEMENTS.empty_table()
    col = {name: batch.column(name).combine_chunks()
           for name in ("graph", "page_key", "snapshot_id", "ts", "author",
                        "author_name", "label", "parents")}

    base = _dict_map(col["page_key"],
                     lambda v: idgen.escape_ncname(idgen.base_entity_name(v)))
    spec = pc.binary_join_element_wise(base, col["snapshot_id"], "_commit-")
    jlabel = _dict_map(col["page_key"], _json_dumps_str)
    ent_attrs = pc.binary_join_element_wise(
        '{"prov:label": [', jlabel, ', "xsd:string"]}', "")

    nulls_s = pa.nulls(n, pa.string())
    nulls_t = pa.nulls(n, pa.timestamp("us"))

    def block(stmt_type, id_a, subj_a, obj_a, secondary_a, t_a, attrs_a,
              graph_a, m):
        return pa.Table.from_arrays(
            [pa.repeat(pa.scalar(stmt_type), m), id_a, subj_a, obj_a,
             secondary_a, t_a, attrs_a, graph_a,
             pa.repeat(pa.scalar(STMT_RANK[stmt_type], pa.int32()), m)],
            schema=schemas.STATEMENTS)

    parts = [
        block("entity", spec, spec, nulls_s, nulls_s, nulls_t, ent_attrs,
              col["graph"], n),
        block("base_entity", base, base, nulls_s, nulls_s, nulls_t, ent_attrs,
              col["graph"], n),
        block("specializationOf", nulls_s, spec, base, nulls_s, nulls_t,
              pa.repeat(pa.scalar("{}"), n), col["graph"], n),
    ]

    # --- per-commit statements (first (graph, sha) occurrence wins) -------
    key = pc.binary_join_element_wise(col["graph"], col["snapshot_id"], "\x00")
    codes = pc.dictionary_encode(key).indices.to_numpy()
    first = np.unique(codes, return_index=True)[1]
    first.sort()
    c = {k: v.take(pa.array(first)) for k, v in col.items()}
    m = len(first)

    url = pc.binary_join_element_wise(
        pc.binary_join_element_wise("https://", c["graph"], ""),
        c["snapshot_id"], "/snapshot/")
    act_attrs = pc.binary_join_element_wise(
        '{"foaf:homepage": [', _json_quote_arrow(url),
        ', "xsd:anyURI"], "prov:label": [', _json_quote_arrow(c["label"]),
        ', "xsd:string"]}', "")
    act_id = pc.binary_join_element_wise("commit-", c["snapshot_id"], "")
    nulls_sm = pa.nulls(m, pa.string())
    nulls_tm = pa.nulls(m, pa.timestamp("us"))
    parts.append(block("activity", act_id, act_id, nulls_sm, nulls_sm,
                       c["ts"], act_attrs, c["graph"], m))

    resolved = c["author"]
    if resolved.null_count:
        resolved = pa.array(
            [a if a is not None else resolve_author(agents.get(g, []), a, an)
             for a, an, g in zip(resolved.to_pylist(),
                                 c["author_name"].to_pylist(),
                                 c["graph"].to_pylist())], pa.string())
    agent_ids = _dict_map(resolved, idgen.agent_id)
    parts.append(block(
        "wasAssociatedWith",
        pc.binary_join_element_wise("association-", c["snapshot_id"], ""),
        act_id, agent_ids, nulls_sm, nulls_tm,
        pa.repeat(pa.scalar('{"prov:role": ["authorship", "xsd:string"]}'), m),
        c["graph"], m))

    flat = pc.list_flatten(c["parents"])
    k = len(flat)
    if k:
        par_idx = pc.list_parent_indices(c["parents"])
        sha_x = c["snapshot_id"].take(par_idx)
        parts.append(block(
            "wasInformedBy",
            pc.binary_join_element_wise("information-", flat, "-", sha_x, ""),
            pc.binary_join_element_wise("commit-", sha_x, ""),
            pc.binary_join_element_wise("commit-", flat, ""),
            pa.nulls(k, pa.string()), pa.nulls(k, pa.timestamp("us")),
            pa.repeat(pa.scalar("{}"), k), c["graph"].take(par_idx), k))

    return pa.concat_tables(parts).combine_chunks()


def _json_dumps_str(v: str) -> str:
    return json.dumps(v, ensure_ascii=False)
