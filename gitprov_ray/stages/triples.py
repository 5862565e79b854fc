"""Statements → RDF triples: flatten, bucketed exact dedup, in-partition sort.

Dedup design (SURVEY.md §2.5 generalized row): distinct on
(graph, subj, pred, obj) is an all-to-all exchange. The flagship runs one
path: ``flatten_batch_compact`` (statements → compact rows, with a per-batch
local pre-dedup — the partial/combiner pattern, so the shuffle moves fewer
rows) → ``ops.bucket_exchange`` on the compact key →
``_dedup_expand_sort_group`` (each bucket deduplicated, expanded to full
URIs AND sorted in one vectorized Arrow pass) — a single shuffle yields the
north rule's sorted deduplicated partitions. ``dedup_triples`` is the
full-width variant, used only to re-dedup after canonicalization.

Hot-path discipline (measured, sf0.1×30 ≈ 9M triples):
  * bucket ids via the vectorized siphash in ``ops.bucket_ids`` (a
    per-row Python sha1 loop cost ~25s of CPU here);
  * dedup+sort via Arrow C++ kernels — the pandas object-dtype equivalent
    cost 840 CPU-seconds.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .. import prov, schemas
from ..ops import bucket_exchange, bucket_ids

_KEY_COLS = ["graph", "subj", "pred", "obj"]


def _dedup_sort_group(t: pa.Table) -> pa.Table:
    """Whole buckets → sorted + adjacent-deduped (all Arrow C++ kernels;
    the triple key determines the bucket, so any set of whole buckets
    dedups exactly)."""
    n = t.num_rows
    if n <= 1:
        return t
    t = t.sort_by([(c, "ascending") for c in _KEY_COLS])
    keep = None
    for c in _KEY_COLS:
        col = t.column(c).combine_chunks()
        neq = pc.not_equal(col.slice(1, n - 1), col.slice(0, n - 1))
        keep = neq if keep is None else pc.or_(keep, neq)
    mask = pa.chunked_array([pa.array([True]), keep]).combine_chunks()
    return t.filter(mask)


def dedup_triples(triples_ds, num_buckets: int = 64):
    """Exact distinct on (graph, subj, pred, obj) over full-width TRIPLES
    rows via stable hash buckets, each bucket sorted by the triple key. The
    flagship dedups in the compact exchange instead
    (:func:`dedup_compact`); this re-dedups after
    canonicalization rewrites subj/obj (rewrites can collide rows)."""
    return bucket_exchange(triples_ds, _KEY_COLS, _dedup_sort_group,
                           num_buckets)


_GP_PREFIX = "https://gitprov.example/graph/"


# ---------------------------------------------------------------------------
# compact-id dedup exchange (shuffle-byte reduction, same final output)
# ---------------------------------------------------------------------------
#
# The dedup all-to-all is the pipeline's dominant byte mover. Full triples
# carry ~90-byte gp-namespace URIs in subj (always), obj (usually) and a
# ~45-byte pred URI per row. The compact exchange ships:
#   graph, s_local (subj minus the graph namespace), pred_code (int8 into a
#   closed CURIE table), obj_kind (0=literal, 1=gp-local, 2=full URI),
#   o_val, obj_dtype
# and expands URIs inside the reduce-side bucket AFTER dedup — ≈60% fewer
# shuffle bytes, identical final rows. Subjects are always gp-namespaced in
# this engine (every minted node lives in its graph's namespace), which is
# the invariant that makes s_local total.
#
# Two further byte reductions on top (round 3, same final rows):
#   * obj_kind=3 — rdf:type objects come from a CLOSED class table
#     (prov:Entity/Activity/Agent + the six qualified-influence classes);
#     instead of a ~40-byte URI per type row, o_val carries a 1-byte code.
#   * the near-constant string columns (graph, obj_dtype) ship
#     DICTIONARY-encoded (int32 codes + a tiny dictionary per block), so
#     the ~40-byte graph URI becomes 4 bytes/row. High-cardinality
#     columns (s_local, o_val) deliberately stay plain: their per-block
#     dictionaries are nearly row-unique (no byte savings) and Ray's
#     sort-based shuffle re-unifies dictionaries per reduce chunk — a
#     measured 7× wall blowup (see _DICT_COLS below). The reduce side
#     decodes once per bucket.

_PRED_CURIES = [
    "rdf:type", "rdfs:label", "prov:type", "prov:role", "prov:label",
    "prov:startedAtTime", "prov:atTime", "prov:specializationOf",
    "prov:wasGeneratedBy", "prov:qualifiedGeneration",
    "prov:wasInvalidatedBy", "prov:qualifiedInvalidation",
    "prov:used", "prov:qualifiedUsage",
    "prov:wasInformedBy", "prov:qualifiedCommunication",
    "prov:wasAssociatedWith", "prov:qualifiedAssociation",
    "prov:wasDerivedFrom", "prov:qualifiedDerivation",
    "prov:activity", "prov:entity", "prov:agent", "prov:hadRole",
    "prov:hadActivity", "prov:hadGeneration", "prov:hadUsage",
    "foaf:homepage", "foaf:mbox", "foaf:img", "foaf:name",
    "gitprov:contributions", "gitprov:additions", "gitprov:changes",
    "gitprov:deletions",
]
_PRED_CODE = {c: i for i, c in enumerate(_PRED_CURIES)}
# full-URI form for the non-graph-dependent preds (gitprov:* need the graph)
_PRED_URI = {}
for _c in _PRED_CURIES:
    if not _c.startswith("gitprov:"):
        _PRED_URI[_PRED_CODE[_c]] = prov.expand(_c, "")
_PRED_LOCAL = {_PRED_CODE[c]: c.split(":", 1)[1]
               for c in _PRED_CURIES if c.startswith("gitprov:")}

# closed rdf:type object-class table (obj_kind=3 rows ship the code)
_CLASS_CURIES = [
    "prov:Entity", "prov:Activity", "prov:Agent", "prov:Generation",
    "prov:Invalidation", "prov:Usage", "prov:Communication",
    "prov:Association", "prov:Derivation",
]
_CLASS_URIS = [prov.expand(c, "") for c in _CLASS_CURIES]
_CLASS_URI_TO_CODE = {u: str(i) for i, u in enumerate(_CLASS_URIS)}
_CLASS_LUT = pa.array(_CLASS_URIS, pa.string())

# The exchange columns that ship dictionary-encoded: only the near-constant
# graph/obj_dtype. Measured at sf0.1×10 / 3.0M triples / 32 CPUs
# (back-to-back, same session): this choice 41 s, no dictionary columns
# 75 s, every string column dictionary-encoded 277 s. Encoding the
# high-cardinality s_local/o_val is catastrophic: their per-block
# dictionaries are nearly row-unique (indices + full dictionary ≥ the plain
# column, so no byte savings) and Ray's sort-based groupby shuffle
# re-unifies dictionaries across every reduce-side chunk — the bucket
# shuffle alone ballooned to 102 s. graph/obj_dtype dictionaries are tiny
# (≤ #graphs / #dtypes), so unification is O(1) and the per-row win
# (~40-byte graph URI → 4-byte code) is real.
_DICT_COLS = ("graph", "obj_dtype")

COMPACT_SCHEMA = pa.schema([
    (n, pa.dictionary(pa.int32(), pa.string()) if n in _DICT_COLS else t)
    for n, t in [
        ("graph", pa.string()),
        ("s_local", pa.string()),
        ("pred_code", pa.int8()),
        ("obj_kind", pa.int8()),
        ("o_val", pa.string()),
        ("obj_dtype", pa.string()),
    ]
])

# string-typed twin used while building/deduping inside one task (Arrow
# group_by and join kernels want plain strings; encode only at the block
# boundary where bytes enter the shuffle)
_COMPACT_BUILD_SCHEMA = pa.schema([
    (f.name, pa.string() if pa.types.is_dictionary(f.type) else f.type)
    for f in COMPACT_SCHEMA
])


def _encode_compact(t: pa.Table) -> pa.Table:
    """string build columns → dictionary-encoded exchange columns."""
    for name in _DICT_COLS:
        i = t.schema.get_field_index(name)
        t = t.set_column(i, name,
                         pc.dictionary_encode(t.column(name).combine_chunks()))
    return t


def _decode_compact(t: pa.Table) -> pa.Table:
    """reduce-side: dictionary columns → plain strings (once per bucket)."""
    for name in _DICT_COLS:
        i = t.schema.get_field_index(name)
        col = t.column(name)
        if pa.types.is_dictionary(col.type):
            t = t.set_column(i, name, pc.cast(col, pa.string()))
    return t


_COMPACT_KEY = ["graph", "s_local", "pred_code", "obj_kind", "o_val"]
# the dedup exchange's hash key: part of the compact key, so every compact
# key lands in one bucket
_BUCKET_KEY = ["graph", "s_local", "o_val", "pred_code"]


def _concat(*parts):
    """Element-wise string concat via the Arrow C++ kernel (the last
    argument of binary_join_element_wise is the separator)."""
    return pc.binary_join_element_wise(*parts, "")


def add_compact_bucket(batch: pa.Table, num_buckets: int) -> pa.Table:
    """``batch`` plus its int64 dedup ``bucket`` (:func:`ops.bucket_ids`
    of :data:`_BUCKET_KEY`)."""
    return batch.append_column("bucket", pa.array(
        bucket_ids(batch, _BUCKET_KEY, num_buckets), pa.int64()))


# pred lookup tables for the Arrow expansion: full URI per code ('' for the
# graph-dependent gitprov codes) + local name per code ('' otherwise)
_PRED_URI_LUT = pa.array(
    [_PRED_URI.get(i, "") for i in range(len(_PRED_CURIES))], pa.string())
_PRED_LOCAL_LUT = pa.array(
    [_PRED_LOCAL.get(i, "") for i in range(len(_PRED_CURIES))], pa.string())
_PRED_IS_LOCAL = pa.array(
    [i in _PRED_LOCAL for i in range(len(_PRED_CURIES))], pa.bool_())


def expand_compact(t: pa.Table) -> pa.Table:
    """compact rows → full TRIPLES rows. Pure Arrow C++ kernels (join /
    take / if_else) — no pandas round trip, no Python string objects (the
    reduce-side expansion runs once per output triple; object churn here
    was the scaling bottleneck)."""
    t = _decode_compact(t)
    graph = t.column("graph")
    gp = _concat(pa.scalar(_GP_PREFIX), graph, pa.scalar("#"))
    subj = _concat(gp, t.column("s_local"))
    codes = t.column("pred_code")
    pred = pc.if_else(pc.take(_PRED_IS_LOCAL, codes),
                      _concat(gp, pc.take(_PRED_LOCAL_LUT, codes)),
                      pc.take(_PRED_URI_LUT, codes))
    kind = t.column("obj_kind")
    o_val = t.column("o_val")
    is3 = pc.equal(kind, 3)
    if pc.any(is3).as_py():
        cls_idx = pc.cast(pc.if_else(is3, o_val, "0"), pa.int8())
        o_val = pc.if_else(is3, pc.take(_CLASS_LUT, cls_idx), o_val)
    obj = pc.if_else(pc.equal(kind, 1), _concat(gp, o_val), o_val)
    return pa.table(
        {"subj": subj, "pred": pred, "obj": obj,
         "obj_is_literal": pc.equal(kind, 0),
         "obj_dtype": t.column("obj_dtype"), "graph": graph},
        schema=schemas.TRIPLES)


def _dedup_expand_sort_group(t: pa.Table) -> pa.Table:
    """Whole compact buckets → hash-distinct on the compact key (Arrow C++
    group_by, no sort) → expand URIs (Arrow kernels) → ONE in-partition
    sort on the full triple key. The compact key determines the bucket, so
    any set of whole buckets gives the per-bucket rows. The earlier shape
    sorted twice (compact for adjacency-dedup, then full) — half the sort
    work for the same rows."""
    if t.num_rows == 0:  # also a column-less empty partition
        return schemas.TRIPLES.empty_table()
    if "bucket" in t.column_names:
        t = t.drop_columns(["bucket"])
    t = _decode_compact(t)
    if t.num_rows > 1:
        t = t.group_by(_COMPACT_KEY + ["obj_dtype"], use_threads=False) \
             .aggregate([])
    full = expand_compact(t)
    return full.sort_by([(c, "ascending") for c in _KEY_COLS])


_LABEL_PAT = r'^\{"prov:label": \["(?P<lab>.*)", "xsd:string"\]\}$'
_ACT_PAT = (r'^\{"foaf:homepage": \["(?P<url>.*)", "xsd:anyURI"\], '
            r'"prov:label": \["(?P<lab>.*)", "xsd:string"\]\}$')
_DERIV_PAT = (r'^\{"gitprov:additions": \[(?P<a>-?\d+), "xsd:int"\], '
              r'"gitprov:changes": \[(?P<c>-?\d+), "xsd:int"\], '
              r'"gitprov:deletions": \[(?P<d>-?\d+), "xsd:int"\], '
              r'"prov:hadGeneration": \["(?P<g>[^"\\\\]*)", "@uri"\], '
              r'"prov:hadUsage": \["(?P<u>[^"\\\\]*)", "@uri"\]\}$')
_ROLE_CONST = '{"prov:role": ["authorship", "xsd:string"]}'


def _json_unescape(arr: pa.Array) -> pa.Array:
    """Undo JSON string escaping on regex-captured values. Vector fast
    path: rows without a backslash are already exact; only rows containing
    one go through json.loads (rare — control chars / quotes in labels)."""
    import json as _json

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    has = pc.not_equal(pc.find_substring(arr, pattern="\\"), -1)
    if not pc.any(has).as_py():
        return arr
    vals = [(_json.loads('"%s"' % v) if "\\" in v else v)
            for v in arr.to_pylist()]
    return pa.array(vals, pa.string())


def _iso_arrow(ts) -> pa.Array:
    """Vectorized Python-isoformat-compatible rendering of timestamp[us]:
    no fractional part when microseconds are zero, 6 digits otherwise
    (byte-identical to datetime.isoformat(), pinned by test_flatten_vec.py)."""
    if isinstance(ts, pa.ChunkedArray):
        ts = ts.combine_chunks()
    full = pc.strftime(ts, format="%Y-%m-%dT%H:%M:%S")  # %S carries .ffffff
    us = pc.cast(ts, pa.int64())
    frac = pc.not_equal(pc.subtract(us, pc.multiply(
        pc.divide(us, 1_000_000), 1_000_000)), 0)
    return pc.if_else(frac, full, pc.utf8_slice_codeunits(full, 0, 19))


def flatten_batch_compact(batch: pa.Table) -> pa.Table:
    """STATEMENTS batch → COMPACT triple rows directly (statements already
    carry graph-local ids, so no URI is ever built pre-shuffle). Pinned by
    test_flatten_vec.py: after expand_compact it equals
    ``prov.statement_to_triples`` over the oracle's statements.

    Structural rows are pure Arrow kernel work (filter / repeat / strftime
    / hash-distinct) — the statements' id/subj/obj columns pass through
    untouched; only the attrs JSON expansion iterates rows (with a
    per-distinct-attrs parse cache)."""
    import json as _json

    from ..prov import _ATTR_PRED, _INFLUENCE, _NODE_CLASS, _TIME_PRED

    if batch.num_rows == 0:
        return pa.Table.from_pylist([], schema=COMPACT_SCHEMA)
    parts: list[pa.Table] = []

    def tbl(graph, s_local, code, kind, o_val, dtype=""):
        n = len(graph)
        if n == 0:
            return
        parts.append(pa.table({
            "graph": graph,
            "s_local": s_local,
            "pred_code": pa.repeat(pa.scalar(code, pa.int8()), n),
            "obj_kind": pa.repeat(pa.scalar(kind, pa.int8()), n),
            "o_val": pa.repeat(pa.scalar(o_val), n)
                     if isinstance(o_val, str) else o_val,
            "obj_dtype": pa.repeat(pa.scalar(dtype), n),
        }, schema=_COMPACT_BUILD_SCHEMA))

    def attr_rows_loop(att: pa.Table, nd_arr):
        """Generic per-row attrs expansion (agents + any non-template rows)
        with a per-distinct-attrs parse cache."""
        rows = {"graph": [], "s_local": [], "pred_code": [], "obj_kind": [],
                "o_val": [], "obj_dtype": []}
        cache: dict[str, list] = {}
        for nd, attrs_json, gr in zip(nd_arr.to_pylist(),
                                      att.column("attrs").to_pylist(),
                                      att.column("graph").to_pylist()):
            items = cache.get(attrs_json)
            if items is None:
                attrs = _json.loads(attrs_json)
                items = []
                for pred, (val, dtype) in sorted(attrs.items()):
                    if dtype == "@uri":
                        items.append((_PRED_CODE[pred], 1, str(val), ""))
                    else:
                        items.append((_PRED_CODE[_ATTR_PRED.get(pred, pred)],
                                      0, str(val), dtype))
                cache[attrs_json] = items
            for code, kind, val, dtype in items:
                rows["graph"].append(gr)
                rows["s_local"].append(nd)
                rows["pred_code"].append(code)
                rows["obj_kind"].append(kind)
                rows["o_val"].append(val)
                rows["obj_dtype"].append(dtype)
        parts.append(pa.table({
            "graph": pa.array(rows["graph"], pa.string()),
            "s_local": pa.array(rows["s_local"], pa.string()),
            "pred_code": pa.array(rows["pred_code"], pa.int8()),
            "obj_kind": pa.array(rows["obj_kind"], pa.int8()),
            "o_val": pa.array(rows["o_val"], pa.string()),
            "obj_dtype": pa.array(rows["obj_dtype"], pa.string()),
        }, schema=_COMPACT_BUILD_SCHEMA))

    def emit_attr_rows(sub: pa.Table, node, st: str = ""):
        """Attrs expansion: vectorized fast paths for the fixed-template
        statement kinds (regex field extraction via pc.extract_regex — the
        per-row loop was 68% of flatten CPU), generic loop otherwise."""
        mask = pc.and_(pc.not_equal(sub.column("attrs"), "{}"),
                       pc.is_valid(sub.column("attrs")))
        if not pc.any(mask).as_py():
            return
        att = sub.filter(mask)
        nd_arr = node.filter(mask)
        attrs_col = att.column("attrs").combine_chunks()

        if st in ("entity", "base_entity"):
            ex = pc.extract_regex(attrs_col, pattern=_LABEL_PAT)
            hit = pc.is_valid(ex)
            if pc.all(hit).as_py():
                tbl(att.column("graph"), nd_arr,
                    _PRED_CODE["rdfs:label"], 0,
                    _json_unescape(pc.struct_field(ex, "lab")), "xsd:string")
                return
        elif st == "activity":
            ex = pc.extract_regex(attrs_col, pattern=_ACT_PAT)
            hit = pc.is_valid(ex)
            if pc.all(hit).as_py():
                g = att.column("graph")
                tbl(g, nd_arr, _PRED_CODE["foaf:homepage"], 0,
                    _json_unescape(pc.struct_field(ex, "url")), "xsd:anyURI")
                tbl(g, nd_arr, _PRED_CODE["rdfs:label"], 0,
                    _json_unescape(pc.struct_field(ex, "lab")), "xsd:string")
                return
        elif st == "wasAssociatedWith":
            if pc.all(pc.equal(attrs_col, _ROLE_CONST)).as_py():
                tbl(att.column("graph"), nd_arr, _PRED_CODE["prov:role"], 0,
                    "authorship", "xsd:string")
                return
        elif st == "wasDerivedFrom":
            ex = pc.extract_regex(attrs_col, pattern=_DERIV_PAT)
            hit = pc.is_valid(ex)
            if pc.all(hit).as_py():
                g = att.column("graph")
                # json-sorted key order: additions, changes, deletions,
                # hadGeneration, hadUsage (ids are hex/ints: no escapes)
                tbl(g, nd_arr, _PRED_CODE["gitprov:additions"], 0,
                    pc.struct_field(ex, "a"), "xsd:int")
                tbl(g, nd_arr, _PRED_CODE["gitprov:changes"], 0,
                    pc.struct_field(ex, "c"), "xsd:int")
                tbl(g, nd_arr, _PRED_CODE["gitprov:deletions"], 0,
                    pc.struct_field(ex, "d"), "xsd:int")
                tbl(g, nd_arr, _PRED_CODE["prov:hadGeneration"], 1,
                    pc.struct_field(ex, "g"), "")
                tbl(g, nd_arr, _PRED_CODE["prov:hadUsage"], 1,
                    pc.struct_field(ex, "u"), "")
                return
        attr_rows_loop(att, nd_arr)

    TYPE = _PRED_CODE["rdf:type"]
    stypes = pc.unique(batch.column("stmt_type")).to_pylist()
    for st in stypes:
        sub = batch.filter(pc.equal(batch.column("stmt_type"), st))
        g = sub.column("graph")
        if st in _NODE_CLASS:
            node = sub.column("subj")
            tbl(g, node, TYPE, 3,
                _CLASS_URI_TO_CODE[prov.expand(_NODE_CLASS[st], "")])
            if st in _TIME_PRED:
                tsub = sub.filter(pc.is_valid(sub.column("t")))
                if tsub.num_rows:
                    tbl(tsub.column("graph"), tsub.column("subj"),
                        _PRED_CODE[_TIME_PRED[st]], 0,
                        _iso_arrow(tsub.column("t")), "xsd:dateTime")
            emit_attr_rows(sub, node, st)
        elif st == "specializationOf":
            tbl(g, sub.column("subj"), _PRED_CODE["prov:specializationOf"],
                1, sub.column("obj"))
        elif st in _INFLUENCE:
            direct, qpred, qcls, opred = _INFLUENCE[st]
            subj, obj, node = (sub.column("subj"), sub.column("obj"),
                               sub.column("id"))
            if direct:
                tbl(g, subj, _PRED_CODE[direct], 1, obj)
            tbl(g, subj, _PRED_CODE[qpred], 1, node)
            tbl(g, node, TYPE, 3,
                _CLASS_URI_TO_CODE[prov.expand(qcls, "")])
            tbl(g, node, _PRED_CODE[opred], 1, obj)
            ssub = sub.filter(pc.is_valid(sub.column("secondary")))
            if ssub.num_rows:
                tbl(ssub.column("graph"), ssub.column("id"),
                    _PRED_CODE["prov:hadActivity"], 1,
                    ssub.column("secondary"))
            tsub = sub.filter(pc.is_valid(sub.column("t")))
            if tsub.num_rows:
                tbl(tsub.column("graph"), tsub.column("id"),
                    _PRED_CODE["prov:atTime"], 0,
                    _iso_arrow(tsub.column("t")), "xsd:dateTime")
            emit_attr_rows(sub, node, st)
        else:  # pragma: no cover
            raise ValueError(f"unknown stmt_type {st!r}")

    tri = pa.concat_tables(parts)
    # local pre-dedup (combiner): Arrow hash-distinct, no sort
    if tri.num_rows > 1:
        tri = tri.group_by(_COMPACT_KEY + ["obj_dtype"], use_threads=False) \
                 .aggregate([])
        tri = tri.select(_COMPACT_BUILD_SCHEMA.names).cast(_COMPACT_BUILD_SCHEMA)
    return _encode_compact(tri)


def dedup_compact(compact_ds, num_buckets: int = 64):
    """compact rows → the dedup exchange (``ops.bucket_exchange``) →
    expanded partitions, each sorted by the triple key (no global order
    across partitions)."""
    return bucket_exchange(compact_ds, _BUCKET_KEY, _dedup_expand_sort_group,
                           num_buckets)


def statements_to_triples_compact(statements_ds, num_buckets: int = 64):
    """statements → :func:`flatten_batch_compact` → :func:`dedup_compact`."""
    return dedup_compact(statements_ds.map_batches(flatten_batch_compact,
                                                   batch_format="pyarrow"),
                         num_buckets=num_buckets)
