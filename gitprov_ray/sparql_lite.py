"""SPARQL-lite: SPARQL 1.1 queries over the triples table.

Engine equivalent of the reference's SPARQL endpoint (SparqlService.java:
16-31, J5 — the reference hands query strings to Jena). Supported
surface, all through the ``query_text`` / ``select_text`` string
front-ends:

  * query forms: SELECT, ASK, CONSTRUCT, DESCRIBE;
  * graph patterns: BGPs, OPTIONAL (left-outer), UNION (bag semantics),
    MINUS (§8.3 disjoint-domain no-op), FILTER [NOT] EXISTS, VALUES,
    GRAPH (§13.3 — bound name or ?var over the quad-shaped triples
    table), BIND (full expression grammar below), sub-SELECTs
    (evaluated recursively, outer PREFIXes inherited), property
    paths: sequences (``p1/p2``), inverses (``^p``), alternation
    (``(p1|p2)``, one per query), negated property sets (``!p`` /
    ``!(p1|p2)``) and arbitrary length — one-or-more
    ``p+`` (driver closure; Dataset twin = ops.transitive_closure),
    zero-or-more ``p*`` and zero-or-one ``p?`` (both add the §18.4
    ZeroLengthPath reflexive rows);
  * expressions (shared by FILTER and BIND, §17): comparisons, ``&&``
    ``||`` ``!``, [NOT] IN, arithmetic ``+ - * /``, CONCAT/STR/UCASE/
    LCASE/STRLEN/SUBSTR/REPLACE/STRSTARTS/STRENDS/CONTAINS/STRBEFORE/
    STRAFTER/REGEX/BOUND/COALESCE/IF/SAMETERM/ABS/ROUND/CEIL/FLOOR;
  * solution modifiers: DISTINCT, ORDER BY, LIMIT, OFFSET;
  * aggregates: COUNT/SUM/AVG/MIN/MAX/SAMPLE/GROUP_CONCAT(;SEPARATOR=…)
    (+DISTINCT), GROUP BY, HAVING.

Execution model: each pattern is a vectorized Arrow filter over the
triples Dataset (bound terms push down); shared variables join on the
driver for small binding sets (pandas merges), with Dataset-native
twins for the scale paths — ``select_distributed`` (bucketed
``Dataset.join`` per shared variable), ``select_optional_distributed``,
``select_union_distributed``, ``aggregate_distributed`` (partial
combine + one bucketed shuffle) and ``select_text_distributed`` (the
string front-end routed through all of the above). Results format via
serializers.result_{csv,tsv,json} (S14).

Terms may use CURIEs (prov:used, rdf:type, gitprov:x with an explicit
graph) — expanded via prov.expand.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow.compute as pc

from . import prov


def _is_var(t) -> bool:
    return isinstance(t, str) and t.startswith("?")


def _expand_term(t: str, graph: str | None) -> str:
    if ":" in t and not t.startswith(("http://", "https://")):
        pfx = t.split(":", 1)[0]
        if pfx in prov.PREFIXES or (pfx == "gitprov" and graph):
            return prov.expand(t, graph or "")
    return t


def _pred_cond(t, p, graph):
    """Arrow predicate-column condition: equality for a bound IRI, NOT IN
    for a negated property set (('!', p1, p2, …) from ``!p`` / ``!(p1|p2)``)."""
    import pyarrow as pa

    if isinstance(p, tuple):
        vals = pa.array([_expand_term(x, graph) for x in p[1:]])
        return pc.invert(pc.is_in(t["pred"], value_set=vals))
    return pc.equal(t["pred"], _expand_term(p, graph))


def _match_pattern(triples_ds, s, p, o, graph):
    def f(t):
        m = None

        def conj(cond):
            nonlocal m
            m = cond if m is None else pc.and_(m, cond)

        if graph is not None:
            conj(pc.equal(t["graph"], graph))
        if not _is_var(s):
            conj(pc.equal(t["subj"], _expand_term(s, graph)))
        if not _is_var(p):
            conj(_pred_cond(t, p, graph))
        if not _is_var(o):
            conj(pc.equal(t["obj"], _expand_term(o, graph)))
        return t if m is None else t.filter(m)

    out = triples_ds.map_batches(f, batch_format="pyarrow").to_pandas()
    if len(out.columns) == 0:      # zero matches → Ray yields a columnless
        out = pd.DataFrame(columns=["graph", "subj", "pred", "obj"])
    return out


def select(triples_ds, patterns: list[tuple], variables: list[str] | None = None,
           graph: str | None = None, distinct: bool = False,
           order_by: list[str] | None = None, limit: int | None = None
           ) -> pd.DataFrame:
    """Run a BGP over a triples Dataset → binding table (one column per
    ``?var`` without the '?')."""
    result: pd.DataFrame | None = None
    for s, p, o in patterns:
        part = _match_pattern(triples_ds, s, p, o, graph)
        cols = {}
        for term, col in ((s, "subj"), (p, "pred"), (o, "obj")):
            if _is_var(term):
                cols[term[1:]] = part[col].to_numpy()
        frame = pd.DataFrame(cols) if cols else pd.DataFrame(index=range(len(part)))
        if result is None:
            result = frame
        else:
            shared = [c for c in result.columns if c in frame.columns]
            if shared:
                result = result.merge(frame, on=shared, how="inner")
            else:
                result = result.merge(frame, how="cross")
    if result is None:
        result = pd.DataFrame()
    if variables:
        result = result[[v.lstrip("?") for v in variables]]
    if distinct:
        result = result.drop_duplicates()
    if order_by:
        result = result.sort_values([v.lstrip("?") for v in order_by])
    if limit is not None:
        result = result.head(limit)
    return result.reset_index(drop=True)


def select_graph(triples_ds, gterm, patterns: list[tuple],
                 ) -> pd.DataFrame:
    """GRAPH clause evaluation (SPARQL 1.1 §13.3) → binding frame.

    ``gterm`` is ``?var`` (bind each solution's graph name, and require
    every pattern in the group to match within the SAME graph — enforced
    by carrying the graph column through the binding join) or a bound
    graph name (restrict the group to that named graph)."""
    if not _is_var(gterm):
        return select(triples_ds, patterns, graph=gterm)
    gv = gterm[1:]
    result: pd.DataFrame | None = None
    for s, p, o in patterns:
        part = _match_pattern(triples_ds, s, p, o, None)
        cols = {gv: part["graph"].to_numpy()}
        for term, col in ((s, "subj"), (p, "pred"), (o, "obj")):
            if _is_var(term):
                cols[term[1:]] = part[col].to_numpy()
        frame = pd.DataFrame(cols)
        if result is None:
            result = frame
        else:
            shared = [c for c in result.columns if c in frame.columns]
            result = result.merge(frame, on=shared, how="inner")
    return (result if result is not None else pd.DataFrame()) \
        .reset_index(drop=True)


def _match_pattern_ds(triples_ds, s, p, o, graph):
    """Pattern → Dataset of variable bindings (distributed; no driver
    materialization)."""
    var_cols = [(term[1:], col) for term, col in
                ((s, "subj"), (p, "pred"), (o, "obj")) if _is_var(term)]

    def f(t):
        m = None

        def conj(cond):
            nonlocal m
            m = cond if m is None else pc.and_(m, cond)

        if graph is not None:
            conj(pc.equal(t["graph"], graph))
        if not _is_var(s):
            conj(pc.equal(t["subj"], _expand_term(s, graph)))
        if not _is_var(p):
            conj(_pred_cond(t, p, graph))
        if not _is_var(o):
            conj(pc.equal(t["obj"], _expand_term(o, graph)))
        sel = t if m is None else t.filter(m)
        import pyarrow as pa

        return pa.table({v: sel.column(col) for v, col in var_cols}) \
            if var_cols else sel.select([])

    return triples_ds.map_batches(f, batch_format="pyarrow"), \
        [v for v, _ in var_cols]


def _match_pattern_graph_ds(triples_ds, s, p, o, gv: str):
    """Pattern → Dataset of bindings WITH the graph name bound to ?gv
    (the §13.3 GRAPH-variable scan; distributed twin of the frame path
    inside select_graph)."""
    var_cols = [(gv, "graph")] + [
        (term[1:], col) for term, col in
        ((s, "subj"), (p, "pred"), (o, "obj")) if _is_var(term)]

    def f(t):
        m = None

        def conj(cond):
            nonlocal m
            m = cond if m is None else pc.and_(m, cond)

        if not _is_var(s):
            conj(pc.equal(t["subj"], _expand_term(s, None)))
        if not _is_var(p):
            conj(_pred_cond(t, p, None))
        if not _is_var(o):
            conj(pc.equal(t["obj"], _expand_term(o, None)))
        sel = t if m is None else t.filter(m)
        import pyarrow as pa

        return pa.table({v: sel.column(col) for v, col in var_cols})

    return triples_ds.map_batches(f, batch_format="pyarrow"), \
        [v for v, _ in var_cols]


def select_graph_distributed(triples_ds, gterm, patterns: list[tuple]):
    """Distributed GRAPH clause (§13.3): bound name → plain distributed
    BGP scoped to that graph; ?var → every pattern scan carries the
    graph column as the variable, so the bucketed joins enforce
    same-graph matching exactly like the driver's select_graph."""
    if not _is_var(gterm):
        return select_distributed(triples_ds, patterns, graph=gterm)
    from .ops import _default_partitions

    P = _default_partitions()
    gv = gterm[1:]
    result = None
    bound: list[str] = []
    for s, p, o in patterns:
        part, vars_ = _match_pattern_graph_ds(triples_ds, s, p, o, gv)
        if result is None:
            result, bound = part, vars_
            continue
        shared = [v for v in bound if v in vars_]   # gv is always shared
        result = result.join(part, "inner", P, on=tuple(shared))
        bound = bound + [v for v in vars_ if v not in bound]
    if result is None:
        import pandas as _pd

        import ray.data as rd

        return rd.from_pandas(_pd.DataFrame())
    return result


#: Row cap on the broadcast side of a distributed cartesian product — a
#: disconnected BGP is legal SPARQL, so the scale path evaluates it by
#: broadcasting the SMALLER side; past this bound the blow-up is refused.
CROSS_JOIN_BROADCAST_MAX = 200_000


def _cross_join_ds(base, part_ds, label: str = "pattern"):
    """Distributed cartesian product for disconnected patterns (legal
    SPARQL, §5.1): the smaller side is counted, guarded against blow-up,
    collected ONCE and broadcast via closure capture (Ray ships it to each
    worker once); every batch of the larger side then emits its
    ``how='cross'`` merge — one streaming pass, no shuffle. Disconnected
    variable sets never overlap, so the merge cannot collide columns."""
    nb, np_ = base.count(), part_ds.count()
    small_ds, big = (part_ds, base) if np_ <= nb else (base, part_ds)
    if min(nb, np_) > CROSS_JOIN_BROADCAST_MAX:
        raise SparqlSyntaxError(
            f"{label}: disconnected patterns with both sides above "
            f"{CROSS_JOIN_BROADCAST_MAX} rows — the cartesian product is "
            "too large to broadcast; reorder the query to share variables")
    small = small_ds.to_pandas()
    return big.map_batches(
        lambda df, sm=small: df.merge(sm, how="cross"),
        batch_format="pandas")


def select_distributed(triples_ds, patterns: list[tuple],
                       variables: list[str] | None = None,
                       graph: str | None = None, distinct: bool = False,
                       order_by: list[str] | None = None,
                       limit: int | None = None):
    """Distributed BGP execution: per-pattern vectorized scans stay
    Datasets, shared variables join via the bucketed hash join
    (`Dataset.join`) — the J5 scale path when bindings are too large for a
    driver-side merge (the reference delegates the same job to Jena's
    iterator joins, SparqlService.java:22-31). Returns a Dataset of
    bindings; a pattern sharing NO variable with the accumulated ones is a
    legal disconnected BGP and evaluates as a guarded small-side-broadcast
    cartesian (:func:`_cross_join_ds`)."""
    from .ops import _default_partitions

    P = _default_partitions()
    result = None
    bound: list[str] = []
    for s, p, o in patterns:
        part, vars_ = _match_pattern_ds(triples_ds, s, p, o, graph)
        if result is None:
            result, bound = part, vars_
            continue
        shared = [v for v in bound if v in vars_]
        if not shared:
            result = _cross_join_ds(result, part, "BGP pattern")
        else:
            result = result.join(part, "inner", P, on=tuple(shared))
        bound = bound + [v for v in vars_ if v not in bound]
    if result is None:
        import pandas as _pd

        import ray.data as rd

        return rd.from_pandas(_pd.DataFrame())
    if distinct:
        keys = [v.lstrip("?") for v in (variables or bound)]
        result = result.map_batches(
            lambda df, k=tuple(keys): df[list(k)].drop_duplicates(),
            batch_format="pandas")
        from ray.data.aggregate import Count

        result = (result.groupby(keys)
                  .aggregate(Count(on=keys[0], alias_name="__c"))
                  .map_batches(lambda df, k=tuple(keys): df[list(k)],
                               batch_format="pandas"))
    elif variables:
        result = result.map_batches(
            lambda df, k=tuple(v.lstrip("?") for v in variables): df[list(k)],
            batch_format="pandas")
    if order_by:
        result = result.sort([v.lstrip("?") for v in order_by])
    if limit is not None:
        result = result.limit(limit)
    return result


def ask(triples_ds, patterns, graph=None) -> bool:
    return len(select(triples_ds, patterns, graph=graph, limit=1)) > 0


def select_optional(triples_ds, patterns: list[tuple],
                    optional_groups: list[list[tuple]],
                    graph: str | None = None,
                    optional_filters: list[list] | None = None
                    ) -> pd.DataFrame:
    """Required BGP + OPTIONAL groups → binding table (SPARQL 1.1 §5.3,
    the reference's surface via Jena, SparqlService.java:22-31). Each
    OPTIONAL group is evaluated as its own BGP and LEFT-joined to the
    accumulated bindings on the shared variables; rows with no match keep
    the required bindings with the optional variables unbound (None).
    In-group FILTERs (§6.1) apply to the optional part BEFORE the left
    join — a filtered-out optional match leaves the row unbound, it does
    not remove it."""
    result = select(triples_ds, patterns, graph=graph)
    for gi, group in enumerate(optional_groups):
        part = select(triples_ds, group, graph=graph)
        if optional_filters and optional_filters[gi]:
            part = _apply_filters(part, optional_filters[gi])
        shared = [c for c in result.columns if c in part.columns]
        if not shared:
            raise SparqlSyntaxError(
                "OPTIONAL group shares no variable with the required "
                "patterns (cross-product OPTIONAL unsupported)")
        result = result.merge(part, on=shared, how="left")
    # unbound optionals are None (not float NaN): keeps object dtype and a
    # stable string rendering in result serializers
    for c in result.columns:
        if result[c].isna().any():
            result[c] = result[c].astype(object).where(result[c].notna(), None)
    return result.reset_index(drop=True)


def select_union(triples_ds, branches: list[list[tuple]],
                 graph: str | None = None) -> pd.DataFrame:
    """UNION of BGP branches (SPARQL 1.1 §5.4): each branch evaluates
    independently; results concatenate with bag semantics (UNION ALL —
    SPARQL UNION does not deduplicate), columns aligned by variable name
    and absent variables unbound."""
    outs = [select(triples_ds, b, graph=graph) for b in branches]
    cols: list[str] = []
    for o in outs:
        cols += [c for c in o.columns if c not in cols]
    aligned = [o.reindex(columns=cols) for o in outs]
    result = pd.concat(aligned, ignore_index=True) if aligned else pd.DataFrame()
    for c in result.columns:
        if result[c].isna().any():
            result[c] = result[c].astype(object).where(result[c].notna(), None)
    return result


def select_optional_distributed(triples_ds, patterns: list[tuple],
                                optional_groups: list[list[tuple]],
                                graph: str | None = None,
                                optional_filters: list[list] | None = None,
                                base_ds=None):
    """Distributed OPTIONAL: required BGP via the bucketed-join path, each
    OPTIONAL group LEFT-OUTER `Dataset.join`ed on shared variables — the
    J5 scale surface (bindings never materialize on the driver).
    In-group FILTERs apply per batch to the optional side BEFORE the
    join (§6.1), same as the driver twin. ``base_ds`` (when given)
    replaces the required-BGP evaluation — the UNION-then-OPTIONAL
    composition path."""
    import pyarrow as pa

    from .ops import _default_partitions, materialize_normalized

    P = _default_partitions()
    result = base_ds if base_ds is not None \
        else select_distributed(triples_ds, patterns, graph=graph)
    bound = list(result.schema().names)
    for gi, group in enumerate(optional_groups):
        part = select_distributed(triples_ds, group, graph=graph)
        if optional_filters and optional_filters[gi]:
            fs = optional_filters[gi]
            part = part.map_batches(
                lambda df, fs=fs: _apply_filters(df, fs),
                batch_format="pandas")
        vars_ = list(part.schema().names)
        shared = [v for v in bound if v in vars_]
        if not shared:
            raise SparqlSyntaxError(
                "OPTIONAL group shares no variable with the required "
                "patterns (cross-product OPTIONAL unsupported)")
        # normalize both sides: column-less empty blocks break join
        # partitioning (materialize_normalized contract); bindings are
        # always strings
        result = materialize_normalized(
            result, pa.schema([(v, pa.string()) for v in bound])).join(
            materialize_normalized(
                part, pa.schema([(v, pa.string()) for v in vars_])),
            "left_outer", P, on=tuple(shared))
        bound += [v for v in vars_ if v not in bound]
    return result


def select_union_distributed(triples_ds, branches: list[list[tuple]],
                             graph: str | None = None):
    """Distributed UNION: each branch runs the distributed BGP path, then
    `Dataset.union` (bag semantics, §5.4 — absent variables unbound).
    Ray's union requires aligned schemas, so heterogeneous branches are
    aligned first: the union of all branch variables (first-appearance
    order, matching the driver twin select_union), missing columns
    null-filled per batch, every branch normalized to one explicit string
    schema (single arrow block type — invariant 8)."""
    import pyarrow as pa

    from .ops import materialize_normalized

    outs = [select_distributed(triples_ds, b, graph=graph) for b in branches]
    if not outs:
        import ray.data as rd

        return rd.from_pandas(pd.DataFrame())
    cols: list[str] = []
    for o in outs:
        cols += [c for c in o.schema().names if c not in cols]
    schema = pa.schema([(c, pa.string()) for c in cols])
    aligned = []
    for o in outs:
        missing = tuple(c for c in cols if c not in set(o.schema().names))
        if missing:
            def fill(t: pa.Table, missing=missing, order=tuple(cols)):
                for c in missing:
                    t = t.append_column(c, pa.nulls(t.num_rows, pa.string()))
                return t.select(order)

            o = o.map_batches(fill, batch_format="pyarrow")
        aligned.append(materialize_normalized(o, schema))
    result = aligned[0]
    for o in aligned[1:]:
        result = result.union(o)
    return result


# ---------------------------------------------------------------------------
# SPARQL query-string front-end
# ---------------------------------------------------------------------------
#
# The reference accepts arbitrary SPARQL text (SparqlService.java:22-31,
# QueryFactory.create + QueryExecutionFactory). This front-end parses the
# SELECT subset the reference's users actually issue over a PROV store —
#   PREFIX decls, SELECT [DISTINCT] ?v… | *, WHERE { BGP . FILTER … },
#   FILTER comparisons (= != < <= > >=) between a var and a literal/number,
#   FILTER regex(?v, "pat"[, "i"]), ORDER BY [ASC|DESC](?v), LIMIT, OFFSET
# — into the existing pattern compiler. Term syntax: <uri>, curie:local,
# "literal"(^^dtype)?, numbers, ?vars.

import re as _re

_TOKEN_RX = _re.compile(
    r"""<[^>]*>                     # uri
      | "(?:[^"\\]|\\.)*"(?:\^\^(?:<[^>]*>|[A-Za-z_][\w.-]*:[\w.-]+))?  # literal
      | \?[A-Za-z_]\w*              # var
      | [A-Za-z_][\w.-]*:[\w.%-]+   # curie
      | [A-Za-z_][\w.-]*:           # prefix-declaration name ("ns1:")
      | [A-Za-z_][\w-]*             # keyword / bare name
      | -?\d+(?:\.\d+)?             # number
      | &&  | \|\|                  # boolean connectives (before single |)
      | [=!<>]=? | [{}().;,*:/^|+?-]  # operators / punctuation / path ops
    """, _re.X)


class SparqlSyntaxError(ValueError):
    pass


def _tokenize(q: str) -> list[str]:
    # whole-line comments only: URIs legitimately contain '#'
    q = _re.sub(r"^\s*#.*$", "", q, flags=_re.M)
    toks, pos = [], 0
    for m in _TOKEN_RX.finditer(q):
        between = q[pos:m.start()]
        if between.strip():
            raise SparqlSyntaxError(f"cannot tokenize: {between.strip()!r}")
        toks.append(m.group(0))
        pos = m.end()
    if q[pos:].strip():
        raise SparqlSyntaxError(f"cannot tokenize: {q[pos:].strip()!r}")
    return toks


def _parse_term(t: str, prefixes: dict[str, str]):
    """One token → bound term value (URIs unwrapped, literals unescaped,
    declared prefixes expanded; engine CURIEs pass through for
    prov.expand downstream). Variables are returned as-is by callers."""
    if t.startswith("?"):
        return t
    if t.startswith("<"):
        return t[1:-1]
    if t.startswith('"'):
        body = _re.match(r'^"((?:[^"\\]|\\.)*)"', t).group(1)
        return _re.sub(
            r"\\(.)",
            lambda m: {"n": "\n", "t": "\t"}.get(m.group(1), m.group(1)),
            body)
    if _re.match(r"^-?\d+(?:\.\d+)?$", t):
        return t
    if ":" in t:
        pfx, local = t.split(":", 1)
        if pfx in prefixes:
            return prefixes[pfx] + local
        return t      # prov:/rdf:/… CURIEs expand downstream (prov.expand)
    raise SparqlSyntaxError(f"bad term {t!r}")


_AGG_FUNCS = ("COUNT", "SUM", "AVG", "MIN", "MAX", "GROUP_CONCAT", "SAMPLE")

# scalar/boolean functions usable in FILTER and BIND expressions
# (SPARQL 1.1 §17.4). LANG/DATATYPE/isIRI-family are deliberately absent:
# the binding frame holds untyped strings, so those would silently lie.
_BIND_FUNCS = ("CONCAT", "STR", "UCASE", "LCASE", "STRLEN", "SUBSTR",
               "REPLACE", "STRSTARTS", "STRENDS", "CONTAINS", "STRBEFORE",
               "STRAFTER", "REGEX", "BOUND", "COALESCE", "IF", "SAMETERM",
               "ABS", "ROUND", "CEIL", "FLOOR")

_CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")


def _as_num(x):
    return pd.to_numeric(x, errors="coerce") if isinstance(x, pd.Series) \
        else x


def _eval_expr(df: pd.DataFrame, node):
    """Evaluate a FILTER/BIND expression AST over the binding frame
    (vectorized pandas kernels). Boolean nodes yield bool Series with
    NaN-comparisons false (SPARQL error → unsatisfied filter)."""
    kind = node[0]
    if kind == "var":
        if node[1] not in df.columns:
            raise SparqlSyntaxError(f"expression references unbound ?{node[1]}")
        return df[node[1]]
    if kind == "lit":
        return node[1]

    def as_series(x):
        return x if isinstance(x, pd.Series) else \
            pd.Series([x] * len(df), index=df.index)

    def as_bool(x):
        s = as_series(x)
        return s.fillna(False).astype(bool) if s.dtype != bool else s

    if kind == "not":
        return ~as_bool(_eval_expr(df, node[1]))
    if kind in ("and", "or"):
        a, b = as_bool(_eval_expr(df, node[1])), \
            as_bool(_eval_expr(df, node[2]))
        return (a & b) if kind == "and" else (a | b)
    if kind == "cmp":
        op, left, right = node[1], _eval_expr(df, node[2]), \
            _eval_expr(df, node[3])
        # numeric comparison when either side is numeric (literal or a
        # numeric-dtype series, e.g. an arithmetic result); ALSO when
        # BOTH sides are string series whose every bound value parses as
        # a number — §17 operator dispatch compares numeric-typed
        # literals numerically, and engine bindings carry the lexical
        # form only; codepoint string order otherwise
        numeric = any(isinstance(x, (int, float)) or (
            isinstance(x, pd.Series) and x.dtype.kind in "ifu")
            for x in (left, right))
        if not numeric:
            def _all_num(x):
                if not isinstance(x, pd.Series):
                    return isinstance(x, str) and bool(
                        _re.match(r"^-?\d+(?:\.\d+)?$", x))
                nn = pd.to_numeric(x, errors="coerce")
                return bool((nn.notna() == x.notna()).all()
                            and x.notna().any())
            numeric = _all_num(left) and _all_num(right)

        def _coerce(x):
            if isinstance(x, pd.Series):
                return pd.to_numeric(x, errors="coerce")
            return float(x) if isinstance(x, str) else x

        if numeric:
            left, right = _coerce(left), _coerce(right)
        mask = {"=": lambda a, b: a == b, "!=": lambda a, b: a != b,
                "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
                ">": lambda a, b: a > b, ">=": lambda a, b: a >= b}[op](
                    as_series(left), as_series(right))
        return mask.fillna(False)
    if kind == "in":
        s = as_series(_eval_expr(df, node[1]))
        vals = node[2]
        if all(isinstance(v, (int, float)) for v in vals):
            mask = _as_num(s).isin(vals)
        else:
            mask = s.isin(vals)
        mask = mask.fillna(False)
        return ~mask if node[3] else mask
    if kind == "arith":
        op, left, right = node[1], _as_num(_eval_expr(df, node[2])), \
            _as_num(_eval_expr(df, node[3]))
        return {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
                "*": lambda a, b: a * b, "/": lambda a, b: a / b}[op](
                    left, right)

    f = node[1]
    if f == "BOUND":               # needs the unevaluated arg: var may be
        (arg,) = node[2]           # absent entirely (OPTIONAL never matched)
        if arg[0] != "var":
            raise SparqlSyntaxError("BOUND takes a ?var")
        if arg[1] not in df.columns:
            return pd.Series(False, index=df.index)
        return df[arg[1]].notna()
    args = [_eval_expr(df, a) for a in node[2]]
    if f == "CONCAT":
        out = as_series(args[0]).astype(str)
        for a in args[1:]:
            out = out + as_series(a).astype(str)
        return out
    if f == "STR":
        return as_series(args[0]).astype(str)
    if f == "UCASE":
        return as_series(args[0]).astype(str).str.upper()
    if f == "LCASE":
        return as_series(args[0]).astype(str).str.lower()
    if f == "STRLEN":
        return as_series(args[0]).astype(str).str.len().astype("int64")

    def as_scalar(x, what):
        if isinstance(x, pd.Series):
            raise SparqlSyntaxError(
                f"{f} {what} must be a literal, not a variable")
        return x

    if f == "SUBSTR":              # 1-based start per the spec
        s = as_series(args[0]).astype(str)
        start = int(as_scalar(args[1], "start")) - 1
        if len(args) > 2:
            return s.str.slice(start, start + int(as_scalar(args[2], "length")))
        return s.str.slice(start)
    if f == "REPLACE":
        pat = str(as_scalar(args[1], "pattern"))
        # SPARQL replacement backreferences are $1..$9 (fn:replace);
        # pandas/re want \1..\9
        rep = _re.sub(r"\$(\d)", r"\\\1", str(as_scalar(args[2], "replacement")))
        return as_series(args[0]).astype(str).str.replace(pat, rep, regex=True)
    if f in ("STRSTARTS", "STRENDS", "CONTAINS"):
        s = as_series(args[0]).astype(str)
        pat = str(as_scalar(args[1], "pattern"))
        if f == "STRSTARTS":
            return s.str.startswith(pat)
        if f == "STRENDS":
            return s.str.endswith(pat)
        return s.str.contains(pat, regex=False)
    if f in ("STRBEFORE", "STRAFTER"):
        s = as_series(args[0]).astype(str)
        sep = str(as_scalar(args[1], "separator"))
        part = s.str.partition(sep)
        # fn:substring-before/-after return "" when the separator is absent
        found = part[1] == sep
        side = part[0] if f == "STRBEFORE" else part[2]
        return side.where(found, "")
    if f == "REGEX":
        flags = 0
        if len(args) > 2 and "i" in str(as_scalar(args[2], "flags")):
            flags = _re.I
        rx = _re.compile(str(as_scalar(args[1], "pattern")), flags)
        return as_series(args[0]).astype(str).str.contains(rx)
    if f == "COALESCE":
        out = as_series(args[0])
        for a in args[1:]:
            out = out.fillna(as_series(a)) if out.isna().any() else out
        return out
    if f == "IF":
        cond = as_bool(args[0])
        then_, else_ = as_series(args[1]), as_series(args[2])
        return then_.where(cond, else_)
    if f == "SAMETERM":
        return (as_series(args[0]) == as_series(args[1])).fillna(False)
    if f in ("ABS", "ROUND", "CEIL", "FLOOR"):
        num = _as_num(as_series(args[0]))
        if f == "ABS":
            return num.abs()
        if f == "ROUND":           # fn:round: half toward +INF
            return np.floor(num + 0.5)
        return np.ceil(num) if f == "CEIL" else np.floor(num)
    raise SparqlSyntaxError(f"unsupported function {f}")


def _parse_expression(take, peek, term):
    """Recursive-descent FILTER/BIND expression parser (SPARQL 1.1 §17):
    ``||`` < ``&&`` < ``!`` < comparison/IN < ``+ -`` < ``* /`` < primary.
    Shared by FILTER and BIND so both accept the same function library,
    arithmetic and boolean connectives."""

    def primary():
        x = take()
        if x == "(":
            node = or_expr()
            take(")")
            return node
        if x == "-":                             # unary minus on a number
            n = take()
            if not _re.match(r"^\d+(?:\.\d+)?$", n):
                raise SparqlSyntaxError("unary - wants a number")
            v = -float(n)
            return ("lit", int(v) if v.is_integer() else v)
        if x.upper() in _BIND_FUNCS:
            take("(")
            fargs = []
            if peek() != ")":
                fargs.append(or_expr())
                while peek() == ",":
                    take()
                    fargs.append(or_expr())
            take(")")
            return ("call", x.upper(), fargs)
        if x.startswith("?"):
            return ("var", x[1:])
        if _re.match(r"^-?\d+(?:\.\d+)?$", x):
            v = float(x)
            return ("lit", int(v) if v.is_integer() else v)
        return ("lit", term(x))

    def mul_expr():
        node = primary()
        while peek() in ("*", "/"):
            node = ("arith", take(), node, primary())
        return node

    def add_expr():
        node = mul_expr()
        while peek() in ("+", "-"):
            node = ("arith", take(), node, mul_expr())
        return node

    def rel_expr():
        node = add_expr()
        nxt = peek()
        if nxt in _CMP_OPS:
            return ("cmp", take(), node, add_expr())
        if nxt and nxt.upper() in ("IN", "NOT"):
            neg = take().upper() == "NOT"
            if neg:
                take("IN")
            take("(")
            vals = []
            if peek() != ")":
                while True:
                    v = primary()
                    if v[0] != "lit":
                        raise SparqlSyntaxError("IN list wants literals")
                    vals.append(v[1])
                    if peek() == ",":
                        take()
                        continue
                    break
            take(")")
            return ("in", node, vals, neg)
        return node

    def unary():
        if peek() == "!":
            take()
            return ("not", unary())
        return rel_expr()

    def and_expr():
        node = unary()
        while peek() == "&&":
            take()
            node = ("and", node, unary())
        return node

    def or_expr():
        node = and_expr()
        while peek() == "||":
            take()
            node = ("or", node, and_expr())
        return node

    return or_expr()


def _read_prefixes(toks: list[str]) -> tuple[dict[str, str], int]:
    """Parse leading PREFIX declarations → (prefix map, index of the
    query-form keyword). The single source of truth for the two token
    forms a declaration takes ("ns:" as one token, or "ns" + ":")."""
    out: dict[str, str] = {}
    i = 0
    while i < len(toks) and toks[i].upper() == "PREFIX":
        i += 1
        name = toks[i]
        if name.endswith(":"):
            name = name[:-1]
            i += 1
        else:
            if i + 1 >= len(toks) or toks[i + 1] != ":":
                raise SparqlSyntaxError("bad PREFIX declaration")
            i += 2
        if i >= len(toks) or not toks[i].startswith("<"):
            raise SparqlSyntaxError("PREFIX uri must be <...>")
        out[name] = toks[i][1:-1]
        i += 1
    return out, i


def parse_select(query: str) -> dict:
    """Parse a SPARQL SELECT string → plan dict for :func:`select_text`."""
    toks = _tokenize(query)
    i = 0

    def peek():
        return toks[i] if i < len(toks) else None

    def take(expected: str | None = None):
        nonlocal i
        if i >= len(toks):
            raise SparqlSyntaxError(f"unexpected end (wanted {expected})")
        t = toks[i]
        if expected is not None and t.upper() != expected.upper():
            raise SparqlSyntaxError(f"expected {expected}, got {t!r}")
        i += 1
        return t

    prefixes, i = _read_prefixes(toks)

    take("SELECT")
    distinct = False
    if peek() and peek().upper() == "DISTINCT":
        take(); distinct = True
    variables: list[str] = []
    aggregates: list[dict] = []
    projection: list[str] = []          # output column order (var/alias names)
    star = False
    while peek() and peek() != "{" and peek().upper() != "WHERE":
        t = take()
        if t == "*":
            star = True
        elif t.startswith("?"):
            variables.append(t)
            projection.append(t[1:])
        elif t == "(":
            # ( FUNC([DISTINCT] ?v|*) AS ?alias ) — SPARQL 1.1 §11
            func = take().upper()
            if func not in _AGG_FUNCS:
                raise SparqlSyntaxError(f"unsupported aggregate {func!r}")
            take("(")
            adistinct = False
            if peek() and peek().upper() == "DISTINCT":
                take(); adistinct = True
            arg = take()
            if arg != "*" and not arg.startswith("?"):
                raise SparqlSyntaxError(f"bad aggregate argument {arg!r}")
            if arg == "*" and func != "COUNT":
                raise SparqlSyntaxError(f"{func}(*) is not valid SPARQL")
            separator = None
            if peek() == ";":                  # GROUP_CONCAT(?v; SEPARATOR=…)
                take()
                if func != "GROUP_CONCAT" or take().upper() != "SEPARATOR":
                    raise SparqlSyntaxError(
                        "only GROUP_CONCAT takes ; SEPARATOR = \"…\"")
                take("=")
                separator = _parse_term(take(), prefixes)
            take(")")
            take("AS")
            alias = take()
            if not alias.startswith("?"):
                raise SparqlSyntaxError("aggregate alias must be a ?var")
            take(")")
            aggregates.append({"func": func, "arg": arg,
                               "distinct": adistinct, "alias": alias[1:],
                               "separator": separator})
            projection.append(alias[1:])
        else:
            raise SparqlSyntaxError(f"bad projection term {t!r}")
    if peek() and peek().upper() == "WHERE":
        take()
    take("{")

    patterns: list[tuple] = []
    filters: list[tuple] = []

    def term(t: str):
        return _parse_term(t, prefixes)

    optional_groups: list[list[tuple]] = []
    optional_filters: list[list] = []        # §6.1 in-group FILTERs
    union_branches: list[list[tuple]] = []
    values_clauses: list[tuple[list[str], list[list]]] = []
    exists_groups: list[tuple[bool, list[tuple]]] = []   # (negated?, BGP)
    minus_groups: list[list[tuple]] = []
    binds: list[tuple] = []                              # (expr AST, var)
    graph_groups: list[tuple] = []                       # (?var|name, BGP)
    subqueries: list[str] = []                           # verbatim sub-SELECTs
    closure_patterns: list[tuple] = []               # (s, pred, o, +|*|?)
    fresh_n = 0

    def read_triple(dest: list[tuple], allow_alt: bool = True) -> None:
        """Parse one ``s path o`` statement. The predicate may be a
        SPARQL 1.1 §9 property path limited to sequences and inverses
        (``p1/p2``, ``^p``, ``^p1/p2/^p3``) or a parenthesized
        alternation (``(p1|p2)`` — desugared into the UNION machinery,
        so one per query and top-level only). Sequence steps desugar to
        plain patterns through fresh ``?__ppN`` variables; an inverse
        step swaps its endpoints. Arbitrary-length operators (``p+`` /
        ``p*`` / ``p?``) route to the closure evaluator — single plain
        predicate only."""
        nonlocal fresh_n, union_branches
        s = take()
        if s.upper() == "SERVICE":              # §13 federation needs a
            raise SparqlSyntaxError(            # remote HTTP endpoint
                "SERVICE federation requires network access to a remote "
                "SPARQL endpoint — out of scope for this engine "
                "(evaluate the remote pattern there and join via VALUES)")
        if peek() == "!":                       # !p / !(p1|p2) — §9.1 negated
            take()                              # property set (forward only)
            preds = []
            if peek() == "(":
                take("(")
                preds.append(term(take()))
                while peek() == "|":
                    take()
                    preds.append(term(take()))
                take(")")
            else:
                preds.append(term(take()))
            if any(p.startswith("?") for p in preds):
                raise SparqlSyntaxError("negated property set wants IRIs")
            o_ = take()
            dest.append((s if s.startswith("?") else term(s),
                         ("!",) + tuple(preds),
                         o_ if o_.startswith("?") else term(o_)))
            if peek() == ".":
                take()
            return
        if peek() == "(":                       # ( p1 | p2 | ... )
            take("(")
            alts = [take()]
            while peek() == "|":
                take()
                alts.append(take())
            take(")")
            if len(alts) < 2:
                raise SparqlSyntaxError(
                    "parenthesized path needs | alternatives")
            if peek() in ("/", "^"):
                raise SparqlSyntaxError(
                    "alternation cannot combine with sequence/inverse")
            o_ = take()
            if not allow_alt:
                raise SparqlSyntaxError(
                    "path alternation only allowed in the top-level pattern")
            if union_branches:
                raise SparqlSyntaxError(
                    "only one alternation/UNION block per query")

            def ta(x):
                return term(x) if not x.startswith("?") else x

            union_branches = [[(ta(s), ta(p), ta(o_))] for p in alts]
            if peek() == ".":
                take()
            return
        segs: list[tuple[str, bool]] = []       # (pred token, inverse?)
        while True:
            inv = False
            if peek() == "^":
                take(); inv = True
            segs.append((take(), inv))
            if peek() in ("+", "*", "?", "{"):  # arbitrary-length path (§9)
                if peek() == "{":               # quantifier p{n}, p{n,m},
                    take("{")                   # p{n,}, p{,m} (Jena ARQ
                    try:                        # syntax — the reference
                        t0 = take()             # delegates to Jena)
                        if t0 == ",":
                            lo, hi = 0, int(take())
                        else:
                            lo = int(t0)
                            hi: int | None = lo
                            if peek() == ",":
                                take()
                                hi = None if peek() == "}" \
                                    else int(take())
                    except ValueError:
                        raise SparqlSyntaxError(
                            "path quantifier wants {n}, {n,m}, {n,} or "
                            "{,m} after the predicate")
                    take("}")
                    if hi is not None and hi < lo:
                        raise SparqlSyntaxError(
                            f"path quantifier {{{lo},{hi}}}: max < min")
                    mode = ("rng", lo, hi)
                    mdesc = f"{{{lo},{'' if hi is None else hi}}}"
                else:
                    mode = take()               # p+ / p* / p?
                    mdesc = mode
                if inv or len(segs) > 1 or peek() == "/":
                    raise SparqlSyntaxError(
                        f"p{mdesc} only supported on a single plain "
                        "predicate")
                o_ = take()
                if not allow_alt:
                    raise SparqlSyntaxError(
                        f"p{mdesc} only allowed in the top-level pattern")
                pred = segs[0][0]
                if pred.startswith("?"):
                    raise SparqlSyntaxError(
                        f"p{mdesc} needs a bound predicate")
                closure_patterns.append((
                    s if s.startswith("?") else term(s), term(pred),
                    o_ if o_.startswith("?") else term(o_), mode))
                if peek() == ".":
                    take()
                return
            if peek() == "/":
                take()
                continue
            break
        o = take()

        def t_(x):
            return term(x) if not x.startswith("?") else x

        left = s
        for idx, (p, inv) in enumerate(segs):
            last = idx == len(segs) - 1
            if last:
                right = o
            else:
                right = f"?__pp{fresh_n}"
                fresh_n += 1
            if p.startswith("?") and len(segs) > 1:
                raise SparqlSyntaxError(
                    "variable predicates not allowed inside a path")
            a, b = (right, left) if inv else (left, right)
            dest.append((t_(a), t_(p), t_(b)))
            left = right
        if peek() == ".":
            take()

    def take_group() -> list[tuple]:
        """Parse a brace-delimited group of triple patterns (no nested
        groups / FILTER inside a group — driver raises, not mis-parses)."""
        take("{")
        group: list[tuple] = []
        while True:
            t = peek()
            if t is None:
                raise SparqlSyntaxError("unterminated group")
            if t == "}":
                take()
                return group
            if t in ("{",) or t.upper() in ("OPTIONAL", "FILTER", "UNION",
                                            "GRAPH"):
                raise SparqlSyntaxError(
                    f"{t!r} not supported inside a group pattern")
            read_triple(group, allow_alt=False)

    def take_group_with_filters() -> tuple[list[tuple], list]:
        """OPTIONAL bodies may carry FILTERs (§6.1: the filter applies
        WITHIN the optional match, before the left join — different from
        filtering the joined solutions)."""
        take("{")
        group: list[tuple] = []
        gfilters: list = []
        while True:
            t = peek()
            if t is None:
                raise SparqlSyntaxError("unterminated group")
            if t == "}":
                take()
                return group, gfilters
            if t.upper() == "FILTER":
                take()
                gfilters.append(_parse_expression(take, peek, term))
                if peek() == ".":
                    take()
                continue
            if t in ("{",) or t.upper() in ("OPTIONAL", "UNION", "GRAPH"):
                raise SparqlSyntaxError(
                    f"{t!r} not supported inside a group pattern")
            read_triple(group, allow_alt=False)

    while True:
        t = peek()
        if t is None:
            raise SparqlSyntaxError("unterminated WHERE block")
        if t == "}":
            take(); break
        if t.upper() == "OPTIONAL":
            take()
            g, gf = take_group_with_filters()
            optional_groups.append(g)
            optional_filters.append(gf)
            if peek() == ".":
                take()
            continue
        if t == "{" and i + 1 < len(toks) and \
                toks[i + 1].upper() == "SELECT":
            # sub-SELECT (§12): capture the balanced group verbatim and
            # evaluate it recursively at execution time, joining its
            # projected bindings to the outer solutions
            take("{")
            depth, sub = 1, []
            while depth:
                x = peek()
                if x is None:
                    raise SparqlSyntaxError("unterminated sub-SELECT")
                if x == "{":
                    depth += 1
                elif x == "}":
                    depth -= 1
                    if not depth:
                        take()
                        break
                sub.append(take())
            # the inner query inherits the outer PREFIX declarations
            decls = " ".join(f"PREFIX {k}: <{v}>"
                             for k, v in prefixes.items())
            subqueries.append((decls + " " + " ".join(sub)).strip())
            if peek() == ".":
                take()
            continue
        if t == "{":
            # { BGP } UNION { BGP } [UNION { BGP }]...
            branches = [take_group()]
            while peek() and peek().upper() == "UNION":
                take()
                branches.append(take_group())
            if len(branches) < 2:
                raise SparqlSyntaxError("group pattern without UNION")
            if union_branches:
                raise SparqlSyntaxError("multiple UNION blocks unsupported")
            union_branches = branches
            if peek() == ".":
                take()
            continue
        if t.upper() == "BIND":
            take(); take("(")
            ast = _parse_expression(take, peek, term)
            take("AS")
            bv = take()
            if not bv.startswith("?"):
                raise SparqlSyntaxError("BIND target must be a ?var")
            take(")")
            binds.append((ast, bv[1:]))
            if peek() == ".":
                take()
            continue
        if t.upper() == "MINUS":
            take()
            minus_groups.append(take_group())
            if peek() == ".":
                take()
            continue
        if t.upper() == "GRAPH":
            take()
            g = take()
            gterm = g if g.startswith("?") else term(g)
            graph_groups.append((gterm, take_group()))
            if peek() == ".":
                take()
            continue
        if t.upper() == "VALUES":
            take()
            if peek() == "(":                      # VALUES (?a ?b) { (..) }
                take()
                vnames: list[str] = []
                while peek() != ")":
                    v = take()
                    if not v.startswith("?"):
                        raise SparqlSyntaxError("VALUES wants ?vars")
                    vnames.append(v[1:])
                take(")")
                take("{")
                vrows: list[list] = []
                while peek() == "(":
                    take()
                    row = []
                    while peek() != ")":
                        row.append(term(take()))
                    take(")")
                    if len(row) != len(vnames):
                        raise SparqlSyntaxError("VALUES row arity mismatch")
                    vrows.append(row)
                take("}")
            else:                                  # VALUES ?v { "a" "b" }
                v = take()
                if not v.startswith("?"):
                    raise SparqlSyntaxError("VALUES wants a ?var")
                vnames = [v[1:]]
                take("{")
                vrows = []
                while peek() != "}":
                    vrows.append([term(take())])
                take("}")
            values_clauses.append((vnames, vrows))
            if peek() == ".":
                take()
            continue
        if t.upper() == "FILTER" and i + 1 < len(toks) and \
                toks[i + 1].upper() in ("NOT", "EXISTS"):
            take()
            negated = False
            if peek().upper() == "NOT":
                take(); take("EXISTS"); negated = True
            else:
                take("EXISTS")
            exists_groups.append((negated, take_group()))
            if peek() == ".":
                take()
            continue
        if t.upper() == "FILTER":
            take()
            # FILTER (expr) or FILTER func(args): both are one expression
            filters.append(_parse_expression(take, peek, term))
            if peek() == ".":
                take()
            continue
        read_triple(patterns)

    order_by: list[tuple] = []
    group_by: list[str] = []
    havings: list[dict] = []
    limit = offset = None
    while peek() is not None:
        kw = take().upper()
        if kw == "GROUP":
            take("BY")
            while peek() and peek().startswith("?"):
                group_by.append(take()[1:])
            if not group_by:
                raise SparqlSyntaxError("GROUP BY needs at least one ?var")
        elif kw == "HAVING":
            # HAVING (COUNT(?v) > n) (?alias <= n) ... — each paren holds
            # one comparison over an aggregate expression or SELECT alias
            while peek() == "(":
                take("(")
                first = take()
                h: dict = {}
                if first.upper() in _AGG_FUNCS:
                    take("(")
                    if peek() and peek().upper() == "DISTINCT":
                        take(); h["distinct"] = True
                    h.update(func=first.upper(), arg=take(),
                             distinct=h.get("distinct", False))
                    take(")")
                elif first.startswith("?"):
                    h["alias"] = first[1:]
                else:
                    raise SparqlSyntaxError(f"bad HAVING term {first!r}")
                op = take()
                if op not in ("=", "!=", "<", "<=", ">", ">="):
                    raise SparqlSyntaxError(f"bad HAVING op {op!r}")
                rhs = take()
                if not _re.match(r"^-?\d+(?:\.\d+)?$", rhs):
                    raise SparqlSyntaxError("HAVING compares to a number")
                h.update(op=op, rhs=float(rhs))
                havings.append(h)
                take(")")
            if not havings:
                raise SparqlSyntaxError("HAVING needs (condition)")
        elif kw == "ORDER":
            take("BY")
            while peek() and peek().upper() not in ("LIMIT", "OFFSET"):
                t = peek()
                if t.upper() in ("ASC", "DESC"):
                    take()
                    # ASC/DESC(expr): the §17 expression parser consumes
                    # the parenthesized expression (a bare ?var keeps
                    # the historical string shape)
                    node = _parse_expression(take, peek, term)
                    if node[0] == "var":
                        order_by.append(("?" + node[1],
                                         t.upper() == "ASC"))
                    else:
                        order_by.append((node, t.upper() == "ASC"))
                elif t.startswith("?"):
                    take()
                    order_by.append((t, True))
                else:
                    # bare ORDER BY expression (function call or parens)
                    node = _parse_expression(take, peek, term)
                    order_by.append((node, True))
        elif kw == "LIMIT":
            limit = int(take())
        elif kw == "OFFSET":
            offset = int(take())
        else:
            raise SparqlSyntaxError(f"unexpected trailing token {kw!r}")

    if aggregates or group_by:
        bad = [c for c in projection
               if c in [v[1:] for v in variables] and c not in group_by]
        if bad:
            raise SparqlSyntaxError(
                f"non-aggregate projection {bad} must appear in GROUP BY")
    if havings and not aggregates and not group_by:
        raise SparqlSyntaxError("HAVING requires GROUP BY or aggregates")
    return {"prefixes": prefixes, "variables": variables, "star": star,
            "distinct": distinct, "patterns": patterns, "filters": filters,
            "optional_groups": optional_groups,
            "optional_filters": optional_filters,
            "union_branches": union_branches,
            "values_clauses": values_clauses,
            "exists_groups": exists_groups, "minus_groups": minus_groups,
            "binds": binds, "graph_groups": graph_groups,
            "subqueries": subqueries,
            "closure_patterns": closure_patterns,
            "aggregates": aggregates, "projection": projection,
            "group_by": group_by, "havings": havings,
            "order_by": order_by, "limit": limit, "offset": offset}


def _apply_filters(df: pd.DataFrame, filters: list) -> pd.DataFrame:
    """Each FILTER is an expression AST (see _parse_expression); a row
    survives when the expression is true — NaN/error rows drop (§17.2)."""
    for ast in filters:
        if not len(df):
            return df
        mask = _eval_expr(df, ast)
        if not isinstance(mask, pd.Series):
            mask = pd.Series([bool(mask)] * len(df), index=df.index)
        elif mask.dtype != bool:
            mask = mask.fillna(False).astype(bool)
        df = df[mask]
    return df


def _one_agg(sub: pd.DataFrame, spec: dict):
    """Evaluate one aggregate over a (sub)frame of bindings. SPARQL
    operates on typed literals; engine bindings are strings, so SUM/AVG
    coerce numerically (non-numeric → excluded, per SPARQL's
    error-then-drop semantics) and MIN/MAX use numeric order when every
    value coerces, else codepoint string order (SPARQL fn:compare)."""
    func, arg = spec["func"], spec["arg"]
    if func == "COUNT":
        if arg == "*":
            return len(sub)
        s = sub[arg[1:]].dropna()
        return s.nunique() if spec["distinct"] else len(s)
    s = sub[arg[1:]].dropna()
    if spec["distinct"]:
        s = s.drop_duplicates()
    if func == "SAMPLE":           # any one value from the group (§18.5.1.13)
        return s.iloc[0] if len(s) else None
    if func == "GROUP_CONCAT":
        sep = spec.get("separator")
        return (" " if sep is None else sep).join(s.astype(str))
    num = pd.to_numeric(s, errors="coerce")
    if func in ("SUM", "AVG"):
        num = num.dropna()
        if func == "SUM":
            tot = num.sum()
            return int(tot) if float(tot).is_integer() else float(tot)
        return float(num.mean()) if len(num) else None
    use_num = len(s) > 0 and num.notna().all()
    vals = num if use_num else s.astype(str)
    if not len(vals):
        return None
    return (vals.min() if func == "MIN" else vals.max())


def _apply_aggregates(df: pd.DataFrame, plan: dict) -> pd.DataFrame:
    """GROUP BY + aggregate projection (SPARQL 1.1 §11) on the binding
    frame. Driver-side by design: like the reference's Jena execution the
    aggregation runs over the already-joined binding table, whose
    cardinality the BGP filters bound; the distributed path for large
    binding sets is select_distributed + the engine's salted counters."""
    specs = list(plan["aggregates"])
    havings = plan.get("havings", [])
    for n, h in enumerate(hv for hv in havings if "func" in hv):
        specs.append({"func": h["func"], "arg": h["arg"],
                      "distinct": h.get("distinct", False),
                      "alias": f"__h{n}", "_having": h})
    group_by = plan["group_by"]
    if group_by:
        rows = []
        for key, sub in df.groupby(group_by, sort=False, dropna=False):
            key = key if isinstance(key, tuple) else (key,)
            row = dict(zip(group_by, key))
            for spec in specs:
                row[spec["alias"]] = _one_agg(sub, spec)
            rows.append(row)
        out = pd.DataFrame(rows, columns=group_by +
                           [s["alias"] for s in specs])
    else:
        out = pd.DataFrame([{s["alias"]: _one_agg(df, s) for s in specs}])
    for spec in specs:     # COUNT and integral SUM columns are int64
        a = spec["alias"]
        if spec["func"] == "COUNT" or (
                spec["func"] == "SUM"
                and out[a].map(lambda v: isinstance(v, int)).all()):
            out[a] = out[a].astype("int64")
    for h in havings:      # HAVING filters the grouped rows (§11.5)
        col = h["alias"] if "alias" in h else next(
            s["alias"] for s in specs if s.get("_having") is h)
        s = pd.to_numeric(out[col], errors="coerce")
        mask = {"=": s == h["rhs"], "!=": s != h["rhs"],
                "<": s < h["rhs"], "<=": s <= h["rhs"],
                ">": s > h["rhs"], ">=": s >= h["rhs"]}[h["op"]]
        out = out[mask.fillna(False)]
    out = out.drop(columns=[s["alias"] for s in specs if "_having" in s])
    out = out.reset_index(drop=True)
    return out[plan["projection"]] if plan["projection"] else out


def _graph_terms(triples_ds, graph) -> pd.Series:
    """Distinct RDF terms of the (optionally named) graph — every subject
    and object. This is the SPARQL 1.1 §18.4 ZeroLengthPath node universe.
    Distinct-per-batch runs distributed; only unique terms reach the
    driver."""
    import pyarrow as pa

    def f(t):
        if graph is not None:
            t = t.filter(pc.equal(t["graph"], graph))
        both = pa.chunked_array([t["subj"].combine_chunks(),
                                 t["obj"].combine_chunks()])
        return pa.table({"__t": both.unique()})

    out = triples_ds.map_batches(f, batch_format="pyarrow").to_pandas()
    if "__t" not in out.columns:
        return pd.Series([], dtype=object)
    return out["__t"].drop_duplicates()


def _closure_frame(triples_ds, s, p, o, graph, mode: str = "+") \
        -> pd.DataFrame:
    """Binding frame for an arbitrary-length path pattern (§9):
    ``?s pred+ ?o`` (one-or-more), ``pred*`` (zero-or-more) and ``pred?``
    (zero-or-one). The one-or-more core is the transitive closure of the
    predicate's edge relation, computed by path-doubling pandas merges
    (driver path — binding frames are small here by construction; the
    Dataset-native twin for big relations is ops.transitive_closure).
    ``*`` / ``?`` add the §18.4 ZeroLengthPath rows: term→itself when an
    endpoint is bound, else every graph term (subjects ∪ objects)."""
    edges = _match_pattern(triples_ds, "?__a", p, "?__b", graph)
    pairs = edges[["subj", "obj"]].drop_duplicates()         .rename(columns={"subj": "__a", "obj": "__b"})

    def compose(a: pd.DataFrame, b: pd.DataFrame) -> pd.DataFrame:
        st = a.merge(b, left_on="__b", right_on="__a",
                     suffixes=("", "__r"))
        return (st[["__a", "__b__r"]].rename(columns={"__b__r": "__b"})
                .drop_duplicates())

    def closure_of(rel: pd.DataFrame) -> pd.DataFrame:
        total = rel
        while True:
            merged = pd.concat([total, compose(total, rel)],
                               ignore_index=True).drop_duplicates()
            if len(merged) == len(total):
                return total
            total = merged

    if mode == "?":
        total = pairs                              # length exactly one
    elif isinstance(mode, tuple):                  # ("rng", lo, hi)
        _, lo, hi = mode
        if hi is not None:                         # exact levels lo..hi
            level, acc = pairs, []
            for k in range(1, hi + 1):
                if k > 1:
                    level = compose(level, pairs)
                    if not len(level):
                        break
                if k >= lo:
                    acc.append(level)
            total = (pd.concat(acc, ignore_index=True).drop_duplicates()
                     if acc else pairs.iloc[0:0])
        elif lo <= 1:                              # {0,}/{1,} == * / +
            total = closure_of(pairs)
        else:                                      # length >= lo
            lvl = pairs                            # build level lo-1,
            for _ in range(lo - 2):                # then ∘ closure(>=1)
                lvl = compose(lvl, pairs)
            total = compose(lvl, closure_of(pairs))
    else:
        total = closure_of(pairs)
    zero_len = mode in ("*", "?") or (isinstance(mode, tuple)
                                      and mode[1] == 0)
    if zero_len:                                   # zero-length component
        if not _is_var(s):
            t = _expand_term(s, graph)
            refl = pd.DataFrame({"__a": [t], "__b": [t]})
        elif not _is_var(o):
            t = _expand_term(o, graph)
            refl = pd.DataFrame({"__a": [t], "__b": [t]})
        else:
            terms = _graph_terms(triples_ds, graph)
            refl = pd.DataFrame({"__a": terms.to_numpy(),
                                 "__b": terms.to_numpy()})
        total = pd.concat([total, refl], ignore_index=True).drop_duplicates()
    if not _is_var(s):
        total = total[total["__a"] == _expand_term(s, graph)]
    if not _is_var(o):
        total = total[total["__b"] == _expand_term(o, graph)]
    if _is_var(s) and _is_var(o) and s == o:       # ?x pred+ ?x cycles
        total = total[total["__a"] == total["__b"]]
        return pd.DataFrame({s[1:]: total["__a"].to_numpy()})
    cols = {}
    if _is_var(s):
        cols[s[1:]] = total["__a"].to_numpy()
    if _is_var(o):
        cols[o[1:]] = total["__b"].to_numpy()
    return pd.DataFrame(cols) if cols else         pd.DataFrame(index=range(len(total)))


def _apply_values(df: pd.DataFrame, values_clauses) -> pd.DataFrame:
    """Inline VALUES data joins the solution sequence (SPARQL 1.1 §10.2).

    Join compatibility: a solution whose shared variable is UNBOUND
    (None, e.g. from OPTIONAL) is compatible with every VALUES row and
    takes that row's binding — so rows are merged per null-pattern
    group, joining only on the variables actually bound in that group."""
    for vnames, vrows in values_clauses:
        vf = pd.DataFrame(vrows, columns=vnames).drop_duplicates()
        shared = [v for v in vnames if v in df.columns]
        if not shared:
            df = df.merge(vf, how="cross")
            continue
        nulls = df[shared].isna()
        parts = []
        for pattern, sub in df.groupby(
                [nulls[c] for c in shared], sort=False):
            pattern = pattern if isinstance(pattern, tuple) else (pattern,)
            bound = [c for c, is_null in zip(shared, pattern) if not is_null]
            unbound = [c for c in shared if c not in bound]
            sub = sub.drop(columns=unbound)   # take the VALUES binding
            parts.append(sub.merge(vf, on=bound, how="inner") if bound
                         else sub.merge(vf, how="cross"))
        df = pd.concat(parts, ignore_index=True) if parts \
            else df.iloc[0:0].merge(vf.iloc[0:0], on=shared, how="inner")
    return df


def _apply_exists_minus(df: pd.DataFrame, triples_ds, plan,
                        graph) -> pd.DataFrame:
    """FILTER [NOT] EXISTS (§8.1) and MINUS (§8.3). The two differ when
    the inner group shares no variable: EXISTS tests plain satisfiability
    (can wipe or keep everything) while MINUS is a no-op on disjoint
    domains."""
    for negated, group in plan["exists_groups"]:
        part = select(triples_ds, group, graph=graph)
        shared = [c for c in df.columns if c in part.columns]
        if not shared:
            keep = (len(part) == 0) if negated else (len(part) > 0)
            df = df if keep else df.iloc[0:0]
            continue
        keys = part[shared].drop_duplicates()
        m = df.merge(keys, on=shared, how="left", indicator="__ex")
        mask = (m["__ex"] == "left_only") if negated \
            else (m["__ex"] == "both")
        df = m[mask].drop(columns="__ex").reset_index(drop=True)
    for group in plan["minus_groups"]:
        part = select(triples_ds, group, graph=graph)
        shared = [c for c in df.columns if c in part.columns]
        if not shared:          # disjoint domains: MINUS removes nothing
            continue
        keys = part[shared].drop_duplicates()
        m = df.merge(keys, on=shared, how="left", indicator="__mn")
        df = m[m["__mn"] == "left_only"].drop(columns="__mn") \
            .reset_index(drop=True)
    return df


def select_text(triples_ds, query: str, graph: str | None = None) -> pd.DataFrame:
    """Run a SPARQL SELECT string over a triples Dataset → binding frame
    (the reference's ad-hoc query surface, SparqlController.java:33-43)."""
    plan = parse_select(query)
    if plan["union_branches"]:
        u = select_union(triples_ds, plan["union_branches"], graph=graph)
        if plan["patterns"]:
            base = select(triples_ds, plan["patterns"], graph=graph)
            shared = [c for c in base.columns if c in u.columns]
            if not shared:
                raise SparqlSyntaxError(
                    "UNION block shares no variable with the surrounding "
                    "patterns (cross-product join unsupported)")
            out = base.merge(u, on=shared, how="inner")
        else:
            out = u
        if plan["optional_groups"]:
            for gi, group in enumerate(plan["optional_groups"]):
                part = select(triples_ds, group, graph=graph)
                if plan["optional_filters"][gi]:
                    part = _apply_filters(part, plan["optional_filters"][gi])
                shared = [c for c in out.columns if c in part.columns]
                if not shared:
                    raise SparqlSyntaxError(
                        "OPTIONAL group shares no variable with prior "
                        "patterns")
                out = out.merge(part, on=shared, how="left")
            for c in out.columns:
                if out[c].isna().any():
                    out[c] = out[c].astype(object).where(out[c].notna(), None)
    elif plan["optional_groups"]:
        out = select_optional(triples_ds, plan["patterns"],
                              plan["optional_groups"], graph=graph,
                              optional_filters=plan["optional_filters"])
    else:
        out = select(triples_ds, plan["patterns"],
                     variables=None, graph=graph, distinct=False)
    for cs, cp, co, cmode in plan["closure_patterns"]:
        cf = _closure_frame(triples_ds, cs, cp, co, graph, cmode)
        shared = [c for c in out.columns if c in cf.columns]
        if len(out.columns) == 0 and not plan["patterns"]:
            out = cf
        elif shared:
            out = out.merge(cf, on=shared, how="inner")
        else:
            out = out.merge(cf, how="cross")
    for gterm, group in plan["graph_groups"]:
        gframe = select_graph(triples_ds, gterm, group)
        shared = [c for c in out.columns if c in gframe.columns]
        if len(out.columns) == 0 and not plan["patterns"]:
            out = gframe            # GRAPH group as the only group member
        elif shared:
            out = out.merge(gframe, on=shared, how="inner")
        else:
            out = out.merge(gframe, how="cross")
    for subq in plan["subqueries"]:
        subframe = select_text(triples_ds, subq, graph=graph)
        shared = [c for c in out.columns if c in subframe.columns]
        if len(out.columns) == 0 and not plan["patterns"]:
            out = subframe          # sub-SELECT as the only group member
        elif shared:
            out = out.merge(subframe, on=shared, how="inner")
        else:
            out = out.merge(subframe, how="cross")
    for ast, bv in plan["binds"]:
        out = out.assign(**{bv: _eval_expr(out, ast)})
    if plan["values_clauses"]:
        out = _apply_values(out, plan["values_clauses"])
    if plan["exists_groups"] or plan["minus_groups"]:
        out = _apply_exists_minus(out, triples_ds, plan, graph)
    out = _apply_filters(out, plan["filters"])
    hidden = [c for c in out.columns
              if c.startswith("__pp") and "?" + c not in plan["variables"]]
    if hidden:      # property-path desugaring internals never project
        out = out.drop(columns=hidden)
    if plan["aggregates"] or plan["group_by"]:
        out = _apply_aggregates(out, plan)
    elif plan["variables"] and not plan["star"]:
        out = out[[v.lstrip("?") for v in plan["variables"]]]
    if plan["distinct"]:
        out = out.drop_duplicates()
    if plan["order_by"]:
        cols, asc, aux = [], [], []
        for i, (v, a) in enumerate(plan["order_by"]):
            if isinstance(v, str):
                cols.append(v.lstrip("?"))
            else:                             # ORDER BY expression
                c = f"__ord{i}"
                out = out.assign(**{c: _eval_expr(out, v)})
                cols.append(c)
                aux.append(c)
            asc.append(a)
        out = out.sort_values(cols, ascending=asc, kind="mergesort")
        if aux:
            out = out.drop(columns=aux)
    if plan["offset"]:
        out = out.iloc[plan["offset"]:]
    if plan["limit"] is not None:
        out = out.head(plan["limit"])
    return out.reset_index(drop=True)


def _expr_vars(node, out: set[str]) -> set[str]:
    """All ?vars an expression AST references."""
    if node[0] == "var":
        out.add(node[1])
    elif node[0] == "call":
        for a in node[2]:
            _expr_vars(a, out)
    elif node[0] in ("cmp", "arith"):
        _expr_vars(node[2], out)
        _expr_vars(node[3], out)
    elif node[0] in ("and", "or"):
        _expr_vars(node[1], out)
        _expr_vars(node[2], out)
    elif node[0] in ("not", "in"):
        _expr_vars(node[1], out)
    return out


def _compose_pairs_ds(a, b):
    """Relation composition of two (__a, __b) pair Datasets via one
    normalized hash join (invariants 7/11: normalize both sides,
    short-circuit empties)."""
    import pyarrow as pa
    import ray.data as rd

    from . import ops

    if len(a.limit(1).take(1)) == 0 or len(b.limit(1).take(1)) == 0:
        return rd.from_pandas(pd.DataFrame(
            {"__a": pd.Series([], dtype=object),
             "__b": pd.Series([], dtype=object)}))
    left = ops.materialize_normalized(
        a.map_batches(lambda df: df.rename(columns={"__b": "__m"}),
                      batch_format="pandas"),
        pa.schema([("__a", pa.string()), ("__m", pa.string())]))
    right = ops.materialize_normalized(
        b.map_batches(lambda df: df.rename(columns={"__a": "__m"}),
                      batch_format="pandas"),
        pa.schema([("__m", pa.string()), ("__b", pa.string())]))
    j = left.join(right, "inner", ops._default_partitions(), on=("__m",))
    return ops._dedup_pairs(
        j.map_batches(lambda df: df[["__a", "__b"]],
                      batch_format="pandas"), "__a", "__b")


def _closure_ds(triples_ds, s, p, o, graph, mode="+"):
    """Distributed twin of _closure_frame: arbitrary-length path
    bindings as a Dataset. ``+`` runs ops.transitive_closure (path
    doubling, bucketed joins); ``?`` is the deduped single-hop relation;
    ``*`` unions the §18.4 ZeroLengthPath rows (bound endpoint →
    term→itself; both-var → the distributed distinct term universe);
    a quantifier ``("rng", lo, hi)`` composes exact levels with
    normalized joins (hi bounded) or level_(lo-1) ∘ closure (open).
    Endpoint constants filter AFTER closure, same as the driver."""
    import ray.data as rd

    from .ops import _dedup_pairs, transitive_closure

    edges, _ = _match_pattern_ds(triples_ds, "?__a", p, "?__b", graph)
    if mode == "?":
        total = _dedup_pairs(edges, "__a", "__b")
    elif isinstance(mode, tuple):
        _, lo, hi = mode
        base = _dedup_pairs(edges, "__a", "__b").materialize()
        if hi is not None:
            level, acc = base, []
            for k in range(1, hi + 1):
                if k > 1:
                    level = _compose_pairs_ds(level, base).materialize()
                    if len(level.limit(1).take(1)) == 0:
                        break
                if k >= lo:
                    acc.append(level)
            if acc:
                total = acc[0]
                for more in acc[1:]:
                    total = total.union(more)
                total = _dedup_pairs(total, "__a", "__b")
            else:
                total = base.limit(0)
        elif lo <= 1:
            total = transitive_closure(base, "__a", "__b")
        else:
            lvl = base
            for _ in range(lo - 2):
                lvl = _compose_pairs_ds(lvl, base).materialize()
            total = _compose_pairs_ds(
                lvl, transitive_closure(base, "__a", "__b"))
    else:
        total = transitive_closure(edges, "__a", "__b")
    if mode in ("*", "?") or (isinstance(mode, tuple) and mode[1] == 0):
        if not _is_var(s) or not _is_var(o):
            t = _expand_term(s if not _is_var(s) else o, graph)
            refl = rd.from_pandas(pd.DataFrame({"__a": [t], "__b": [t]}))
        else:
            def terms_batch(t):
                import pyarrow as pa

                if graph is not None:
                    t = t.filter(pc.equal(t["graph"], graph))
                both = pa.chunked_array([t["subj"].combine_chunks(),
                                         t["obj"].combine_chunks()]).unique()
                return pa.table({"__a": both, "__b": both})

            refl = triples_ds.map_batches(terms_batch,
                                          batch_format="pyarrow")
        total = _dedup_pairs(total.union(refl), "__a", "__b")

    sc = _expand_term(s, graph) if not _is_var(s) else None
    oc = _expand_term(o, graph) if not _is_var(o) else None
    cycle = _is_var(s) and _is_var(o) and s == o

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        if sc is not None:
            df = df[df["__a"] == sc]
        if oc is not None:
            df = df[df["__b"] == oc]
        if cycle:
            df = df[df["__a"] == df["__b"]]
            return pd.DataFrame({s[1:]: df["__a"].to_numpy()})
        cols = {}
        if _is_var(s):
            cols[s[1:]] = df["__a"].to_numpy()
        if _is_var(o):
            cols[o[1:]] = df["__b"].to_numpy()
        return pd.DataFrame(cols) if cols \
            else pd.DataFrame(index=range(len(df)))

    return total.map_batches(finish, batch_format="pandas")


_NULL_SENTINEL = "\x00∅"      # unbound marker inside composite join keys


def _exists_minus_ds(bindings_ds, triples_ds, group, graph,
                     negated: bool, minus: bool):
    """Distributed FILTER [NOT] EXISTS / MINUS over a bindings Dataset:
    the inner BGP runs on the distributed path, then a bucketed
    semi/anti join (ops.semi_join) on a composite key over the shared
    variables. Unbound (None) bindings use a sentinel on BOTH sides,
    matching pandas-merge NaN==NaN semantics on the driver path. The
    §8.3 divergence is preserved: a no-shared-variable MINUS is a no-op
    while EXISTS tests plain satisfiability."""
    from .ops import semi_join

    part = select_distributed(triples_ds, group, graph=graph)
    part_vars = list(part.schema().names)
    cur_cols = list(bindings_ds.schema().names)
    shared = [c for c in cur_cols if c in part_vars]
    if not shared:
        if minus:                         # disjoint domains: no-op
            return bindings_ds
        nonempty = len(part.limit(1).take(1)) > 0
        keep = (not nonempty) if negated else nonempty
        return bindings_ds if keep else bindings_ds.limit(0)

    def keyed(df: pd.DataFrame, cols=tuple(shared)) -> pd.DataFrame:
        k = df[cols[0]].astype(object).where(
            df[cols[0]].notna(), _NULL_SENTINEL).astype(str)
        for c in cols[1:]:
            k = k + "\x1f" + df[c].astype(object).where(
                df[c].notna(), _NULL_SENTINEL).astype(str)
        return df.assign(__k=k)

    left = bindings_ds.map_batches(keyed, batch_format="pandas")
    right = part.map_batches(lambda df: keyed(df)[["__k"]],
                             batch_format="pandas")
    out = semi_join(left, right, "__k", "__k", anti=(negated or minus))
    return out.map_batches(lambda df: df.drop(columns="__k"),
                           batch_format="pandas")


def select_text_distributed(triples_ds, query: str,
                            graph: str | None = None):
    """The SPARQL string front-end on the Dataset scale path: parse →
    select_distributed BGP join → per-batch FILTER/BIND evaluation
    (embarrassingly parallel, the same _eval_expr kernels as the driver
    path) → optional two-phase distributed aggregate / distinct. Returns
    a Dataset of bindings; the answer equals ``select_text`` for every
    supported query (pinned by tests).

    Supported: BGP + OPTIONAL (left-outer Dataset.join via
    select_optional_distributed) + UNION (homogeneous branches via
    select_union_distributed) + FILTER + BIND + VALUES (broadcast
    inline data, per-batch §10.2 join) + FILTER [NOT] EXISTS / MINUS
    (bucketed semi/anti joins, _exists_minus_ds) + the full aggregate
    battery (COUNT/SUM/AVG/MIN/MAX/SAMPLE/GROUP_CONCAT, DISTINCT
    variants, multiple aggregates, GROUP BY, HAVING —
    _aggregate_binding_ds_full) + DISTINCT + ORDER BY (ASC/DESC over
    vars AND §17 expressions, hidden-key sort columns) + LIMIT +
    OFFSET-with-LIMIT (bounded prefix materializes, size ≤ OFFSET+LIMIT
    by the query's own modifiers) + OFFSET-without-LIMIT (distributed
    skip via split_at_indices — the unbounded tail never lands on the
    driver). Everything else raises with a pointer to select_text."""
    plan = parse_select(query)
    if plan["union_branches"]:
        # UNION block; surrounding patterns inner-join it (driver parity,
        # select_text), OPTIONAL groups left-outer join it afterwards.
        ds = select_union_distributed(triples_ds, plan["union_branches"],
                                      graph=graph)
        pattern_vars = {t[1:] for b in plan["union_branches"]
                        for pat in b for t in pat if _is_var(t)}
        if plan["patterns"]:
            import pyarrow as pa

            from .ops import _default_partitions, materialize_normalized

            base = select_distributed(triples_ds, plan["patterns"],
                                      graph=graph)
            bvars = list(base.schema().names)
            uvars = list(ds.schema().names)
            shared = [v for v in uvars if v in bvars]
            if shared:
                ds = materialize_normalized(
                    ds, pa.schema([(v, pa.string()) for v in uvars])).join(
                    materialize_normalized(
                        base, pa.schema([(v, pa.string()) for v in bvars])),
                    "inner", _default_partitions(), on=tuple(shared))
            else:
                ds = _cross_join_ds(ds, base, "UNION block")
            pattern_vars |= set(bvars)
        if plan["optional_groups"]:
            ds = select_optional_distributed(
                triples_ds, [], plan["optional_groups"], graph=graph,
                optional_filters=plan["optional_filters"], base_ds=ds)
            pattern_vars |= {t[1:] for g in plan["optional_groups"]
                             for pat in g for t in pat if _is_var(t)}
    elif plan["optional_groups"]:
        ds = select_optional_distributed(
            triples_ds, plan["patterns"], plan["optional_groups"],
            graph=graph, optional_filters=plan["optional_filters"])
        pattern_vars = {t[1:] for pat in plan["patterns"] for t in pat
                        if _is_var(t)}
        pattern_vars |= {t[1:] for g in plan["optional_groups"]
                         for pat in g for t in pat if _is_var(t)}
    elif plan["patterns"] or not (plan["graph_groups"]
                                  or plan["closure_patterns"]
                                  or plan["subqueries"]):
        ds = select_distributed(triples_ds, plan["patterns"], graph=graph)
        pattern_vars = {t[1:] for pat in plan["patterns"] for t in pat
                        if _is_var(t)}
    else:
        ds = None             # GRAPH/closure/sub-SELECT group(s) only
        pattern_vars = set()

    def join_in(base, part_ds, label):
        """Normalized inner Dataset.join on shared vars (invariant 7)."""
        import pyarrow as pa

        from .ops import _default_partitions, materialize_normalized

        pvars = list(part_ds.schema().names)
        if base is None:
            return part_ds, set(pvars)
        cur = list(base.schema().names)
        shared = [v for v in cur if v in pvars]
        if not shared:
            # legal disconnected group: guarded broadcast cartesian
            return _cross_join_ds(base, part_ds, label), set(pvars)
        out = materialize_normalized(
            base, pa.schema([(v, pa.string()) for v in cur])).join(
            materialize_normalized(
                part_ds, pa.schema([(v, pa.string()) for v in pvars])),
            "inner", _default_partitions(), on=tuple(shared))
        return out, set(pvars)

    for cs, cp, co, cmode in plan["closure_patterns"]:
        cds = _closure_ds(triples_ds, cs, cp, co, graph, cmode)
        ds, newv = join_in(ds, cds, "path-closure pattern")
        pattern_vars |= newv
    for gterm, group in plan["graph_groups"]:
        gds = select_graph_distributed(triples_ds, gterm, group)
        ds, newv = join_in(ds, gds, "GRAPH group")
        pattern_vars |= newv
    for subq in plan["subqueries"]:
        sub_ds = select_text_distributed(triples_ds, subq, graph=graph)
        ds, newv = join_in(ds, sub_ds, "sub-SELECT")
        pattern_vars |= newv
    bound = pattern_vars | {bv for _, bv in plan["binds"]}
    bound |= {v for vnames, _ in plan["values_clauses"] for v in vnames}
    for ast in [a for a, _ in plan["binds"]] + plan["filters"]:
        missing = _expr_vars(ast, set()) - bound
        if missing:
            raise SparqlSyntaxError(
                f"expression references unbound ?{missing.pop()}")
    binds, filters = plan["binds"], plan["filters"]
    joinish = (plan["values_clauses"] or plan["exists_groups"]
               or plan["minus_groups"])
    if (binds or filters) and not joinish:
        # fused single pass when no solution-sequence joins intervene
        def eval_batch(df: pd.DataFrame) -> pd.DataFrame:
            for ast, bv in binds:
                df = df.assign(**{bv: _eval_expr(df, ast)})
            return _apply_filters(df, filters)

        ds = ds.map_batches(eval_batch, batch_format="pandas")
    elif joinish:
        # driver order (select_text): BIND → VALUES → EXISTS/MINUS →
        # FILTER. VALUES is inline data — broadcast, embarrassingly
        # parallel per batch; EXISTS/MINUS are bucketed semi/anti joins.
        if binds:
            ds = ds.map_batches(
                lambda df, bs=binds: df.assign(
                    **{bv: _eval_expr(df, ast) for ast, bv in bs}),
                batch_format="pandas")
        if plan["values_clauses"]:
            vc = plan["values_clauses"]
            ds = ds.map_batches(lambda df, vc=vc: _apply_values(df, vc),
                                batch_format="pandas")
        for negated, group in plan["exists_groups"]:
            ds = _exists_minus_ds(ds, triples_ds, group, graph,
                                  negated=negated, minus=False)
        for group in plan["minus_groups"]:
            ds = _exists_minus_ds(ds, triples_ds, group, graph,
                                  negated=False, minus=True)
        if filters:
            ds = ds.map_batches(
                lambda df, fs=filters: _apply_filters(df, fs),
                batch_format="pandas")
    hidden = sorted(v for v in pattern_vars if v.startswith("__pp")
                    and "?" + v not in plan["variables"])
    if hidden:      # property-path desugaring internals never project
        ds = ds.map_batches(
            lambda df, h=tuple(hidden): df.drop(
                columns=[c for c in h if c in df.columns]),
            batch_format="pandas")
    if plan["aggregates"] or plan["group_by"]:
        ds = _aggregate_binding_ds_full(ds, plan)
    elif plan["variables"] and not plan["star"]:
        cols = tuple(v.lstrip("?") for v in plan["variables"])
        ds = ds.map_batches(lambda df, k=cols: df[list(k)],
                            batch_format="pandas")
    if plan["distinct"]:
        from .ops import distinct_rows

        ds = distinct_rows(ds, None, 32)
    ord_aux: list[str] = []
    if plan["order_by"]:
        expr_terms = [(i, v) for i, (v, _) in enumerate(plan["order_by"])
                      if not isinstance(v, str)]
        if expr_terms:                        # ORDER BY expressions:
            def add_ord(df: pd.DataFrame,                 # hidden keys
                        terms=tuple(expr_terms)) -> pd.DataFrame:
                df = df.copy()
                for i, node in terms:
                    df[f"__ord{i}"] = _eval_expr(df, node)
                return df

            ds = ds.map_batches(add_ord, batch_format="pandas")
            ord_aux = [f"__ord{i}" for i, _ in expr_terms]
        keys = [v.lstrip("?") if isinstance(v, str) else f"__ord{i}"
                for i, (v, _) in enumerate(plan["order_by"])]
        ds = ds.sort(keys,
                     descending=[not asc for _, asc in plan["order_by"]])
    if plan["offset"]:
        import ray

        if plan["limit"] is not None:
            # bounded by the query's own OFFSET+LIMIT: materialize the
            # prefix, slice, re-wrap
            head = ds.limit(plan["offset"] + plan["limit"]).to_pandas()
            if ord_aux:
                head = head.drop(columns=ord_aux)
            return ray.data.from_pandas(
                head.iloc[plan["offset"]:].reset_index(drop=True))
        # OFFSET without LIMIT: distributed skip via the block-index
        # split — no driver materialization of the (unbounded) tail
        ds = ds.split_at_indices([plan["offset"]])[1]
    elif plan["limit"] is not None:
        ds = ds.limit(plan["limit"])
    if ord_aux:
        # dropping hidden sort keys must not reorder the sorted stream
        from ray.data import DataContext

        DataContext.get_current().execution_options.preserve_order = True
        ds = ds.map_batches(
            lambda df, h=tuple(ord_aux): df.drop(
                columns=[c for c in h if c in df.columns]),
            batch_format="pandas")
    return ds


# ---------------------------------------------------------------------------
# query-form dispatch: SELECT / ASK / CONSTRUCT / DESCRIBE text front-ends
# (the reference hands every form to Jena, SparqlService.java:22-31; the
# engine implements each form over its own machinery)
# ---------------------------------------------------------------------------

def _past_prefixes(toks: list[str]) -> int:
    """Index of the query-form keyword after the PREFIX declarations."""
    return _read_prefixes(toks)[1]


def _collect_prefixes(toks: list[str]) -> dict[str, str]:
    return _read_prefixes(toks)[0]


def query_form(query: str) -> str:
    toks = _tokenize(query)
    i = _past_prefixes(toks)
    if i >= len(toks):
        raise SparqlSyntaxError("empty query")
    kw = toks[i].upper()
    if kw not in ("SELECT", "ASK", "CONSTRUCT", "DESCRIBE"):
        raise SparqlSyntaxError(f"unsupported query form {toks[i]!r}")
    return kw


def ask_text(triples_ds, query: str, graph: str | None = None) -> bool:
    """ASK query string → bool (SPARQL 1.1 §16.3): true iff the pattern
    has at least one solution. Evaluated by rewriting to SELECT * — FILTER
    and OPTIONAL/UNION support come for free."""
    toks = _tokenize(query)
    i = _past_prefixes(toks)
    if toks[i].upper() != "ASK":
        raise SparqlSyntaxError("not an ASK query")
    rewritten = " ".join(toks[:i] + ["SELECT", "*"] + toks[i + 1:])
    return len(select_text(triples_ds, rewritten, graph=graph)) > 0


def _parse_construct(query: str) -> tuple[list[tuple], str]:
    """CONSTRUCT query text → (template triples, rewritten SELECT * text)
    — shared by the driver and distributed front-ends."""
    toks = _tokenize(query)
    i = _past_prefixes(toks)
    if toks[i].upper() != "CONSTRUCT":
        raise SparqlSyntaxError("not a CONSTRUCT query")
    prefixes = _collect_prefixes(toks)
    j = i + 1
    if j >= len(toks) or toks[j] != "{":
        raise SparqlSyntaxError("CONSTRUCT needs a { template }")
    depth, j = 1, j + 1
    tmpl_toks: list[str] = []
    while j < len(toks) and depth:
        if toks[j] == "{":
            depth += 1
        elif toks[j] == "}":
            depth -= 1
            if not depth:
                break
        tmpl_toks.append(toks[j])
        j += 1
    if depth:
        raise SparqlSyntaxError("unterminated CONSTRUCT template")
    template: list[tuple] = []
    k = 0
    while k < len(tmpl_toks):
        if tmpl_toks[k] == ".":
            k += 1
            continue
        if k + 2 >= len(tmpl_toks):
            raise SparqlSyntaxError("dangling template terms")
        s, p, o = (tmpl_toks[k], tmpl_toks[k + 1], tmpl_toks[k + 2])
        template.append(tuple(
            t if t.startswith("?") else _parse_term(t, prefixes)
            for t in (s, p, o)))
        k += 3
    if not template:
        raise SparqlSyntaxError("empty CONSTRUCT template")
    rewritten = " ".join(toks[:i] + ["SELECT", "*"] + toks[j + 1:])
    return template, rewritten


def construct_text(triples_ds, query: str,
                   graph: str | None = None) -> pd.DataFrame:
    """CONSTRUCT { template } WHERE { ... } → deduplicated triples frame
    (subj, pred, obj), one instantiation per solution with any
    unbound-variable triples dropped (SPARQL 1.1 §16.2)."""
    template, rewritten = _parse_construct(query)
    bindings = select_text(triples_ds, rewritten, graph=graph)
    frames = []
    for s, p, o in template:
        cols = {}
        for name, t in (("subj", s), ("pred", p), ("obj", o)):
            if _is_var(t):
                v = t[1:]
                if v not in bindings.columns:
                    raise SparqlSyntaxError(
                        f"template variable ?{v} not bound in WHERE")
                cols[name] = bindings[v]
            else:
                cols[name] = pd.Series(
                    [_expand_term(t, graph)] * len(bindings), dtype=object)
        frames.append(pd.DataFrame(cols).dropna())
    out = pd.concat(frames, ignore_index=True) if frames else pd.DataFrame(
        columns=["subj", "pred", "obj"])
    return out.drop_duplicates().reset_index(drop=True)


def describe_text(triples_ds, query: str,
                  graph: str | None = None) -> pd.DataFrame:
    """DESCRIBE <uri>... or DESCRIBE ?v WHERE { ... } → every triple whose
    SUBJECT is a described resource, as a (graph, subj, pred, obj) frame.

    Divergence note: Jena's default DESCRIBE emits a blank-node closure
    (CBD); engine triples contain no blank nodes, so the subject-outgoing
    set IS the concise bounded description here."""
    toks = _tokenize(query)
    i = _past_prefixes(toks)
    if toks[i].upper() != "DESCRIBE":
        raise SparqlSyntaxError("not a DESCRIBE query")
    prefixes = _collect_prefixes(toks)
    j = i + 1
    uris: list[str] = []
    vars_: list[str] = []
    while j < len(toks) and toks[j] != "{" and toks[j].upper() != "WHERE":
        t = toks[j]
        if t.startswith("?"):
            vars_.append(t[1:])
        elif t == "*":
            raise SparqlSyntaxError("DESCRIBE * unsupported")
        else:
            uris.append(_expand_term(_parse_term(t, prefixes), graph))
        j += 1
    if vars_:
        rewritten = " ".join(toks[:i] + ["SELECT"] +
                             ["?" + v for v in vars_] + toks[j:])
        bindings = select_text(triples_ds, rewritten, graph=graph)
        for v in vars_:
            uris.extend(x for x in bindings[v].dropna().unique())
    targets = set(uris)
    if not targets:
        return pd.DataFrame(columns=["graph", "subj", "pred", "obj"])

    def f(t):
        import pyarrow as pa

        m = pc.is_in(t["subj"], value_set=pa.array(sorted(targets)))
        if graph is not None:
            m = pc.and_(m, pc.equal(t["graph"], graph))
        return t.filter(m).select(["graph", "subj", "pred", "obj"])

    out = triples_ds.map_batches(f, batch_format="pyarrow").to_pandas()
    if len(out.columns) == 0:      # zero matches → Ray yields a columnless
        out = pd.DataFrame(columns=["graph", "subj", "pred", "obj"])
    return out.drop_duplicates().reset_index(drop=True)


def describe_text_distributed(triples_ds, query: str,
                              graph: str | None = None):
    """DESCRIBE on the Dataset scale path: described-variable bindings
    come from select_text_distributed, their distinct values semi-join
    the triples on subject (ops.semi_join's bucketed exchange — the
    target set never lands on the driver); explicit URIs use the
    broadcast is_in fast path. Returns a Dataset of
    (graph, subj, pred, obj) with the driver twin's set semantics."""
    toks = _tokenize(query)
    i = _past_prefixes(toks)
    if toks[i].upper() != "DESCRIBE":
        raise SparqlSyntaxError("not a DESCRIBE query")
    prefixes = _collect_prefixes(toks)
    j = i + 1
    uris: list[str] = []
    vars_: list[str] = []
    while j < len(toks) and toks[j] != "{" and toks[j].upper() != "WHERE":
        t = toks[j]
        if t.startswith("?"):
            vars_.append(t[1:])
        elif t == "*":
            raise SparqlSyntaxError("DESCRIBE * unsupported")
        else:
            uris.append(_expand_term(_parse_term(t, prefixes), graph))
        j += 1

    def scan(t, targets=None):
        import pyarrow as pa

        cols = t.select(["graph", "subj", "pred", "obj"])
        m = None
        if targets is not None:
            m = pc.is_in(cols["subj"], value_set=pa.array(sorted(targets)))
        if graph is not None:
            g = pc.equal(cols["graph"], graph)
            m = g if m is None else pc.and_(m, g)
        return cols if m is None else cols.filter(m)

    if vars_:
        from .ops import semi_join

        rewritten = " ".join(toks[:i] + ["SELECT"] +
                             ["?" + v for v in vars_] + toks[j:])
        bindings = select_text_distributed(triples_ds, rewritten,
                                           graph=graph)
        targets_ds = None
        for v in vars_:
            part = bindings.map_batches(
                lambda df, v=v: df[[v]].dropna().rename(
                    columns={v: "subj"}).drop_duplicates(),
                batch_format="pandas")
            targets_ds = part if targets_ds is None \
                else targets_ds.union(part)
        base = triples_ds.map_batches(scan, batch_format="pyarrow")
        out = semi_join(base, targets_ds, left_key="subj",
                        right_key="subj")
    else:
        if not uris:
            import ray.data as rd

            return rd.from_pandas(pd.DataFrame(
                columns=["graph", "subj", "pred", "obj"]))
        tset = set(uris)
        out = triples_ds.map_batches(
            lambda t, ts=tset: scan(t, targets=ts), batch_format="pyarrow")

    from .ops import distinct_rows

    return distinct_rows(out, ["graph", "subj", "pred", "obj"], 32)


def query_text(triples_ds, query: str, graph: str | None = None):
    """One entry point for all four SPARQL query forms (the reference's
    SparqlController surface): SELECT → binding frame, ASK → bool,
    CONSTRUCT/DESCRIBE → triples frame."""
    form = query_form(query)
    fn = {"SELECT": select_text, "ASK": ask_text,
          "CONSTRUCT": construct_text, "DESCRIBE": describe_text}[form]
    return fn(triples_ds, query, graph=graph)


def query_text_distributed(triples_ds, query: str,
                           graph: str | None = None):
    """Scale-path twin of :func:`query_text`: all four query forms evaluate
    on the Dataset path (bindings never concentrate on the driver).
    SELECT/CONSTRUCT/DESCRIBE return a Dataset, ASK a bool. This is the
    default entry for the CLI — the driver path (:func:`query_text`) is
    the readable oracle twin."""
    form = query_form(query)
    fn = {"SELECT": select_text_distributed, "ASK": ask_text_distributed,
          "CONSTRUCT": construct_text_distributed,
          "DESCRIBE": describe_text_distributed}[form]
    return fn(triples_ds, query, graph=graph)


def aggregate_distributed(triples_ds, patterns: list[tuple],
                          group_vars: list[str], agg: str = "count",
                          arg_var: str | None = None, alias: str = "n",
                          graph: str | None = None):
    """Distributed SPARQL GROUP BY aggregate (the §11 scale path): the BGP
    runs through select_distributed (bindings never materialize on the
    driver), then a two-phase aggregate — per-batch partial combine inside
    ``map_batches`` followed by ONE bucketed shuffle on the group key
    (``ops.bucket_exchange``; Ray's multi-key
    groupby().aggregate() is ~20× slower at high cardinality, see
    CLAUDE.md invariant 4). ``agg``: "count" (COUNT(*)), or
    "sum"/"avg"/"min"/"max" over ?arg_var (numeric coercion; AVG ships
    mergeable (sum, count) partials). Returns a Dataset of
    group_vars + alias."""
    if agg not in ("count", "sum", "avg", "min", "max"):
        raise ValueError(f"unsupported distributed aggregate {agg!r}")
    if agg != "count" and arg_var is None:
        raise ValueError(f"{agg} needs arg_var")
    ds = select_distributed(triples_ds, patterns, graph=graph)
    return _aggregate_binding_ds(ds, group_vars, agg, arg_var, alias)


def _aggregate_binding_ds(ds, group_vars: list[str], agg: str,
                          arg_var: str | None, alias: str):
    """Two-phase distributed aggregate over a binding Dataset: per-batch
    partial combine, then ONE bucket exchange on the group key."""
    gv = [v.lstrip("?") for v in group_vars]
    a = arg_var.lstrip("?") if arg_var else None
    partial_cols = ["__s", "__c"] if agg == "avg" else [alias]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(columns=gv + partial_cols)
        if agg == "count":
            out = df.groupby(gv, sort=False, as_index=False).size()
            return out.rename(columns={"size": alias})
        tmp = df[gv].copy()
        tmp["__v"] = pd.to_numeric(df[a], errors="coerce")
        g = tmp.groupby(gv, sort=False, as_index=False)
        if agg == "sum":
            return g["__v"].sum().rename(columns={"__v": alias})
        if agg == "min":
            return g["__v"].min().rename(columns={"__v": alias})
        if agg == "max":
            return g["__v"].max().rename(columns={"__v": alias})
        out = g["__v"].agg(["sum", "count"])
        return out.rename(columns={"sum": "__s", "count": "__c"})

    from .ops import bucket_exchange

    def merge_group(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(gv, sort=False, as_index=False)
        if agg in ("count", "sum"):
            out = g[alias].sum()
            if agg == "count":
                out[alias] = out[alias].astype("int64")
            return out
        if agg == "min":
            return g[alias].min()
        if agg == "max":
            return g[alias].max()
        out = g[["__s", "__c"]].sum()
        out[alias] = out["__s"] / out["__c"]
        return out.drop(columns=["__s", "__c"])

    return bucket_exchange(ds.map_batches(partial, batch_format="pandas"),
                           gv, merge_group, 32, "pandas")


def _one_agg_det(sub: pd.DataFrame, spec: dict):
    """Deterministic distributed variant of :func:`_one_agg` for the
    order-sensitive aggregates: after a shuffle the within-group row
    order is arrival order, so GROUP_CONCAT joins values in codepoint
    order and SAMPLE returns the codepoint-min value. SPARQL leaves both
    orders unspecified (§18.5.1.7 / §18.5.1.13); the driver path keeps
    binding-frame order, this path pins a sorted one so answers are
    stable run to run."""
    func, arg = spec["func"], spec["arg"]
    if func == "GROUP_CONCAT":
        s = sub[arg[1:]].dropna().astype(str)
        if spec["distinct"]:
            s = s.drop_duplicates()
        sep = spec.get("separator")
        return (" " if sep is None else sep).join(sorted(s))
    if func == "SAMPLE":
        s = sub[arg[1:]].dropna()
        if not len(s):
            return None
        pick = s.astype(str).sort_values(kind="mergesort").index[0]
        return s.loc[pick]
    return _one_agg(sub, spec)


def _aggregate_binding_ds_full(ds, plan: dict):
    """General distributed GROUP BY + aggregates + HAVING over a binding
    Dataset — the scale twin of :func:`_apply_aggregates` (§11).

    Two execution shapes, both ONE bucket exchange on the group
    key (CLAUDE.md invariant 4 — never Ray's multi-key aggregate at
    high cardinality):

      * every aggregate mergeable (COUNT/SUM/AVG non-DISTINCT, MIN/MAX
        with or without DISTINCT — DISTINCT never changes a min/max) →
        per-batch partial combine, shuffle carries one row per
        (group, batch), merge folds the partials;
      * any order/identity-sensitive aggregate (COUNT/SUM/AVG DISTINCT,
        GROUP_CONCAT, SAMPLE) → the batch projects to the group + arg
        columns only (narrow rows), the shuffle co-locates each group
        whole, and the merge runs the driver kernels per group
        (GROUP_CONCAT/SAMPLE pinned deterministic, _one_agg_det).

    HAVING evaluates inside the merge (each group is complete there).
    Dtype divergence from the driver path, documented: distributed SUM
    and AVG are always float64 (the driver casts an all-integral SUM
    column to int64, a whole-column decision a per-bucket merge cannot
    make); COUNT is int64 on both."""
    from .ops import bucket_exchange

    gv = list(plan["group_by"])
    specs = [dict(s) for s in plan["aggregates"]]
    havings = plan.get("havings", [])
    hidden: list[str] = []
    for n, h in enumerate(hv for hv in havings if "func" in hv):
        specs.append({"func": h["func"], "arg": h["arg"],
                      "distinct": h.get("distinct", False),
                      "alias": f"__h{n}", "separator": None, "_having": h})
        hidden.append(f"__h{n}")
    if not specs:                       # bare GROUP BY → distinct keys
        specs.append({"func": "COUNT", "arg": "*", "distinct": False,
                      "alias": "__n", "separator": None})
        hidden.append("__n")

    def mergeable(s: dict) -> bool:
        if s["func"] in ("MIN", "MAX"):
            return True
        return s["func"] in ("COUNT", "SUM", "AVG") and not s["distinct"]

    all_mergeable = all(mergeable(s) for s in specs)
    arg_cols = sorted({s["arg"][1:] for s in specs if s["arg"] != "*"})

    aggmap: dict[str, str] = {}
    if all_mergeable:
        for s in specs:
            a = s["alias"]
            if s["func"] == "COUNT":
                aggmap[f"__{a}_n"] = "sum"
            elif s["func"] in ("SUM", "AVG"):
                aggmap[f"__{a}_s"] = "sum"
                if s["func"] == "AVG":
                    aggmap[f"__{a}_c"] = "sum"
            else:                        # MIN / MAX
                mm = "min" if s["func"] == "MIN" else "max"
                aggmap[f"__{a}_vn"] = mm
                aggmap[f"__{a}_vs"] = mm
                aggmap[f"__{a}_nn"] = "sum"
                aggmap[f"__{a}_nm"] = "sum"

    def _reduce(tmp: pd.DataFrame) -> pd.DataFrame:
        if gv:
            return tmp.groupby(gv, sort=False, as_index=False,
                               dropna=False).agg(aggmap)
        return pd.DataFrame([{c: (tmp[c].sum() if how == "sum"
                                  else getattr(tmp[c].dropna(), how)()
                                  if tmp[c].notna().any() else None)
                              for c, how in aggmap.items()}])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(columns=gv + list(aggmap))
        tmp = df[gv].copy() if gv else pd.DataFrame(index=df.index)
        for s in specs:
            a, arg = s["alias"], s["arg"]
            if s["func"] == "COUNT":
                tmp[f"__{a}_n"] = (np.ones(len(df), dtype="int64")
                                   if arg == "*" else
                                   df[arg[1:]].notna().astype("int64"))
            elif s["func"] in ("SUM", "AVG"):
                v = pd.to_numeric(df[arg[1:]], errors="coerce")
                tmp[f"__{a}_s"] = v.fillna(0.0).astype("float64")
                if s["func"] == "AVG":
                    tmp[f"__{a}_c"] = v.notna().astype("int64")
            else:                        # MIN / MAX (driver semantics:
                col = df[arg[1:]]        # numeric order iff all coerce)
                v = pd.to_numeric(col, errors="coerce")
                tmp[f"__{a}_vn"] = v.astype("float64")
                tmp[f"__{a}_vs"] = col.astype(str).where(col.notna())
                tmp[f"__{a}_nn"] = col.notna().astype("int64")
                tmp[f"__{a}_nm"] = v.notna().astype("int64")
        return _reduce(tmp)

    def _finalize(m: pd.DataFrame) -> pd.DataFrame:
        out = m[gv].copy() if gv else pd.DataFrame(index=m.index)
        for s in specs:
            a = s["alias"]
            if s["func"] == "COUNT":
                out[a] = m[f"__{a}_n"].astype("int64")
            elif s["func"] == "SUM":
                out[a] = m[f"__{a}_s"].astype("float64")
            elif s["func"] == "AVG":
                c = m[f"__{a}_c"]
                out[a] = np.where(c > 0, m[f"__{a}_s"] / c.replace(0, 1),
                                  np.nan)
            else:
                nn, nm = m[f"__{a}_nn"], m[f"__{a}_nm"]
                use_num = (nn > 0) & (nm == nn)
                out[a] = m[f"__{a}_vs"].astype(object)
                out.loc[use_num, a] = m.loc[use_num, f"__{a}_vn"]
                out.loc[nn == 0, a] = None
        return out

    def merge_values(df: pd.DataFrame) -> pd.DataFrame:
        groups = (df.groupby(gv, sort=False, dropna=False) if gv
                  else [((), df)])
        rows = []
        for key, sub in groups:
            key = key if isinstance(key, tuple) else (key,)
            row = dict(zip(gv, key))
            for s in specs:
                row[s["alias"]] = _one_agg_det(sub, s)
            rows.append(row)
        out = pd.DataFrame(rows, columns=gv + [s["alias"] for s in specs])
        for s in specs:
            a = s["alias"]
            if s["func"] == "COUNT":
                out[a] = out[a].astype("int64")
            elif s["func"] in ("SUM", "AVG"):
                out[a] = pd.to_numeric(out[a], errors="coerce") \
                    .astype("float64")
        return out

    def _post(out: pd.DataFrame) -> pd.DataFrame:
        for h in havings:                # each group complete here (§11.5)
            col = h["alias"] if "alias" in h else next(
                s["alias"] for s in specs if s.get("_having") is h)
            v = pd.to_numeric(out[col], errors="coerce")
            mask = {"=": v == h["rhs"], "!=": v != h["rhs"],
                    "<": v < h["rhs"], "<=": v <= h["rhs"],
                    ">": v > h["rhs"], ">=": v >= h["rhs"]}[h["op"]]
            out = out[mask.fillna(False)]
        out = out.drop(columns=[c for c in hidden if c in out.columns])
        proj = plan.get("projection")
        return out[proj] if proj else out

    # no group key (a global aggregate): every row in one bucket
    if all_mergeable:
        return bucket_exchange(
            ds.map_batches(partial, batch_format="pandas"), gv,
            lambda df: _post(_finalize(_reduce(df))), 32, "pandas")

    keep = gv + [c for c in arg_cols if c not in gv]

    def project(df: pd.DataFrame) -> pd.DataFrame:
        return df[keep] if keep else df

    return bucket_exchange(ds.map_batches(project, batch_format="pandas"),
                           gv, lambda df: _post(merge_values(df)), 32,
                           "pandas")


def construct_distributed(triples_ds, template: list[tuple],
                          patterns: list[tuple],
                          graph: str | None = None):
    """Distributed CONSTRUCT (§16.2 scale path): bindings come from
    select_distributed (never on the driver), each batch instantiates
    the template vectorized, and the graph's set semantics come from one
    bucket-exchange dedup. Returns a Dataset of (subj, pred, obj).

    ``template`` entries are (s, p, o) with ``?var`` or bound terms —
    the same shape select_distributed takes."""
    ds = select_distributed(triples_ds, patterns, graph=graph)
    return _construct_from_bindings_ds(ds, template, graph)


def construct_text_distributed(triples_ds, query: str,
                               graph: str | None = None):
    """CONSTRUCT query string on the Dataset scale path: the WHERE block
    evaluates through select_text_distributed (so OPTIONAL/UNION/VALUES/
    EXISTS/GRAPH/paths all work), template instantiation is per-batch
    vectorized, set semantics via one bucketed dedup shuffle."""
    template, rewritten = _parse_construct(query)
    ds = select_text_distributed(triples_ds, rewritten, graph=graph)
    return _construct_from_bindings_ds(ds, template, graph)


def ask_text_distributed(triples_ds, query: str,
                         graph: str | None = None) -> bool:
    """ASK on the scale path: rewrite to SELECT * LIMIT 1 and test for a
    row — only the (bounded) single-row prefix ever materializes."""
    toks = _tokenize(query)
    i = _past_prefixes(toks)
    if toks[i].upper() != "ASK":
        raise SparqlSyntaxError("not an ASK query")
    rewritten = " ".join(toks[:i] + ["SELECT", "*"] + toks[i + 1:]
                         + ["LIMIT", "1"])
    return len(select_text_distributed(triples_ds, rewritten,
                                       graph=graph).take(1)) > 0


def _construct_from_bindings_ds(ds, template: list[tuple],
                                graph: str | None):
    tmpl = [tuple(t) for t in template]

    def instantiate(df: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for s, p, o in tmpl:
            cols = {}
            for name, t in (("subj", s), ("pred", p), ("obj", o)):
                if _is_var(t):
                    v = t[1:]
                    if v not in df.columns:
                        raise SparqlSyntaxError(
                            f"template variable ?{v} not bound in WHERE")
                    cols[name] = df[v]
                else:
                    cols[name] = pd.Series(
                        [_expand_term(t, graph)] * len(df), dtype=object,
                        index=df.index)
            frames.append(pd.DataFrame(cols).dropna())
        if not frames:
            return pd.DataFrame(columns=["subj", "pred", "obj"])
        return pd.concat(frames, ignore_index=True)

    from .ops import distinct_rows

    return distinct_rows(ds.map_batches(instantiate, batch_format="pandas"),
                         ["subj", "pred", "obj"], 32)


# ---------------------------------------------------------------------------
# SPARQL 1.1 Update (§3.1) — INSERT/DELETE DATA, DELETE WHERE, the general
# DELETE/INSERT ... WHERE modify form, CLEAR/DROP GRAPH, ';'-sequenced
# operations. Mirrors the reference's Jena-TDB update surface against the
# engine's OWN store (store.py): read → apply → atomic replace-on-store.
# ---------------------------------------------------------------------------

_XSD_URI = "http://www.w3.org/2001/XMLSchema#"


def _obj_literal_info(raw: str) -> tuple[bool, str]:
    """Raw object token → (obj_is_literal, obj_dtype) using the engine's
    triple vocabulary ("xsd:..." CURIEs; "" for IRIs)."""
    if raw.startswith('"'):
        m = _re.search(r'\^\^(<[^>]*>|[A-Za-z_][\w.-]*:[\w.-]+)$', raw)
        if m:
            d = m.group(1)
            d = d[1:-1] if d.startswith("<") else d
            return True, d.replace(_XSD_URI, "xsd:")
        return True, "xsd:string"
    if _re.match(r"^-?\d+$", raw):
        return True, "xsd:integer"
    if _re.match(r"^-?\d+\.\d+$", raw):
        return True, "xsd:decimal"
    return False, ""


def _parse_quad_block(toks: list[str], prefixes: dict, allow_vars: bool):
    """Quad-block tokens → list of (g, s, p, o, o_raw); g is None for the
    default graph or the parsed GRAPH term (a ?var stays a var)."""
    quads = []
    k = 0
    while k < len(toks):
        t = toks[k]
        if t == ".":
            k += 1
            continue
        if t.upper() == "GRAPH":
            if k + 2 >= len(toks) or toks[k + 2] != "{":
                raise SparqlSyntaxError("GRAPH needs <g> { ... }")
            gterm = toks[k + 1] if toks[k + 1].startswith("?") \
                else _parse_term(toks[k + 1], prefixes)
            depth, j, inner = 1, k + 3, []
            while j < len(toks) and depth:
                if toks[j] == "{":
                    depth += 1
                elif toks[j] == "}":
                    depth -= 1
                    if not depth:
                        break
                inner.append(toks[j])
                j += 1
            if depth:
                raise SparqlSyntaxError("unterminated GRAPH block")
            for _, s, p, o, o_raw in _parse_quad_block(inner, prefixes,
                                                       allow_vars):
                quads.append((gterm, s, p, o, o_raw))
            k = j + 1
            continue
        if k + 2 >= len(toks):
            raise SparqlSyntaxError("dangling terms in quad block")
        parsed = []
        for tok in (toks[k], toks[k + 1], toks[k + 2]):
            if tok.startswith("?"):
                if not allow_vars:
                    raise SparqlSyntaxError(
                        "variables are not allowed in a DATA block")
                parsed.append(tok)
            else:
                parsed.append(_parse_term(tok, prefixes))
        quads.append((None, parsed[0], parsed[1], parsed[2], toks[k + 2]))
        k += 3
    return quads


def _take_block(toks: list[str], i: int) -> tuple[list[str], int]:
    """toks[i] must be '{'; returns (inner tokens, index past the '}')."""
    if i >= len(toks) or toks[i] != "{":
        raise SparqlSyntaxError("expected '{'")
    depth, j, inner = 1, i + 1, []
    while j < len(toks) and depth:
        if toks[j] == "{":
            depth += 1
        elif toks[j] == "}":
            depth -= 1
            if not depth:
                break
        inner.append(toks[j])
        j += 1
    if depth:
        raise SparqlSyntaxError("unterminated block")
    return inner, j + 1


def parse_update(update: str) -> list[dict]:
    """Update string → list of operation dicts (sequential, ';'-split):
    {op: insert_data|delete_data|modify|clear, ...}."""
    toks = _tokenize(update)
    prefixes = _collect_prefixes(toks)
    i = _past_prefixes(toks)
    prologue = toks[:i]
    ops: list[dict] = []
    while i < len(toks):
        if toks[i] == ";":
            i += 1
            continue
        kw = toks[i].upper()
        if kw in ("INSERT", "DELETE") and i + 1 < len(toks) \
                and toks[i + 1].upper() == "DATA":
            inner, i = _take_block(toks, i + 2)
            ops.append({"op": f"{kw.lower()}_data",
                        "quads": _parse_quad_block(inner, prefixes,
                                                   allow_vars=False)})
        elif kw == "DELETE" and i + 1 < len(toks) \
                and toks[i + 1].upper() == "WHERE":
            inner, i = _take_block(toks, i + 2)
            quads = _parse_quad_block(inner, prefixes, allow_vars=True)
            ops.append({"op": "modify", "delete": quads, "insert": [],
                        "where": inner, "prologue": prologue})
        elif kw in ("DELETE", "INSERT"):
            # general modify: DELETE { } [INSERT { }] WHERE { }
            delete_q, insert_q = [], []
            while i < len(toks) and toks[i].upper() in ("DELETE",
                                                        "INSERT"):
                which = toks[i].upper()
                inner, i = _take_block(toks, i + 1)
                quads = _parse_quad_block(inner, prefixes,
                                          allow_vars=True)
                if which == "DELETE":
                    delete_q = quads
                else:
                    insert_q = quads
            if i >= len(toks) or toks[i].upper() != "WHERE":
                raise SparqlSyntaxError("modify needs WHERE { ... }")
            inner, i = _take_block(toks, i + 1)
            ops.append({"op": "modify", "delete": delete_q,
                        "insert": insert_q, "where": inner,
                        "prologue": prologue})
        elif kw in ("CLEAR", "DROP"):
            if i + 1 < len(toks) and toks[i + 1].upper() == "GRAPH":
                g = _parse_term(toks[i + 2], prefixes)
                i += 3
            elif i + 1 < len(toks) and toks[i + 1].upper() in ("ALL",
                                                               "DEFAULT"):
                g = None
                i += 2
            else:
                raise SparqlSyntaxError(f"{kw} needs GRAPH <g>/ALL")
            ops.append({"op": "clear", "graph": g})
        else:
            raise SparqlSyntaxError(f"unknown update operation {toks[i]!r}")
    if not ops:
        raise SparqlSyntaxError("empty update")
    return ops


_TRIPLE_COLS = ["subj", "pred", "obj", "obj_is_literal", "obj_dtype",
                "graph"]


def _quad_rows(quads, bindings: pd.DataFrame | None,
               graph: str | None,
               mark_grounded: bool = False) -> pd.DataFrame:
    """Ground (or instantiate against ``bindings``) quads → triple rows
    in the engine schema. Unbound-variable instantiations drop
    (§16.2-style), NULL bindings too. ``mark_grounded`` appends a
    ``__obj_grounded`` bool column: True where the object term was
    written literally in the template (typing is exact), False where it
    was instantiated from a string binding (typing is heuristic — the
    delete path must then match lexically, not term-exactly)."""
    frames = []
    n = 1 if bindings is None else len(bindings)
    for g, s, p, o, o_raw in quads:
        cols = {}
        for name, term in (("graph", g), ("subj", s), ("pred", p),
                           ("obj", o)):
            if isinstance(term, str) and term.startswith("?"):
                if bindings is None or term[1:] not in bindings.columns:
                    cols = None
                    break
                cols[name] = bindings[term[1:]].reset_index(drop=True)
            elif name == "graph":
                cols[name] = pd.Series([term if term is not None
                                        else (graph or "")] * n)
            else:
                cols[name] = pd.Series([_expand_term(term, graph)] * n)
        if cols is None:
            continue
        df = pd.DataFrame(cols).dropna()
        if isinstance(o, str) and o.startswith("?"):
            # instantiated object: engine bindings are plain strings —
            # conservative typing (string literal) unless it's a URI
            is_uri = df["obj"].astype(str).str.startswith(
                ("http://", "https://"))
            df["obj_is_literal"] = ~is_uri
            df["obj_dtype"] = np.where(is_uri, "", "xsd:string")
            grounded = False
        else:
            lit, dt = _obj_literal_info(o_raw)
            df["obj_is_literal"] = lit
            df["obj_dtype"] = dt
            grounded = True
        cols_out = list(_TRIPLE_COLS)
        if mark_grounded:
            df["__obj_grounded"] = grounded
            cols_out = cols_out + ["__obj_grounded"]
        frames.append(df[cols_out])
    if not frames:
        return pd.DataFrame(columns=_TRIPLE_COLS + (
            ["__obj_grounded"] if mark_grounded else []))
    return pd.concat(frames, ignore_index=True).drop_duplicates()


def apply_update(triples_df: pd.DataFrame, update: str,
                 graph: str | None = None) -> pd.DataFrame:
    """Apply a SPARQL update to a triples frame → new frame (pure
    function; :func:`update_store` wraps it with the store's atomic
    replace-on-store). ``graph`` names the default graph for quads
    outside GRAPH blocks and for WHERE evaluation."""
    import ray.data as rd

    df = triples_df[_TRIPLE_COLS].copy()

    def _term_key(f: pd.DataFrame) -> pd.Series:
        # term-exact key: a literal "x" and an IRI <x> share a lexical
        # form but are DIFFERENT terms, as are typed literals with the
        # same lexical form — obj_is_literal/obj_dtype must participate
        # in every insert-dedup and delete match (ADVICE r04)
        return (f["graph"].astype(str) + "\x1f" + f["subj"]
                + "\x1f" + f["pred"] + "\x1f" + f["obj"].astype(str)
                + "\x1f" + f["obj_is_literal"].astype(str)
                + "\x1f" + f["obj_dtype"].astype(str))

    _TERM_SUBSET = ["graph", "subj", "pred", "obj",
                    "obj_is_literal", "obj_dtype"]

    def _lex_key(f: pd.DataFrame) -> pd.Series:
        return (f["graph"].astype(str) + "\x1f" + f["subj"]
                + "\x1f" + f["pred"] + "\x1f" + f["obj"].astype(str))

    def _delete_rows(d: pd.DataFrame, rm: pd.DataFrame) -> pd.DataFrame:
        """Remove rm's triples term-exactly where the template object
        was grounded; lexically where it was a variable instantiation
        (string bindings carry no datatype to match on)."""
        g_rm = rm[rm["__obj_grounded"]]
        v_rm = rm[~rm["__obj_grounded"]]
        mask = _term_key(d).isin(set(_term_key(g_rm))) if len(g_rm) \
            else pd.Series(False, index=d.index)
        if len(v_rm):
            mask |= _lex_key(d).isin(set(_lex_key(v_rm)))
        return d[~mask].reset_index(drop=True)
    for op in parse_update(update):
        if op["op"] == "insert_data":
            add = _quad_rows(op["quads"], None, graph)
            df = pd.concat([df, add], ignore_index=True) \
                .drop_duplicates(subset=_TERM_SUBSET) \
                .reset_index(drop=True)
        elif op["op"] == "delete_data":
            rm = _quad_rows(op["quads"], None, graph, mark_grounded=True)
            df = _delete_rows(df, rm)
        elif op["op"] == "clear":
            if op["graph"] is None:
                df = df.iloc[0:0]
            else:
                df = df[df["graph"] != op["graph"]].reset_index(drop=True)
        else:                                  # modify
            q = " ".join(op["prologue"] + ["SELECT", "*", "WHERE", "{"]
                         + op["where"] + ["}"])
            bindings = select_text(rd.from_pandas(df) if len(df)
                                   else rd.from_pandas(
                                       pd.DataFrame(columns=_TRIPLE_COLS)),
                                   q, graph=graph)
            if len(bindings):
                rm = _quad_rows(op["delete"], bindings, graph,
                                mark_grounded=True)
                if len(rm):
                    df = _delete_rows(df, rm)
                add = _quad_rows(op["insert"], bindings, graph)
                if len(add):
                    df = pd.concat([df, add], ignore_index=True) \
                        .drop_duplicates(subset=_TERM_SUBSET) \
                        .reset_index(drop=True)
    return df


def update_store(root: str, update: str, graph: str | None = None) -> dict:
    """SPARQL update against the engine's store: read → apply → write
    back through the store's atomic replace-on-store; graphs emptied by
    the update get their partitions dropped. Returns {graph: rows}
    after the update. Driver-bounded by the affected store size — the
    per-graph partition rewrite is the same unit the reference's TDB
    transaction covers."""
    import os
    import shutil as _shutil

    import ray.data as rd

    from . import store as _store

    before = set(_store.list_graphs(root))
    frames = [(_store.read_store(root, graph=g).to_pandas())
              for g in sorted(before)]
    df = pd.concat(frames, ignore_index=True) if frames else \
        pd.DataFrame(columns=_TRIPLE_COLS)
    new = apply_update(df, update, graph=graph)
    after_graphs = set(new["graph"].unique())
    if len(new):
        _store.write_store(rd.from_pandas(new[_TRIPLE_COLS]), root)
    for g in sorted(before - after_graphs):
        part = os.path.join(root, _store._PART_PREFIX + _store._esc(g))
        _shutil.rmtree(part, ignore_errors=True)
    return {g: int(c) for g, c in
            new.groupby("graph").size().items()}
