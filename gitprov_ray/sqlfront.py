"""SQL front door: a SELECT subset compiled to Ray Dataset pipelines.

The reference exposes one query language (SPARQL — sparql_lite covers
it end to end); this module adds the tabular twin so the engine's
parquet tables are queryable without writing pipeline code:

    sql_query("SELECT lang, COUNT(*) AS n FROM documents "
              "WHERE n_chars > 100 GROUP BY lang ORDER BY n DESC",
              tables={"documents": ds_or_path})

Supported surface (documented subset, hard errors beyond it):
  * SELECT projections/expressions with AS aliases, *, DISTINCT,
    CASE WHEN, scalar functions (LENGTH/LOWER/UPPER/ABS/ROUND
    half-away/SUBSTR/COALESCE);
  * aggregates COUNT(*) / COUNT(col) / COUNT(DISTINCT expr) —
    exact: the partial groups on the GROUP BY keys plus each distinct
    argument, and the combine counts the argument's distinct non-NULL
    values per group — / SUM / MIN / MAX / AVG, plain or
    per GROUP BY keys, with HAVING (aggregates compose inside
    expressions and functions);
  * WHERE with AND/OR/NOT, comparisons, arithmetic (+ - * / %),
    IN (...) / IN (SELECT ...) / NOT IN, BETWEEN, LIKE;
  * INNER / LEFT / RIGHT / FULL [OUTER] JOIN ... ON a.col = b.col
    (equality; composable; SQL-consistent NULL behavior on the outer
    sides);
  * UNION ALL chains with trailing ORDER BY/LIMIT;
  * window functions — ROW_NUMBER/RANK/DENSE_RANK, LAG/LEAD, running
    SUM/MIN/MAX/COUNT/AVG with the default frame's peer inclusion —
    over PARTITION BY + multi-key ORDER BY (presentation-sized stage:
    window results are row-per-input-row);
  * ORDER BY [ASC|DESC] multi-key (columns or expressions), LIMIT
    (pushed into the stream when no ORDER BY requires a total order).

Compilation is Ray-Data-first: column pruning at the read (only
referenced columns are scanned), WHERE as a vectorized pandas
map_batches filter, GROUP BY as per-batch partial aggregation + ONE
bucketed exchange (the engine's standard high-cardinality pattern —
never Ray's slow multi-key aggregate), joins through Dataset.join with
block normalization between chained joins (invariant 7/11), ORDER
BY/LIMIT as sort + limit. Differential tests run generated query
batteries against DuckDB on the same parquet.

NULLs arise only from LEFT JOIN; aggregate/WHERE behavior over them
follows SQL (pandas skipna + NaN-comparison semantics coincide).
General nullable-input queries belong to the oracle, not this front
door.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

_KEYWORDS = {"select", "from", "where", "group", "by", "having",
             "order", "limit", "as", "and", "or", "not", "in",
             "between", "like", "join", "on", "inner", "left", "outer",
             "right", "full",
             "asc", "desc", "distinct", "case", "when", "then", "else",
             "end", "over", "partition"}
_AGGS = {"count", "sum", "min", "max", "avg"}
_FNS = {"length", "lower", "upper", "abs", "round", "substr",
        "substring", "coalesce"}
_WINFNS = {"row_number", "rank", "dense_rank", "lag", "lead"}

_TOKEN_RE = re.compile(r"""
    \s*(?:
      (?P<num>\d+\.\d+|\d+)
    | (?P<str>'(?:[^']|'')*')
    | (?P<op><=|>=|<>|!=|=|<|>|\(|\)|,|\*|\+|-|/|%|\.)
    | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
    )""", re.X)


def _tokenize(sql: str):
    out = []
    pos = 0
    while pos < len(sql):
        m = _TOKEN_RE.match(sql, pos)
        if not m:
            if sql[pos:].strip() == "":
                break
            raise ValueError(f"SQL: cannot tokenize at {sql[pos:pos+20]!r}")
        pos = m.end()
        if m.group("num"):
            out.append(("num", m.group("num")))
        elif m.group("str"):
            out.append(("str", m.group("str")[1:-1].replace("''", "'")))
        elif m.group("op"):
            out.append(("op", m.group("op")))
        else:
            w = m.group("ident")
            out.append(("kw", w.lower()) if w.lower() in _KEYWORDS
                       or w.lower() in _AGGS else ("ident", w))
    return out


class _P:
    def __init__(self, toks):
        self.t = toks
        self.i = 0

    def peek(self, k=0):
        return self.t[self.i + k] if self.i + k < len(self.t) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise ValueError("SQL: unexpected end of query")
        self.i += 1
        return t

    def eat_kw(self, *kws):
        t = self.peek()
        if t and t[0] == "kw" and t[1] in kws:
            self.i += 1
            return t[1]
        return None

    def expect_kw(self, kw):
        if not self.eat_kw(kw):
            raise ValueError(f"SQL: expected {kw.upper()} at {self.peek()}")

    def eat_op(self, op):
        t = self.peek()
        if t and t[0] == "op" and t[1] == op:
            self.i += 1
            return True
        return False

    def expect_op(self, op):
        if not self.eat_op(op):
            raise ValueError(f"SQL: expected {op!r} at {self.peek()}")


# expression AST: ("col", name) ("lit", v) ("bin", op, l, r)
# ("un", "not"/"neg", e) ("in", e, [lits]) ("between", e, lo, hi)
# ("like", e, pat) ("agg", fn, arg_or_None)

def _parse_expr(p: _P):
    return _parse_or(p)


def _parse_or(p):
    e = _parse_and(p)
    while p.eat_kw("or"):
        e = ("bin", "or", e, _parse_and(p))
    return e


def _parse_and(p):
    e = _parse_not(p)
    while p.eat_kw("and"):
        e = ("bin", "and", e, _parse_not(p))
    return e


def _parse_not(p):
    if p.eat_kw("not"):
        return ("un", "not", _parse_not(p))
    return _parse_cmp(p)


def _parse_cmp(p):
    e = _parse_add(p)
    t = p.peek()
    if t and t[0] == "op" and t[1] in ("=", "<>", "!=", "<", "<=", ">",
                                       ">="):
        p.next()
        return ("bin", "<>" if t[1] == "!=" else t[1], e, _parse_add(p))
    neg = False
    if p.peek() and p.peek() == ("kw", "not"):
        nxt = p.peek(1)
        if nxt and nxt[0] == "kw" and nxt[1] in ("in", "between",
                                                 "like"):
            p.next()
            neg = True
    if p.eat_kw("in"):
        p.expect_op("(")
        if p.peek() == ("kw", "select"):
            sub = _parse_select_body(p)
            p.expect_op(")")
            e = ("insub", e, sub)
            return ("un", "not", e) if neg else e
        lits = [_parse_add(p)]
        while p.eat_op(","):
            lits.append(_parse_add(p))
        p.expect_op(")")
        e = ("in", e, lits)
        return ("un", "not", e) if neg else e
    if p.eat_kw("between"):
        lo = _parse_add(p)
        p.expect_kw("and")
        hi = _parse_add(p)
        e = ("between", e, lo, hi)
        return ("un", "not", e) if neg else e
    if p.eat_kw("like"):
        pat = _parse_add(p)
        if pat[0] != "lit" or not isinstance(pat[1], str):
            raise ValueError("SQL: LIKE needs a string literal")
        e = ("like", e, pat[1])
        return ("un", "not", e) if neg else e
    return e


def _parse_add(p):
    e = _parse_mul(p)
    while True:
        t = p.peek()
        if t and t[0] == "op" and t[1] in ("+", "-"):
            p.next()
            e = ("bin", t[1], e, _parse_mul(p))
        else:
            return e


def _parse_mul(p):
    e = _parse_unary(p)
    while True:
        t = p.peek()
        if t and t[0] == "op" and t[1] in ("*", "/", "%"):
            p.next()
            e = ("bin", t[1], e, _parse_unary(p))
        else:
            return e


def _parse_unary(p):
    if p.eat_op("-"):
        return ("un", "neg", _parse_unary(p))
    return _parse_atom(p)


def _parse_atom(p):
    if p.eat_kw("case"):
        whens = []
        while p.eat_kw("when"):
            cond = _parse_expr(p)
            p.expect_kw("then")
            whens.append((cond, _parse_expr(p)))
        els = _parse_expr(p) if p.eat_kw("else") else ("lit", None)
        p.expect_kw("end")
        if not whens:
            raise ValueError("SQL: CASE needs at least one WHEN")
        return ("case", whens, els)
    t = p.next()
    if t[0] == "num":
        return ("lit", float(t[1]) if "." in t[1] else int(t[1]))
    if t[0] == "str":
        return ("lit", t[1])
    if t[0] == "op" and t[1] == "(":
        e = _parse_expr(p)
        p.expect_op(")")
        return e
    if t[0] == "kw" and t[1] in _AGGS:
        p.expect_op("(")
        if t[1] == "count" and p.eat_op("*"):
            p.expect_op(")")
            if p.peek() == ("kw", "over"):
                return _parse_over(p, "count", [])
            return ("agg", "count", None)
        if t[1] == "count" and p.eat_kw("distinct"):
            arg = _parse_expr(p)
            p.expect_op(")")
            return ("agg", "countd", arg)
        arg = _parse_expr(p)
        p.expect_op(")")
        if p.peek() == ("kw", "over"):
            return _parse_over(p, t[1], [arg])
        return ("agg", t[1], arg)
    if t[0] == "ident":
        name = t[1]
        if name.lower() in _WINFNS and p.peek() == ("op", "("):
            p.next()
            args = []
            if not p.eat_op(")"):
                args.append(_parse_expr(p))
                while p.eat_op(","):
                    args.append(_parse_expr(p))
                p.expect_op(")")
            return _parse_over(p, name.lower(), args)
        if name.lower() in _FNS and p.peek() == ("op", "("):
            p.next()
            args = [_parse_expr(p)]
            while p.eat_op(","):
                args.append(_parse_expr(p))
            p.expect_op(")")
            return ("fn", name.lower(), args)
        if p.eat_op("."):
            col = p.next()
            if col[0] != "ident":
                raise ValueError("SQL: expected column after '.'")
            return ("col", f"{name}.{col[1]}")
        return ("col", name)
    raise ValueError(f"SQL: unexpected token {t}")


def _parse_over(p: _P, fn: str, args: list):
    """OVER (PARTITION BY cols ORDER BY col [ASC|DESC], ...) →
    ("win", fn, args, part_cols, [(order_col, dir)])."""
    p.expect_kw("over")
    p.expect_op("(")
    part = []
    if p.eat_kw("partition"):
        p.expect_kw("by")
        while True:
            e = _parse_expr(p)
            if e[0] != "col":
                raise ValueError("SQL: PARTITION BY supports columns")
            part.append(e[1])
            if not p.eat_op(","):
                break
    order = []
    if p.eat_kw("order"):
        p.expect_kw("by")
        while True:
            e = _parse_expr(p)
            if e[0] != "col":
                raise ValueError("SQL: window ORDER BY supports columns")
            order.append((e[1], p.eat_kw("asc", "desc") or "asc"))
            if not p.eat_op(","):
                break
    p.expect_op(")")
    return ("win", fn, args, part, order)


def parse_select(sql: str) -> dict:
    p = _P(_tokenize(sql))
    q = _parse_select_body(p)
    unions = []
    while True:
        t = p.peek()
        if t == ("ident", "UNION") or t == ("ident", "union"):
            p.next()
            nxt = p.next()
            if nxt not in (("ident", "ALL"), ("ident", "all")):
                raise ValueError("SQL: only UNION ALL is supported")
            unions.append(_parse_select_body(p))
        else:
            break
    if p.peek() is not None:
        raise ValueError(f"SQL: trailing tokens at {p.peek()}")
    if unions:
        # trailing ORDER BY/LIMIT bind to the whole union (greedy body
        # parsing attaches them to the LAST branch; hoist them here)
        last = unions[-1]
        q = {"union": [q] + unions, "order": last["order"],
             "limit": last["limit"]}
        last["order"], last["limit"] = [], None
    return q


def _parse_select_body(p: _P) -> dict:
    p.expect_kw("select")
    distinct = bool(p.eat_kw("distinct"))
    items = []
    if p.eat_op("*"):
        items.append(("star", None))
    else:
        while True:
            e = _parse_expr(p)
            alias = None
            if p.eat_kw("as"):
                a = p.next()
                if a[0] != "ident":
                    raise ValueError("SQL: expected alias after AS")
                alias = a[1]
            elif p.peek() and p.peek()[0] == "ident":
                alias = p.next()[1]
            items.append((e, alias))
            if not p.eat_op(","):
                break
    p.expect_kw("from")
    base = _parse_table_ref(p)
    joins = []
    while True:
        jtype = "inner"
        if p.eat_kw("left"):
            p.eat_kw("outer")
            jtype = "left_outer"
        elif p.eat_kw("right"):
            p.eat_kw("outer")
            jtype = "right_outer"
        elif p.eat_kw("full"):
            p.eat_kw("outer")
            jtype = "full_outer"
        else:
            p.eat_kw("inner")
        if not p.eat_kw("join"):
            if jtype != "inner":
                raise ValueError("SQL: expected JOIN after join type")
            break
        tbl = _parse_table_ref(p)
        p.expect_kw("on")
        lhs = _parse_add(p)                   # key only — '=' is ours
        t = p.next()
        if t != ("op", "="):
            raise ValueError("SQL: only equality joins supported")
        rhs = _parse_add(p)
        if lhs[0] != "col" or rhs[0] != "col":
            raise ValueError("SQL: join keys must be plain columns")
        joins.append((tbl, lhs[1], rhs[1], jtype))
    where = _parse_expr(p) if p.eat_kw("where") else None
    group = []
    if p.eat_kw("group"):
        p.expect_kw("by")
        while True:
            g = _parse_expr(p)
            # plain columns stay strings (the historical shape); any
            # other expression is kept as its parse tree and
            # materialized as a hidden key column at run time
            group.append(g[1] if g[0] == "col" else g)
            if not p.eat_op(","):
                break
    having = _parse_expr(p) if p.eat_kw("having") else None
    order = []
    if p.eat_kw("order"):
        p.expect_kw("by")
        while True:
            o = _parse_expr(p)
            direction = p.eat_kw("asc", "desc") or "asc"
            order.append((o, direction))
            if not p.eat_op(","):
                break
    limit = None
    if p.eat_kw("limit"):
        t = p.next()
        if t[0] != "num":
            raise ValueError("SQL: LIMIT needs a number")
        limit = int(t[1])
    return {"items": items, "distinct": distinct, "table": base,
            "joins": joins, "where": where, "group": group,
            "having": having, "order": order, "limit": limit}


def _parse_table_ref(p: _P):
    """A table reference: a bare name (returned as str) or a derived
    table ``(SELECT ...) [AS] alias`` (returned as
    ``("derived", subquery_dict, alias)``)."""
    if p.eat_op("("):
        sub = _parse_select_body(p)
        if not p.eat_op(")"):
            raise ValueError("SQL: expected ) closing derived table")
        alias = None
        if p.eat_kw("as"):
            a = p.next()
            if a is None or a[0] != "ident":
                raise ValueError("SQL: expected alias after AS")
            alias = a[1]
        elif p.peek() and p.peek()[0] == "ident" \
                and p.peek()[1].lower() not in ("union", "all"):
            alias = p.next()[1]
        return ("derived", sub, alias)
    t = p.next()
    if t is None or t[0] != "ident":
        raise ValueError("SQL: expected table name after FROM/JOIN")
    return t[1]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _cols_of(e, out: set):
    if e is None:
        return
    k = e[0]
    if k == "col":
        out.add(e[1])
    elif k == "bin":
        _cols_of(e[2], out)
        _cols_of(e[3], out)
    elif k == "un":
        _cols_of(e[2], out)
    elif k == "in":
        _cols_of(e[1], out)
        for lit in e[2]:
            _cols_of(lit, out)
    elif k == "between":
        _cols_of(e[1], out)
        _cols_of(e[2], out)
        _cols_of(e[3], out)
    elif k == "like":
        _cols_of(e[1], out)
    elif k == "case":
        for cond, val in e[1]:
            _cols_of(cond, out)
            _cols_of(val, out)
        _cols_of(e[2], out)
    elif k == "fn":
        for a in e[2]:
            _cols_of(a, out)
    elif k in ("insub", "inset"):
        _cols_of(e[1], out)
    elif k == "win":
        for a in e[2]:
            _cols_of(a, out)
        for c in e[3]:
            out.add(c)
        for c, _ in e[4]:
            out.add(c)
    elif k == "agg" and e[2] is not None:
        _cols_of(e[2], out)


def _like_re(pat: str) -> re.Pattern:
    parts = []
    for c in pat:
        if c == "%":
            parts.append(".*")
        elif c == "_":
            parts.append(".")
        else:
            parts.append(re.escape(c))
    return re.compile("^" + "".join(parts) + "$", re.S)


def _ev(e, df: pd.DataFrame):
    """Vectorized expression evaluation over a pandas frame."""
    k = e[0]
    if k == "lit":
        return e[1]
    if k == "col":
        name = e[1]
        if name in df.columns:
            return df[name]
        short = name.split(".")[-1]
        if short in df.columns:
            return df[short]
        raise ValueError(f"SQL: unknown column {name!r}")
    if k == "un":
        v = _ev(e[2], df)
        return ~v if e[1] == "not" else -v
    if k == "bin":
        op = e[1]
        left = _ev(e[2], df)
        right = _ev(e[3], df)
        if op == "and":
            return left & right
        if op == "or":
            return left | right
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return left / right
        if op == "%":
            # SQL modulo is TRUNCATED (sign of dividend); pandas `%` is
            # floored (sign of divisor). np.fmod implements the SQL rule
            # for both int and float operands (ADVICE r04).
            return np.fmod(left, right)
    if k == "in":
        v = _ev(e[1], df)
        lits = [_ev(x, df) for x in e[2]]
        return v.isin(lits) if isinstance(v, pd.Series) else v in lits
    if k == "inset":
        return _ev(e[1], df).isin(e[2])
    if k == "between":
        v = _ev(e[1], df)
        return (v >= _ev(e[2], df)) & (v <= _ev(e[3], df))
    if k == "like":
        v = _ev(e[1], df)
        rx = _like_re(e[2])
        return v.astype(str).str.match(rx)
    if k == "fn":
        args = [_ev(a, df) for a in e[2]]
        fn = e[1]
        if fn == "length":
            return args[0].astype(str).str.len().astype("int64")
        if fn == "lower":
            return args[0].astype(str).str.lower()
        if fn == "upper":
            return args[0].astype(str).str.upper()
        if fn == "abs":
            return np.abs(args[0])
        if fn == "round":
            nd = int(args[1]) if len(args) > 1 else 0
            v = np.asarray(args[0], np.float64) * (10.0 ** nd)
            r = np.sign(v) * np.floor(np.abs(v) + 0.5)   # half-away
            out = r / (10.0 ** nd)
            return pd.Series(out, index=getattr(args[0], "index", None))
        if fn in ("substr", "substring"):
            s = args[0].astype(str)
            start = int(args[1]) - 1                      # SQL 1-based
            if len(args) > 2:
                return s.str.slice(start, start + int(args[2]))
            return s.str.slice(start)
        if fn == "coalesce":
            out = args[0]
            if not isinstance(out, pd.Series):
                return out
            out = out.copy()
            for a in args[1:]:
                out = out.fillna(a if not isinstance(a, pd.Series)
                                 else a)
            return out
        raise ValueError(f"SQL: unknown function {fn}")
    if k == "case":
        conds = [np.asarray(_ev(c, df), bool) for c, _ in e[1]]
        vals = [_ev(v, df) for _, v in e[1]]
        els = _ev(e[2], df)
        out = np.select(conds, vals,
                        default=els if not isinstance(els, pd.Series)
                        else els.to_numpy())
        return pd.Series(out, index=df.index)
    raise ValueError(f"SQL: cannot evaluate {e!r}")


def _find_aggs(e, acc: list):
    if e is None:
        return
    if e[0] == "agg":
        acc.append(e)
        return
    if e[0] == "bin":
        _find_aggs(e[2], acc)
        _find_aggs(e[3], acc)
    elif e[0] == "un":
        _find_aggs(e[2], acc)
    elif e[0] == "case":
        for cond, val in e[1]:
            _find_aggs(cond, acc)
            _find_aggs(val, acc)
        _find_aggs(e[2], acc)
    elif e[0] == "fn":
        for a in e[2]:
            _find_aggs(a, acc)


def _agg_key(a):
    return f"{a[1]}:{a[2]!r}"


def _subst_aggs(e, vals: dict):
    """Replace agg nodes with computed column refs for HAVING / SELECT
    expressions over aggregates."""
    if e[0] == "agg":
        return ("col", vals[_agg_key(e)])
    if e[0] == "bin":
        return ("bin", e[1], _subst_aggs(e[2], vals),
                _subst_aggs(e[3], vals))
    if e[0] == "un":
        return ("un", e[1], _subst_aggs(e[2], vals))
    if e[0] == "case":
        return ("case", [(_subst_aggs(c, vals), _subst_aggs(v, vals))
                         for c, v in e[1]], _subst_aggs(e[2], vals))
    if e[0] == "fn":
        return ("fn", e[1], [_subst_aggs(a, vals) for a in e[2]])
    return e


def _find_wins(e, acc: list):
    if e is None:
        return
    if e[0] == "win":
        acc.append(e)
        return
    if e[0] == "bin":
        _find_wins(e[2], acc)
        _find_wins(e[3], acc)
    elif e[0] == "un":
        _find_wins(e[2], acc)
    elif e[0] == "case":
        for c, v in e[1]:
            _find_wins(c, acc)
            _find_wins(v, acc)
        _find_wins(e[2], acc)
    elif e[0] == "fn":
        for a in e[2]:
            _find_wins(a, acc)


def _subst_wins(e, vals: dict):
    if e is None:
        return None
    if e[0] == "win":
        return ("col", vals[repr(e)])
    if e[0] == "bin":
        return ("bin", e[1], _subst_wins(e[2], vals),
                _subst_wins(e[3], vals))
    if e[0] == "un":
        return ("un", e[1], _subst_wins(e[2], vals))
    if e[0] == "case":
        return ("case", [(_subst_wins(c, vals), _subst_wins(v, vals))
                         for c, v in e[1]], _subst_wins(e[2], vals))
    if e[0] == "fn":
        return ("fn", e[1], [_subst_wins(a, vals) for a in e[2]])
    return e


def _window_series(e, df: pd.DataFrame) -> pd.Series:
    """Evaluate one window node over the presentation frame (window
    results are row-per-input-row, so they belong to the
    presentation-sized stage; the default SQL frame — RANGE UNBOUNDED
    PRECEDING TO CURRENT ROW with peers — is honored for running
    aggregates)."""
    _, fn, args, part, order = e
    pcols = [c.split(".")[-1] for c in part]
    keys = [c.split(".")[-1] for c, _ in order]
    ascs = [d == "asc" for _, d in order]
    if pcols or keys:
        srt = df.sort_values(pcols + keys,
                             ascending=[True] * len(pcols) + ascs,
                             kind="mergesort")
    else:
        srt = df
    if len(srt) == 0:
        return pd.Series([], dtype="float64")
    if pcols:
        pchange = (srt[pcols] != srt[pcols].shift()).any(axis=1)
    else:
        pchange = pd.Series(False, index=srt.index)
    pchange.iloc[0] = True
    gid = pchange.cumsum()
    pos = srt.groupby(gid, sort=False).cumcount()
    if keys:
        kchange = ((srt[keys] != srt[keys].shift()).any(axis=1)
                   | pchange)
    else:
        kchange = pchange
    if fn == "row_number":
        vals = (pos + 1).astype("int64")
    elif fn == "rank":
        r = (pos + 1).astype("float64").where(kchange)
        vals = r.groupby(gid, sort=False).ffill().astype("int64")
    elif fn == "dense_rank":
        vals = (kchange.astype("int64")
                .groupby(gid, sort=False).cumsum())
    elif fn in ("lag", "lead"):
        col = pd.Series(np.asarray(_ev(args[0], srt)), index=srt.index)
        k = int(args[1][1]) if len(args) > 1 else 1
        vals = col.groupby(gid, sort=False).shift(
            k if fn == "lag" else -k)
    elif fn in ("sum", "min", "max", "count", "avg"):
        if fn == "count" and not args:
            v = pd.Series(np.int64(1), index=srt.index)
        else:
            v = pd.Series(np.asarray(_ev(args[0], srt)),
                          index=srt.index)
        if not keys:                          # whole-partition frame
            red = {"sum": "sum", "min": "min", "max": "max",
                   "count": "count", "avg": "mean"}[fn]
            vals = v.groupby(gid, sort=False).transform(red)
        else:                                 # running incl. peers
            g = v.groupby(gid, sort=False)
            if fn in ("sum", "count", "avg"):
                cum = (g.cumsum() if fn == "sum"
                       else g.cumcount() + 1 if fn == "count"
                       else None)
                if fn == "avg":
                    cum = g.cumsum() / (g.cumcount() + 1)
            elif fn == "min":
                cum = g.cummin()
            else:
                cum = g.cummax()
            tie = kchange.cumsum()
            vals = cum.groupby(tie, sort=False).transform("last")
    else:
        raise ValueError(f"SQL: unknown window function {fn}")
    return vals.reindex(df.index)


def sql_query(sql: str, tables: dict):
    """Compile + run one query (SELECT, optionally UNION ALL chains and
    IN (SELECT ...) subqueries); returns a pandas DataFrame (results
    are presentation-sized: grouped/aggregated/limited — the engine's
    Dataset paths do the heavy lifting upstream)."""
    q = parse_select(sql)
    if "union" in q:
        parts = [_run_select(b, tables) for b in q["union"]]
        base_cols = list(parts[0].columns)
        for part in parts[1:]:
            if len(part.columns) != len(base_cols):
                raise ValueError("SQL: UNION ALL branch column-count "
                                 "mismatch")
        aligned = [parts[0]] + [p.set_axis(base_cols, axis=1)
                                for p in parts[1:]]
        out = pd.concat(aligned, ignore_index=True)
        if q["order"]:
            keys, ascs = [], []
            for o, d in q["order"]:
                if o[0] != "col" or o[1].split(".")[-1] not in \
                        out.columns:
                    raise ValueError("SQL: UNION ORDER BY must name an "
                                     "output column")
                keys.append(o[1].split(".")[-1])
                ascs.append(d == "asc")
            out = out.sort_values(keys, ascending=ascs,
                                  kind="mergesort")
        if q["limit"] is not None:
            out = out.head(q["limit"])
        return out.reset_index(drop=True)
    return _run_select(q, tables)


def _resolve_subqueries(e, tables):
    """Replace IN (SELECT ...) nodes with materialized value sets (the
    subquery runs through the same compiler; its result is the
    broadcast small side of a semi-join)."""
    if e is None:
        return None
    k = e[0]
    if k == "insub":
        sub = _run_select(e[2], tables)
        if len(sub.columns) != 1:
            raise ValueError("SQL: IN subquery must select one column")
        return ("inset", _resolve_subqueries(e[1], tables),
                frozenset(sub.iloc[:, 0].tolist()))
    if k == "bin":
        return ("bin", e[1], _resolve_subqueries(e[2], tables),
                _resolve_subqueries(e[3], tables))
    if k == "un":
        return ("un", e[1], _resolve_subqueries(e[2], tables))
    if k == "case":
        return ("case",
                [(_resolve_subqueries(c, tables),
                  _resolve_subqueries(v, tables)) for c, v in e[1]],
                _resolve_subqueries(e[2], tables))
    if k == "fn":
        return ("fn", e[1],
                [_resolve_subqueries(a, tables) for a in e[2]])
    return e


def _join_empty_side(left, right, lcol: str, rcol: str, jtype: str):
    """Equality join where at least one (normalized) side is empty.

    Ray's hash join breaks on a fully-empty side (invariant 11), so
    answer without it: each block of the side an outer join keeps is
    joined against the other side's typed empty table with the same
    Arrow join verb Ray applies per partition, which NULL-extends it;
    every other case is the typed empty result with both sides'
    columns."""
    import ray.data as rd

    from . import ops

    verb = jtype.replace("_", " ")        # Ray join type → Arrow verb

    def ren(t):
        return t.rename_columns(
            [lcol if c == rcol else c for c in t.column_names])

    l0 = ops.schema_of_dataset(left).empty_table()
    r0 = ren(ops.schema_of_dataset(right).empty_table())
    if jtype in ("left_outer", "full_outer") and left.take(1):
        return left.map_batches(
            lambda t: t.join(r0, lcol, join_type=verb),
            batch_format="pyarrow")
    if jtype in ("right_outer", "full_outer") and right.take(1):
        return right.map_batches(
            lambda t: l0.join(ren(t), lcol, join_type=verb),
            batch_format="pyarrow")
    return rd.from_arrow(l0.join(r0, lcol, join_type=verb))


def _build_dataset(q: dict, tables: dict):
    """Front half shared by the eager runner and the streaming variant:
    pruned reads, normalized equality joins, vectorized WHERE — all
    lazy; returns (dataset, resolved query dict)."""
    from ray.data import Dataset

    from .util import read_parquet_clean, tune_context

    tune_context()
    q = dict(q)
    q["where"] = _resolve_subqueries(q["where"], tables)
    q["having"] = _resolve_subqueries(q["having"], tables)

    need: set = set()
    for e, _ in q["items"]:
        if e != "star":
            _cols_of(e, need)
    _cols_of(q["where"], need)
    _cols_of(q["having"], need)
    for g in q["group"]:
        if isinstance(g, str):
            need.add(g)
        else:
            _cols_of(g, need)                 # GROUP BY expression
    for o, _ in q["order"]:
        _cols_of(o, need)
    for _, lk, rk, _jt in q["joins"]:
        need.add(lk)
        need.add(rk)

    def load(name, cols: set | None):
        if isinstance(name, tuple) and name and name[0] == "derived":
            # derived table: compile the subquery — lazily when it is a
            # pure row transform, eagerly (presentation-sized result by
            # construction: it aggregates/limits) otherwise
            return _dataset_for_subquery(name[1], tables)
        src = tables[name]
        if isinstance(src, Dataset):
            ds = src
        else:
            use = None
            if cols is not None:
                import pyarrow.parquet as pq
                avail = set(pq.read_schema(src).names)
                short = {c.split(".")[-1] for c in cols}
                use = sorted(short & avail)
            ds = read_parquet_clean(src, columns=use or None)
        return ds

    has_star = any(e == "star" for e, _ in q["items"])
    ds = load(q["table"], None if has_star else need)
    for tbl, lk, rk, jtype in q["joins"]:
        right = load(tbl, None if has_star else need)
        lcol, rcol = lk.split(".")[-1], rk.split(".")[-1]
        # normalize both sides: join outputs carry column-less empty
        # blocks that break chained joins (invariants 7/11)
        from . import ops

        P = ops._default_partitions()         # join aggregator actors
        ds = ops.materialize_normalized(ds, ops.schema_of_dataset(ds))
        right = ops.materialize_normalized(
            right, ops.schema_of_dataset(right))
        if not (ds.take(1) and right.take(1)):
            ds = _join_empty_side(ds, right, lcol, rcol, jtype)
            continue
        if rcol != lcol:
            right = right.map_batches(
                lambda df, rc=rcol, lc=lcol: df.rename(columns={rc: lc}),
                batch_format="pandas")
        ds = ds.join(right, jtype, P, on=(lcol,))

    if q["where"] is not None:
        w = q["where"]
        ds = ds.map_batches(
            lambda df, w=w: df[np.asarray(_ev(w, df), bool)],
            batch_format="pandas")
    return ds, q


def sql_dataset(sql: str, tables: dict):
    """Streaming variant of the SQL front door: compiles a
    NON-AGGREGATING, non-window, non-DISTINCT SELECT (no ORDER BY /
    LIMIT — those imply a total order) to a LAZY Ray Dataset, so the
    query composes as a pipeline stage (pipe into ``write_parquet`` /
    further ``map_batches``) and never lands on the driver. Projection
    expressions evaluate vectorized per batch."""
    q = parse_select(sql)
    if "union" in q:
        raise NotImplementedError("sql_dataset: UNION — use sql_query")
    aggs: list = []
    wins: list = []
    for e, _ in q["items"]:
        if e != "star":
            _find_aggs(e, aggs)
            _find_wins(e, wins)
    if aggs or wins or q["group"] or q["distinct"] or q["order"] \
            or q["limit"] is not None:
        raise NotImplementedError(
            "sql_dataset compiles streaming row transforms only — "
            "aggregates/windows/DISTINCT/ORDER/LIMIT need sql_query")
    ds, q = _build_dataset(q, tables)
    items = q["items"]
    if all(e == "star" for e, _ in items):
        return ds
    return ds.map_batches(_projector(items), batch_format="pandas")


def _projector(items):
    """Vectorized per-batch SELECT-list projection (shared by
    sql_dataset and derived-table compilation)."""
    def project(df: pd.DataFrame, items=items) -> pd.DataFrame:
        out = pd.DataFrame(index=df.index)
        for i, (e, alias) in enumerate(items):
            if e == "star":
                for c in df.columns:
                    out[c] = df[c]
                continue
            name = alias or (e[1].split(".")[-1] if e[0] == "col"
                             else f"col{i}")
            out[name] = _ev(e, df)
        return out
    return project


def _dataset_for_subquery(subq: dict, tables: dict):
    """Derived-table loader. A non-aggregating sub-SELECT compiles to a
    LAZY Dataset (sql_dataset's rules) so the outer query streams over
    it; a sub-SELECT with aggregates/DISTINCT/ORDER/LIMIT runs eagerly —
    its result is presentation-sized by construction — and re-enters the
    plan via from_pandas."""
    import ray.data as rd

    aggs: list = []
    wins: list = []
    for e, _ in subq["items"]:
        if e != "star":
            _find_aggs(e, aggs)
            _find_wins(e, wins)
    streamable = not (aggs or wins or subq["group"] or subq["distinct"]
                      or subq["order"] or subq["limit"] is not None)
    if streamable:
        ds, q2 = _build_dataset(dict(subq), tables)
        items = q2["items"]
        if all(e == "star" for e, _ in items):
            return ds
        return ds.map_batches(_projector(items), batch_format="pandas")
    return rd.from_pandas(_run_select(dict(subq), tables))


def _subst_expr(e, mapping: dict):
    """Replace any subtree whose repr is a key of ``mapping`` with
    ``("col", mapping[repr])`` — rewrites SELECT/HAVING/ORDER references
    to a GROUP BY expression onto its hidden key column."""
    if isinstance(e, tuple):
        hit = mapping.get(repr(e))
        if hit is not None:
            return ("col", hit)
        return tuple(_subst_expr(x, mapping)
                     if isinstance(x, (tuple, list)) else x for x in e)
    if isinstance(e, list):
        return [_subst_expr(x, mapping)
                if isinstance(x, (tuple, list)) else x for x in e]
    return e


def _run_select(q: dict, tables: dict):
    from .ops import bucket_exchange

    ds, q = _build_dataset(q, tables)

    # GROUP BY expressions: materialize each non-column key as a hidden
    # __gN column in one vectorized pre-stage, group on the hidden
    # names, and rewrite every syntactic reference to the expression
    # (SELECT items, HAVING, ORDER BY) onto the hidden column
    gexpr_cols: list[tuple] = []
    group_names: list[str] = []
    for gi, g in enumerate(q["group"]):
        if isinstance(g, str):
            group_names.append(g.split(".")[-1])
        else:
            hid = f"__g{gi}"
            gexpr_cols.append((g, hid))
            group_names.append(hid)
    if gexpr_cols:
        def add_group_keys(df: pd.DataFrame,
                           exprs=tuple(gexpr_cols)) -> pd.DataFrame:
            df = df.copy()
            for g, hid in exprs:
                try:
                    df[hid] = _ev(g, df)
                except Exception:
                    if len(df):
                        raise
                    df[hid] = pd.Series([], dtype="object")
            return df

        ds = ds.map_batches(add_group_keys, batch_format="pandas")
        sub = {repr(g): hid for g, hid in gexpr_cols}
        q = dict(q)
        q["items"] = [(e if e == "star" else _subst_expr(e, sub), a)
                      for e, a in q["items"]]
        if q["having"] is not None:
            q["having"] = _subst_expr(q["having"], sub)
        q["order"] = [(_subst_expr(o, sub), d) for o, d in q["order"]]
        q["group"] = group_names

    aggs: list = []
    wins: list = []
    for e, _ in q["items"]:
        if e != "star":
            _find_aggs(e, aggs)
            _find_wins(e, wins)
    _find_aggs(q["having"], aggs)
    for o, _ in q["order"]:
        _find_aggs(o, aggs)
        _find_wins(o, wins)
    if wins and aggs:
        raise NotImplementedError(
            "SQL: window functions over grouped output not supported")
    if q["group"] and not aggs:
        # GROUP BY without aggregates == DISTINCT over the group keys:
        # ride the aggregate machinery with a hidden COUNT(*) nobody
        # projects
        aggs.append(("agg", "count", None))
    agg_map = {}
    for a in aggs:
        agg_map.setdefault(_agg_key(a), a)

    if agg_map:
        group = [g.split(".")[-1] if isinstance(g, str) else g
                 for g in q["group"]]
        names = {k: f"__agg{i}" for i, k in enumerate(agg_map)}

        _STR_FNS = {"upper", "lower", "concat", "substr", "substring",
                    "trim", "ltrim", "rtrim", "replace"}

        def _arg_is_string(a) -> bool:
            """Best-effort: does this MIN/MAX argument produce strings?
            Only consulted for the column-less empty-frame fallback, so
            the synthesized partial's dtype matches the real one
            (ADVICE r04: float64 pin forked VARCHAR aggregates)."""
            import pyarrow as pa
            import pyarrow.parquet as pq
            e = a[2]
            if e is None:
                return False
            if e[0] == "fn":
                if e[1] in _STR_FNS:
                    return True
                if e[1] == "coalesce" and e[2]:
                    return _arg_is_string((None, None, e[2][0]))
                return False
            if e[0] == "lit":
                return isinstance(e[1], str)
            if e[0] != "col":
                return False
            want = e[1].split(".")[-1]
            for src in tables.values():
                try:
                    sch = (pq.read_schema(src) if isinstance(src, str)
                           else None)
                except Exception:
                    sch = None
                if sch is not None and want in sch.names:
                    t = sch.field(want).type
                    return pa.types.is_string(t) or \
                        pa.types.is_large_string(t)
            return False

        gcols = group or ["__g"]
        agg_of = {names[k]: a for k, a in agg_map.items()}

        def how_of(c: str) -> str:
            """The reduce of a partial column, in partial and combine;
            COUNT(DISTINCT)'s ``nunique`` drops NULLs, as SQL does."""
            if c.endswith("__c"):
                return "sum"
            if c.endswith("__d"):
                return "nunique"
            return {"sum": "sum", "avg": "sum", "min": "min",
                    "max": "max"}[agg_of[c[:-3]][1]]

        def _empty_partial() -> pd.DataFrame:
            cols = {}
            for g in gcols:
                cols[g] = pd.Series([], dtype="object") \
                    if g != "__g" else pd.Series([], dtype="int64")
            for k, a in agg_map.items():
                col = names[k]
                if a[1] == "count":
                    cols[col + "__c"] = pd.Series([], dtype="int64")
                elif a[1] == "countd":
                    cols[col + "__d"] = pd.Series([], dtype="object")
                else:
                    dt = "object" if a[1] in ("min", "max") and \
                        _arg_is_string(a) else "float64"
                    cols[col + "__s"] = pd.Series([], dtype=dt)
                    if a[1] == "avg":
                        cols[col + "__c"] = pd.Series([], dtype="int64")
            return pd.DataFrame(cols)

        def partial(df: pd.DataFrame) -> pd.DataFrame:
            if not len(df):
                # A TYPED zero-row frame (invariant 14) flows through the
                # normal vectorized path below, which preserves argument
                # dtypes (string MIN/MAX stays object); only a truly
                # column-less frame needs the synthesized fallback.
                try:
                    return _typed_partial(df)
                except Exception:
                    return _empty_partial()
            return _typed_partial(df)

        def _typed_partial(df: pd.DataFrame) -> pd.DataFrame:
            out = pd.DataFrame(index=df.index)
            for g in group:
                out[g] = df[g]
            for k, a in agg_map.items():
                fn, arg = a[1], a[2]
                col = names[k]
                if fn == "count":
                    if arg is None:
                        out[col + "__c"] = np.int64(1)
                    else:
                        v = _ev(arg, df)
                        out[col + "__c"] = pd.Series(
                            v, index=df.index).notna().astype("int64")
                elif fn == "countd":
                    # COUNT(DISTINCT x): x joins the partial's group
                    # keys, so one row per distinct value per group
                    # crosses the exchange
                    out[col + "__d"] = pd.Series(
                        _ev(arg, df), index=df.index)
                else:
                    v = _ev(arg, df)
                    out[col + "__s"] = v
                    if fn == "avg":
                        out[col + "__c"] = np.int64(1)
            if not group:
                out["__g"] = np.int64(0)
            keys = gcols + [c for c in out.columns if c.endswith("__d")]
            how = {c: how_of(c) for c in out.columns if c not in keys}
            if not how:                       # COUNT(DISTINCT) only
                return out[keys].drop_duplicates()
            # dropna=False: a NULL key or distinct argument still feeds
            # the other aggregates of its group
            return (out.groupby(keys, sort=False, as_index=False,
                                dropna=False).agg(how))

        def combine(df: pd.DataFrame) -> pd.DataFrame:
            return (df.groupby(gcols, sort=False, as_index=False,
                               dropna=False)
                    .agg({c: how_of(c) for c in df.columns
                          if c not in gcols}))

        res = bucket_exchange(ds.map_batches(partial, batch_format="pandas"),
                              gcols, combine, 64, "pandas").to_pandas()
        if len(res) == 0:                     # nothing survived WHERE
            res = _empty_partial()
        # finalize agg values
        for k, a in agg_map.items():
            col = names[k]
            if a[1] == "count":
                res[col] = res[col + "__c"].astype("int64")
            elif a[1] == "countd":
                res[col] = res[col + "__d"].astype("int64")
            elif a[1] == "avg":
                res[col] = res[col + "__s"] / res[col + "__c"]
            else:
                res[col] = res[col + "__s"]
        vals = {k: names[k] for k in agg_map}
        if q["having"] is not None:
            hv = _subst_aggs(q["having"], vals)
            res = res[np.asarray(_ev(hv, res), bool)]
        frame = res.reset_index(drop=True)

        def out_expr(e):
            return _subst_aggs(e, vals)
    else:
        if (q["limit"] is not None and not q["order"] and not wins
                and not q["distinct"]):
            # LIMIT without ORDER BY is any-N-rows: stop the stream
            # after `limit` rows instead of materializing everything
            ds = ds.limit(q["limit"])
        frame = ds.to_pandas()
        if len(frame) == 0:                   # typed empty projection
            from . import ops

            frame = ops.schema_of_dataset(ds).empty_table().to_pandas()
        win_vals: dict = {}
        for i, w in enumerate({repr(w): w for w in wins}.values()):
            col = f"__win{i}"
            frame[col] = _window_series(w, frame)
            win_vals[repr(w)] = col

        def out_expr(e):
            return _subst_wins(e, win_vals) if win_vals else e

    # projection
    out = pd.DataFrame(index=frame.index)
    for i, (e, alias) in enumerate(q["items"]):
        if e == "star":
            for c in frame.columns:
                if not c.startswith("__"):
                    out[c] = frame[c]
            continue
        name = alias or (e[1].split(".")[-1] if e[0] == "col"
                         else f"col{i}")
        out[name] = _ev(out_expr(e), frame)
    if q["distinct"]:
        if any(o[0] != "col" or o[1].split(".")[-1] not in out.columns
               for o, _ in q["order"]):
            raise NotImplementedError(
                "SQL: DISTINCT with ORDER BY on a non-projected "
                "expression")
        out = out.drop_duplicates()
    sort_keys, ascs = [], []
    aux = 0
    for o, d in q["order"]:
        short = o[1].split(".")[-1] if o[0] == "col" else None
        if short is not None and short in out.columns:
            sort_keys.append(short)
        else:
            k = f"__ord{aux}"
            aux += 1
            out[k] = _ev(out_expr(o), frame)
            sort_keys.append(k)
        ascs.append(d == "asc")
    if sort_keys:
        out = out.sort_values(sort_keys, ascending=ascs,
                              kind="mergesort")
    out = out.drop(columns=[c for c in out.columns
                            if c.startswith("__ord")])
    if q["limit"] is not None:
        out = out.head(q["limit"])
    return out.reset_index(drop=True)
