"""Multi-format table sources: the ingestion edge of the engine.

Real corpora arrive as Parquet, CSV and NDJSON (one JSON object per
line — the Common-Crawl-adjacent interchange format); this module gives
every pipeline ONE entry point that dispatches on extension (or an
explicit ``fmt``) and lands each format on the same canonical Arrow
schema, so everything downstream is format-agnostic.

Scale shape: all three readers are Ray Data's native streaming readers
(``read_parquet`` / ``read_csv`` / ``read_json``) — block-parallel,
predicate/column-prunable at the Parquet read, no driver materialize.
The schema normalization is a zero-copy cast on each block.
"""

from __future__ import annotations

import pyarrow as pa


_EXT_FMT = {".parquet": "parquet", ".pq": "parquet", ".csv": "csv",
            ".json": "ndjson", ".jsonl": "ndjson", ".ndjson": "ndjson",
            ".feather": "feather", ".arrow": "feather", ".ipc": "feather",
            ".orc": "orc", ".avro": "avro", ".xml": "xml", ".xlsx": "xlsx",
            ".db": "sqlite", ".sqlite": "sqlite", ".sqlite3": "sqlite"}


def _sqlite_decl_type(decl: str) -> pa.DataType:
    """Declared-type → Arrow, following sqlite's affinity rules
    (sqlite.org/datatype3.html §3.1: INT → INTEGER, CHAR/CLOB/TEXT →
    TEXT, BLOB → BLOB, REAL/FLOA/DOUB → REAL; BOOLEANs land INTEGER)."""
    d = (decl or "").upper()
    if "INT" in d or "BOOL" in d:
        return pa.int64()
    if "CHAR" in d or "CLOB" in d or "TEXT" in d:
        return pa.string()
    if "BLOB" in d:
        return pa.binary()
    if "REAL" in d or "FLOA" in d or "DOUB" in d:
        return pa.float64()
    return pa.string()


def _sqlite_ro(path: str):
    """Read-only, immutable-mode connection — safe for many parallel
    readers of one file (no locking, no journal probes)."""
    import sqlite3

    return sqlite3.connect(f"file:{path}?mode=ro&immutable=1", uri=True)


def _sqlite_probe(path: str, table: str | None):
    """(table, [(name, arrow_type)], min_rowid, max_rowid) of a sqlite
    file — the driver-side planning metadata (PRAGMA table_info gives
    the declared affinities; the rowid span drives range splitting)."""
    con = _sqlite_ro(path)
    try:
        names = [r[0] for r in con.execute(
            "SELECT name FROM sqlite_master WHERE type='table' "
            "AND name NOT LIKE 'sqlite_%' ORDER BY name")]
        if table is None:
            if len(names) != 1:
                raise ValueError(
                    f"{path}: pass sqlite_table= (tables: {names})")
            table = names[0]
        elif table not in names:
            raise ValueError(f"{path}: no table {table!r} "
                             f"(tables: {names})")
        info = con.execute(f'PRAGMA table_info("{table}")').fetchall()
        cols = [(row[1], _sqlite_decl_type(row[2])) for row in info]
        lo, hi = con.execute(
            f'SELECT MIN(rowid), MAX(rowid) FROM "{table}"').fetchone()
        return table, cols, lo, hi
    finally:
        con.close()


def _fmt_of(path: str, fmt: str | None) -> tuple[str, bool]:
    """(format, gzipped?) — a trailing .gz wraps any of the text formats
    (crawl interchange files usually arrive as .jsonl.gz / .csv.gz)."""
    import os

    p = str(path).lower()
    gz = p.endswith(".gz")
    if fmt:
        return fmt, gz
    if gz:
        p = p[:-3]
    ext = os.path.splitext(p)[1]
    if ext not in _EXT_FMT:
        raise ValueError(f"cannot infer table format from {path!r}; "
                         f"pass fmt= one of {sorted(set(_EXT_FMT.values()))}")
    return _EXT_FMT[ext], gz


def _xml_records(blob: bytes, record_tag: str) -> list:
    """Streaming expat walk (ElementTree.iterparse — constant memory on
    the wire, the Wikipedia-dump ingestion shape): every element whose
    local name == record_tag becomes one row; its descendant LEAF
    elements flatten to dotted-path columns ('revision.id'), first
    occurrence wins; record attributes become '@attr' columns.
    Namespaces ({uri}tag) strip to local names."""
    import io
    import xml.etree.ElementTree as ET

    def local(tag: str) -> str:
        return tag.rsplit("}", 1)[-1]

    rows = []
    stack: list = []            # path of local names inside current record
    cur: dict | None = None
    for ev, el in ET.iterparse(io.BytesIO(blob), events=("start", "end")):
        name = local(el.tag)
        if ev == "start":
            if cur is None:
                if name == record_tag:
                    cur = {f"@{local(k)}": v for k, v in el.attrib.items()}
                    stack = []
            else:
                stack.append(name)
        else:                   # end
            if cur is not None:
                if stack:
                    if len(el) == 0:        # leaf
                        col = ".".join(stack)
                        cur.setdefault(col, el.text or "")
                    stack.pop()
                elif name == record_tag:
                    rows.append(cur)
                    cur = None
                    el.clear()              # free the subtree
    return rows


def read_table(path, fmt: str | None = None, columns: list[str] | None = None,
               schema: pa.Schema | None = None, record_tag: str | None = None,
               sqlite_table: str | None = None,
               sqlite_rows_per_task: int = 100_000):
    """path → ray.data.Dataset, dispatching parquet/CSV/NDJSON by
    extension. ``columns`` prunes at the read for Parquet (row groups
    never leave storage) and right after the parse for CSV/NDJSON (their
    text layout has no column projection). ``schema`` (optional) casts
    every block to the canonical dtypes — CSV/JSON type inference is
    per-file, so a multi-file read MUST pin one (int64 read as double in
    a sparse file would silently fork dtypes between blocks)."""
    import ray.data as rd

    from .util import read_parquet_clean, tune_context

    tune_context()
    f, gz = _fmt_of(path, fmt)
    open_args = {"compression": "gzip"} if gz else {}
    if f == "parquet":
        ds = read_parquet_clean(path, columns=columns)
    elif f == "csv":
        ds = rd.read_csv(path, arrow_open_stream_args=open_args,
                         file_extensions=None)
    elif f == "ndjson":
        ds = rd.read_json(path, arrow_open_stream_args=open_args,
                          file_extensions=None)
    elif f in ("feather", "orc"):
        # Ray has no native IPC/ORC reader: read_binary_files is still
        # block-parallel ACROSS files (one decode task per file), and
        # the Arrow decode is zero-copy from the blob
        import io

        bin_ds = rd.read_binary_files(path, file_extensions=None)

        def decode(t: pa.Table, f=f, columns=columns) -> pa.Table:
            parts = []
            for blob in t.column("bytes").to_pylist():
                if f == "feather":
                    import pyarrow.feather as feather

                    parts.append(feather.read_table(
                        io.BytesIO(blob), columns=columns))
                else:
                    import pyarrow.orc as orc

                    parts.append(orc.ORCFile(io.BytesIO(blob))
                                 .read(columns=columns))
            return pa.concat_tables(parts)

        ds = bin_ds.map_batches(decode, batch_format="pyarrow",
                                batch_size=1)
    elif f == "avro":
        # same block-parallel-by-file shape as feather/orc; the engine's
        # own container reader (avrocodec) handles null+deflate codecs
        bin_ds = rd.read_binary_files(path, file_extensions=None)

        def decode_avro(t: pa.Table) -> pa.Table:
            from . import avrocodec

            parts = []
            for blob in t.column("bytes").to_pylist():
                rows, _ = avrocodec.read_avro_blob(blob)
                parts.append(pa.Table.from_pylist(rows))
            return pa.concat_tables(parts, promote_options="default")

        ds = bin_ds.map_batches(decode_avro, batch_format="pyarrow",
                                batch_size=1)
    elif f == "xlsx":
        # spreadsheet interchange (xlsxcodec — the engine's own ECMA-376
        # reader): block-parallel by file like feather/orc/avro
        bin_ds = rd.read_binary_files(path, file_extensions=None)

        def decode_xlsx(t: pa.Table, columns=columns) -> pa.Table:
            from . import xlsxcodec

            parts = []
            for blob in t.column("bytes").to_pylist():
                rows = xlsxcodec.read_xlsx(blob)
                tab = pa.Table.from_pylist(rows)
                if columns:
                    tab = tab.select([c for c in columns
                                      if c in tab.column_names])
                parts.append(tab)
            return pa.concat_tables(parts, promote_options="default")

        ds = bin_ds.map_batches(decode_xlsx, batch_format="pyarrow",
                                batch_size=1)
    elif f == "xml":
        # record-oriented XML (Wikipedia-dump shape): block-parallel by
        # file, streaming expat parse per file, leaf elements flattened
        # to dotted-path string columns
        if not record_tag:
            raise ValueError("fmt='xml' requires record_tag= (the "
                             "element name that delimits one record)")
        bin_ds = rd.read_binary_files(path, file_extensions=None)

        def decode_xml(t: pa.Table, tag=record_tag, gz=gz) -> pa.Table:
            import gzip

            parts = []
            for blob in t.column("bytes").to_pylist():
                if gz:
                    blob = gzip.decompress(blob)
                parts.append(pa.Table.from_pylist(
                    _xml_records(blob, tag)))
            return pa.concat_tables(parts, promote_options="default")

        ds = bin_ds.map_batches(decode_xml, batch_format="pyarrow",
                                batch_size=1)
    elif f == "sqlite":
        # sqlite is a random-access single file: parallelize WITHIN the
        # file by rowid ranges (one SELECT ... WHERE rowid BETWEEN per
        # task, immutable read-only connections — no lock contention),
        # and block-parallel across files for a directory of .db shards.
        # Column pruning happens in the SELECT list; dtypes are pinned
        # from the declared column affinities so blocks can't fork.
        import glob as _glob
        import os

        if os.path.isdir(path):
            files = sorted(p for p in _glob.glob(f"{path}/*")
                           if os.path.splitext(p)[1].lower()
                           in (".db", ".sqlite", ".sqlite3"))
        else:
            files = sorted(_glob.glob(str(path))) or [str(path)]
        tasks, cols_ref = [], None
        for fp in files:
            tbl, cols, lo, hi = _sqlite_probe(fp, sqlite_table)
            if cols_ref is None:
                cols_ref = cols
            elif [c for c, _ in cols] != [c for c, _ in cols_ref]:
                raise ValueError(f"{fp}: column mismatch across shards")
            if lo is None:
                continue
            step = max(1, sqlite_rows_per_task)
            for start in range(int(lo), int(hi) + 1, step):
                tasks.append({"fp": fp, "tbl": tbl, "lo": start,
                              "hi": min(start + step - 1, int(hi))})
        names = [c for c, _ in (cols_ref or [])]
        use = names if columns is None else [c for c in names
                                             if c in columns]
        types = dict(cols_ref or [])
        sel = ", ".join(f'"{c}"' for c in use)
        out_schema = pa.schema([(c, types[c]) for c in use])

        def read_range(df, sel=sel, use=use,
                       out_schema=out_schema) -> pa.Table:
            parts = []
            for r in df.to_dict("records"):
                con = _sqlite_ro(r["fp"])
                try:
                    rows = con.execute(
                        f'SELECT {sel} FROM "{r["tbl"]}" '
                        f"WHERE rowid BETWEEN ? AND ?",
                        (r["lo"], r["hi"])).fetchall()
                finally:
                    con.close()
                cols_v = list(zip(*rows)) if rows else \
                    [[] for _ in use]
                parts.append(pa.Table.from_arrays(
                    [pa.array(list(v), type=out_schema.field(i).type)
                     for i, v in enumerate(cols_v)], schema=out_schema))
            return pa.concat_tables(parts) if parts else \
                out_schema.empty_table()

        if not tasks:
            ds = rd.from_arrow((out_schema if cols_ref else
                                pa.schema([])).empty_table())
        else:
            ds = rd.from_items(tasks).map_batches(
                read_range, batch_format="pandas", batch_size=1)
    else:
        raise ValueError(f"unknown table format {f!r}")
    if f not in ("parquet", "feather", "orc") and columns is not None:
        # (sqlite already pruned in its SELECT; this just pins order)
        ds = ds.select_columns(columns)
    if schema is not None:
        want = schema if columns is None else pa.schema(
            [schema.field(c) for c in columns])

        def cast(t: pa.Table) -> pa.Table:
            return t.select(want.names).cast(want)

        ds = ds.map_batches(cast, batch_format="pyarrow")
    return ds


def write_table(ds, path: str, fmt: str = "parquet",
                sqlite_table: str = "data"):
    """Dataset → partitioned files at ``path`` (one file per block — the
    resumable-output layout; parquet is zstd-compressed)."""
    if fmt == "parquet":
        ds.write_parquet(path, compression="zstd")
    elif fmt == "csv":
        ds.write_csv(path)
    elif fmt == "ndjson":
        ds.write_json(path)
    elif fmt == "feather":
        import os
        import pyarrow.feather as feather

        os.makedirs(path, exist_ok=True)
        for i, batch in enumerate(ds.iter_batches(batch_format="pyarrow",
                                                  batch_size=None)):
            feather.write_feather(batch, f"{path}/part-{i:05d}.feather")
    elif fmt == "avro":
        import os

        from . import avrocodec

        os.makedirs(path, exist_ok=True)
        for i, batch in enumerate(ds.iter_batches(batch_format="pyarrow",
                                                  batch_size=None)):
            with open(f"{path}/part-{i:05d}.avro", "wb") as fh:
                fh.write(avrocodec.table_to_avro(batch))
    elif fmt == "xlsx":

        import os

        from . import xlsxcodec

        os.makedirs(path, exist_ok=True)
        for i, batch in enumerate(ds.iter_batches(batch_format="pyarrow",
                                                  batch_size=None)):
            rows = []
            for row in batch.to_pylist():
                out = {}
                for k, v in row.items():
                    if hasattr(v, "isoformat"):  # timestamps → ISO text
                        v = v.isoformat()
                    out[k] = v
                rows.append(out)
            with open(f"{path}/part-{i:05d}.xlsx", "wb") as fh:
                fh.write(xlsxcodec.write_xlsx(
                    rows, columns=batch.column_names))
    elif fmt == "xml":
        import os
        from xml.sax.saxutils import escape

        os.makedirs(path, exist_ok=True)
        for i, batch in enumerate(ds.iter_batches(batch_format="pyarrow",
                                                  batch_size=None)):
            lines = ["<records>"]
            cols = batch.column_names
            for row in batch.to_pylist():
                lines.append("<record>")
                for c in cols:
                    v = row[c]
                    if v is None:
                        continue
                    lines.append(f"<{c}>{escape(str(v))}</{c}>")
                lines.append("</record>")
            lines.append("</records>")
            with open(f"{path}/part-{i:05d}.xml", "w",
                      encoding="utf-8") as fh:
                fh.write("\n".join(lines))
    elif fmt == "sqlite":
        # single-WRITER edge format (sqlite holds one write lock): the
        # Dataset streams batch-by-batch through one connection — the
        # export path for handing results to sqlite-speaking tools, not
        # a scale sink (use write_parquet/write_partitioned for that).
        # Timestamps serialize as ISO-microsecond TEXT; bools as 0/1.
        import os
        import sqlite3

        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        if os.path.exists(path):
            os.remove(path)
        con = sqlite3.connect(path)
        con.execute("PRAGMA journal_mode=OFF")
        con.execute("PRAGMA synchronous=OFF")
        tbl = sqlite_table
        try:
            made = False
            for batch in ds.iter_batches(batch_format="pyarrow",
                                         batch_size=None):
                cols, vals = [], []
                for i, field in enumerate(batch.schema):
                    t = field.type
                    col = batch.column(i)
                    if pa.types.is_timestamp(t):
                        decl, v = "TEXT", [
                            None if x is None else x.isoformat()
                            for x in col.to_pylist()]
                    elif pa.types.is_integer(t) or pa.types.is_boolean(t):
                        decl = "INTEGER"
                        v = [None if x is None else int(x)
                             for x in col.to_pylist()]
                    elif pa.types.is_floating(t):
                        decl, v = "REAL", col.to_pylist()
                    elif pa.types.is_binary(t) or \
                            pa.types.is_large_binary(t):
                        decl, v = "BLOB", col.to_pylist()
                    else:
                        decl = "TEXT"
                        v = [None if x is None else str(x)
                             for x in col.to_pylist()]
                    cols.append((field.name, decl))
                    vals.append(v)
                if not made:
                    con.execute(f'CREATE TABLE "{tbl}" (' + ", ".join(
                        f'"{n}" {d}' for n, d in cols) + ")")
                    made = True
                ph = ", ".join("?" * len(cols))
                con.executemany(
                    f'INSERT INTO "{tbl}" VALUES ({ph})',
                    list(zip(*vals)))
            con.commit()
        finally:
            con.close()
    else:
        raise ValueError(f"unknown table format {fmt!r}")


_NT_COLS = ["graph", "subj", "pred", "obj", "obj_is_literal", "obj_dtype"]


def read_ntriples(path):
    """N-Triples file(s) → Dataset of triple rows (graph, subj, pred,
    obj, obj_is_literal, obj_dtype) — the distributed twin of
    serializers.parse_ntriples, which parses one in-memory string on the
    driver. N-Triples is line-oriented, so Ray's read_text splits files
    into line blocks and the parse is block-parallel, never driver-side;
    malformed lines drop per-row (quarantine policy M15)."""
    import pandas as pd
    import ray.data as rd

    from .serializers import parse_ntriples
    from .util import tune_context

    tune_context()
    lines = rd.read_text(path)

    def parse(df: pd.DataFrame) -> pd.DataFrame:
        rows = parse_ntriples("\n".join(df["text"]))
        out = pd.DataFrame(rows, columns=_NT_COLS)
        return out.astype({"graph": "object", "subj": "object",
                           "pred": "object", "obj": "object",
                           "obj_is_literal": "bool",
                           "obj_dtype": "object"})

    return lines.map_batches(parse, batch_format="pandas")


# ---------------------------------------------------------------------------
# WARC / WET ingestion (ISO 28500) — the web-crawl interchange format
# ---------------------------------------------------------------------------

def _warc_records(raw: bytes):
    """Yield (warc_headers: dict, payload: bytes) per WARC/1.x record.
    Content-Length framing per ISO 28500; header keys lowercased.
    Malformed tails stop the walk (quarantine policy M15)."""
    pos = 0
    while True:
        idx = raw.find(b"WARC/", pos)
        if idx < 0:
            break
        hdr_end = raw.find(b"\r\n\r\n", idx)
        if hdr_end < 0:
            break
        fields: dict[str, str] = {}
        head = raw[idx:hdr_end].decode("utf-8", "replace").split("\r\n")
        for line in head[1:]:
            if ":" in line:
                k, v = line.split(":", 1)
                fields[k.strip().lower()] = v.strip()
        try:
            clen = int(fields.get("content-length", "0"))
        except ValueError:
            break
        payload = raw[hdr_end + 4: hdr_end + 4 + clen]
        if len(payload) < clen:
            break
        yield fields, payload
        pos = hdr_end + 4 + clen


def _warc_to_pages(raw: bytes) -> "pa.Table":
    """WARC bytes → PAGES rows: 'response' records contribute the HTML
    body (HTTP headers stripped), 'conversion' records (WET) contribute
    extracted text. Other record types (warcinfo, request, metadata)
    are skipped."""
    import pandas as pd

    from . import schemas

    rows = []
    for fields, payload in _warc_records(raw):
        rtype = fields.get("warc-type", "")
        if rtype not in ("response", "conversion"):
            continue
        url = fields.get("warc-target-uri", "")
        date = fields.get("warc-date", "")
        try:
            ts = pd.Timestamp(date).tz_localize(None) if date else None
        except ValueError:
            ts = None
        html, text = b"", ""
        if rtype == "response":
            body = payload
            if payload[:5] in (b"HTTP/",):
                sep = payload.find(b"\r\n\r\n")
                if sep >= 0:
                    body = payload[sep + 4:]
            html = body
        else:
            text = payload.decode("utf-8", "replace")
        rows.append({"url": url, "warc_ts": ts, "html": html,
                     "text": text, "lang": ""})
    return pa.Table.from_pylist(rows, schema=schemas.PAGES)


def read_warc(path):
    """WARC/WET file(s) → Dataset of PAGES rows. Block-parallel across
    files (one decode task per archive — the Common Crawl layout is
    many ~1 GB segment files, so file-level parallelism IS the
    partitioning); multi-member gzip handled by gzip.decompress."""
    import gzip

    import ray.data as rd

    from .util import tune_context

    tune_context()
    bin_ds = rd.read_binary_files(path, file_extensions=None)

    def decode(t: pa.Table) -> pa.Table:
        parts = []
        for blob in t.column("bytes").to_pylist():
            raw = gzip.decompress(blob) if blob[:2] == b"\x1f\x8b" else blob
            parts.append(_warc_to_pages(raw))
        return pa.concat_tables(parts)

    return bin_ds.map_batches(decode, batch_format="pyarrow", batch_size=1)


def write_warc_fixture(pages_rows, wet: bool = False,
                       gz: bool = False) -> bytes:
    """PAGES-shaped dicts → spec-framed WARC bytes ('response' records
    with an HTTP envelope, or WET 'conversion' records when ``wet``)."""
    import gzip

    out = bytearray()
    for i, r in enumerate(pages_rows):
        date = (r["warc_ts"].strftime("%Y-%m-%dT%H:%M:%SZ")
                if r.get("warc_ts") is not None else
                "2026-01-01T00:00:00Z")
        if wet:
            payload = (r.get("text") or "").encode("utf-8")
            rtype = "conversion"
        else:
            body = r.get("html") or b""
            payload = (b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n"
                       b"\r\n" + body)
            rtype = "response"
        head = (f"WARC/1.0\r\nWARC-Type: {rtype}\r\n"
                f"WARC-Target-URI: {r['url']}\r\n"
                f"WARC-Date: {date}\r\n"
                f"WARC-Record-ID: <urn:uuid:fixture-{i}>\r\n"
                f"Content-Length: {len(payload)}\r\n\r\n").encode()
        out += head + payload + b"\r\n\r\n"
    return gzip.compress(bytes(out)) if gz else bytes(out)


def write_partitioned(ds, path: str, key: str, num_buckets: int = 64,
                      skip_existing: bool = True):
    """Resumable partitioned Parquet sink: hash-partition by ``key`` into
    ``part=NNNNN/`` directories, each written atomically (tmp + rename,
    then a ``_SUCCESS`` marker carrying the row count) from ITS OWN
    worker task — so a failed 100-TB job re-run skips every finished
    partition and rewrites only the missing ones. ``path`` must be
    shared storage on a real cluster (object store/NFS); the same
    protocol applies per node.

    Returns a pandas DataFrame (partition, rows, skipped) — one row per
    non-empty partition, driver-small.
    """
    import pandas as pd

    from .ops import stable_bucket

    def tag(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.copy()
        s = df[key].astype(str)
        df["__part"] = stable_bucket(s, s, num_buckets)
        return df

    def write_group(df: "pd.DataFrame") -> "pd.DataFrame":
        import os

        import pyarrow.parquet as pq

        b = int(df["__part"].iloc[0])
        d = os.path.join(path, f"part={b:05d}")
        marker = os.path.join(d, "_SUCCESS")
        if skip_existing and os.path.exists(marker):
            return pd.DataFrame({"partition": [b], "rows": [0],
                                 "skipped": [True]})
        os.makedirs(d, exist_ok=True)
        t = pa.Table.from_pandas(df.drop(columns=["__part"]),
                                 preserve_index=False)
        tmp = os.path.join(d, ".tmp-data.parquet")
        pq.write_table(t, tmp, compression="zstd")
        os.replace(tmp, os.path.join(d, "data.parquet"))
        with open(marker + ".tmp", "w") as fh:
            fh.write(str(t.num_rows))
        os.replace(marker + ".tmp", marker)
        return pd.DataFrame({"partition": [b], "rows": [t.num_rows],
                             "skipped": [False]})

    # stays on map_groups: one directory per group, so the writer needs
    # each group alone, never a partition of several
    stats = (ds.map_batches(tag, batch_format="pandas")
             .groupby("__part")
             .map_groups(write_group, batch_format="pandas")
             .to_pandas())
    if stats.empty:                       # empty input: nothing written
        return pd.DataFrame({"partition": pd.Series(dtype="int64"),
                             "rows": pd.Series(dtype="int64"),
                             "skipped": pd.Series(dtype="bool")})
    return (stats.sort_values("partition").reset_index(drop=True)
            .astype({"partition": "int64", "rows": "int64",
                     "skipped": "bool"}))


def read_partitioned(path: str, columns: list[str] | None = None):
    """Read a write_partitioned() layout back as a Dataset (data files
    only — markers and stray tmp files are never touched)."""
    import glob

    from .util import read_parquet_clean, tune_context

    tune_context()
    files = sorted(glob.glob(f"{path}/part=*/data.parquet"))
    if not files:
        raise FileNotFoundError(f"no complete partitions under {path!r}")
    return read_parquet_clean(files, columns=columns)


def write_webdataset(ds, path: str, key_col: str = "__key__",
                     num_shards: int = 8, skip_existing: bool = True):
    """WebDataset tar-shard sink — the standard sharded layout for
    multimodal training corpora (one tar per shard; a sample's members
    are consecutive files sharing a basename: ``{key}.{ext}``).

    Contract: every non-key column NAME is the member extension
    (``txt``, ``json``, ``cls``, ``jpg``, ``bin``, ...); str cells are
    written utf-8, bytes raw, ints as ascii digits, null cells skipped.
    Samples hash-shard by key (stable_bucket) and sort by key inside a
    shard, so output bytes are run-layout-independent; each shard is
    written atomically (tmp + rename, then a ``_SUCCESS.{shard}``
    marker) from its OWN worker task — re-runs skip finished shards,
    the write_partitioned resumability protocol. Tar metadata (mtime,
    uid, uname) is zeroed for byte-determinism.

    Returns a pandas DataFrame (shard, samples, skipped)."""
    import pandas as pd

    from .ops import stable_bucket

    def tag(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.copy()
        s = df[key_col].astype(str)
        df["__shard"] = stable_bucket(s, s, num_shards)
        return df

    def write_shard(df: "pd.DataFrame") -> "pd.DataFrame":
        import io
        import os
        import tarfile

        import numpy as np

        b = int(df["__shard"].iloc[0])
        os.makedirs(path, exist_ok=True)
        marker = os.path.join(path, f"_SUCCESS.{b:05d}")
        if skip_existing and os.path.exists(marker):
            return pd.DataFrame({"shard": [b], "samples": [0],
                                 "skipped": [True]})
        df = df.drop(columns=["__shard"]).sort_values(key_col,
                                                      kind="mergesort")
        exts = [c for c in df.columns if c != key_col]
        tmp = os.path.join(path, f".tmp-shard-{b:05d}.tar")
        with tarfile.open(tmp, "w") as tf:
            for row in df.itertuples(index=False):
                r = dict(zip(df.columns, row))
                for ext in exts:
                    v = r[ext]
                    if v is None or (isinstance(v, float)
                                     and pd.isna(v)):
                        continue
                    if isinstance(v, (bytes, bytearray)):
                        payload = bytes(v)
                    elif isinstance(v, str):
                        payload = v.encode("utf-8")
                    else:
                        payload = str(int(v)).encode("ascii") \
                            if isinstance(v, (int, np.integer)) \
                            else str(v).encode("utf-8")
                    ti = tarfile.TarInfo(name=f"{r[key_col]}.{ext}")
                    ti.size = len(payload)
                    ti.mtime = 0
                    ti.uid = ti.gid = 0
                    ti.uname = ti.gname = ""
                    tf.addfile(ti, io.BytesIO(payload))
        os.replace(tmp, os.path.join(path, f"shard-{b:05d}.tar"))
        n = len(df)
        with open(marker + ".tmp", "w") as fh:
            fh.write(str(n))
        os.replace(marker + ".tmp", marker)
        return pd.DataFrame({"shard": [b], "samples": [n],
                             "skipped": [False]})

    # stays on map_groups: one tar per group (see write_partitioned)
    stats = (ds.map_batches(tag, batch_format="pandas")
             .groupby("__shard")
             .map_groups(write_shard, batch_format="pandas")
             .to_pandas())
    if stats.empty:
        return pd.DataFrame({"shard": pd.Series(dtype="int64"),
                             "samples": pd.Series(dtype="int64"),
                             "skipped": pd.Series(dtype="bool")})
    return (stats.sort_values("shard").reset_index(drop=True)
            .astype({"shard": "int64", "samples": "int64",
                     "skipped": "bool"}))


def read_webdataset(path):
    """WebDataset tar shard(s) → Dataset of samples, one decode task per
    shard (shard-level parallelism IS the partitioning — the layout
    exists so a 100-TB corpus streams as independent ~1 GB tars).

    Grouping follows the WebDataset rule: a sample's key is the member
    path up to the FIRST dot of its basename; consecutive same-key
    members form one sample (streaming — the whole tar is never held as
    rows). Decode by extension: ``txt`` → str, ``json`` → str (raw JSON
    text), ``cls`` → int64, anything else stays bytes. Missing members
    are null."""
    import ray.data as rd

    from .util import tune_context

    tune_context()
    bin_ds = rd.read_binary_files(path, file_extensions=["tar"])

    def decode(t: pa.Table) -> pa.Table:
        import io
        import tarfile

        rows = []
        for blob in t.column("bytes").to_pylist():
            tf = tarfile.open(fileobj=io.BytesIO(blob))
            cur_key, cur = None, None
            for m in tf:
                if not m.isfile():
                    continue
                d, _, base = m.name.rpartition("/")
                dot = base.find(".")
                if dot < 0:
                    key, ext = base, ""
                else:
                    key, ext = base[:dot], base[dot + 1:]
                if d:
                    key = d + "/" + key
                if key != cur_key:
                    if cur is not None:
                        rows.append(cur)
                    cur_key, cur = key, {"__key__": key}
                raw = tf.extractfile(m).read()
                if ext == "txt":
                    cur[ext] = raw.decode("utf-8")
                elif ext == "json":
                    cur[ext] = raw.decode("utf-8")
                elif ext == "cls":
                    cur[ext] = int(raw.decode("ascii"))
                else:
                    cur[ext] = raw
            if cur is not None:
                rows.append(cur)
        return pa.Table.from_pylist(rows)

    return bin_ds.map_batches(decode, batch_format="pyarrow",
                              batch_size=1)


def compact_table(path: str, target_bytes: int = 128 * 1024 * 1024):
    """Small-file compaction — the lakehouse OPTIMIZE primitive — for a
    directory of parquet files (a ``Dataset.write_parquet`` output
    accumulates one file per block; a long-lived table accumulates
    thousands): greedily bin existing files to ~``target_bytes``,
    rewrite each multi-file bin as ONE zstd file in its own Ray task,
    then swap on the driver. Swap order per bin: originals are first
    RENAMED to non-``.parquet`` names (``<name>.removed-<run>``), only
    then is the compacted file exposed, then the renamed originals
    unlink — so a glob-based reader never observes a bin's rows twice.
    Crash safety: before the first rename the table is untouched; a
    crash mid-swap can temporarily HIDE one bin's rows (never
    duplicate them) — recovery is mechanical: restore any
    ``*.removed-<run>`` files by stripping the suffix, delete stray
    ``.tmp-compact-*``. Row counts are verified against the originals
    before any destructive step.

    Returns {files_before, files_after, rows, bytes} (driver-small).
    """
    import glob
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    import uuid

    run = uuid.uuid4().hex[:8]
    files = sorted(glob.glob(os.path.join(path, "*.parquet")))
    sizes = {f: os.path.getsize(f) for f in files}
    bins: list[list[str]] = []
    cur: list[str] = []
    acc = 0
    for f in files:
        if cur and acc + sizes[f] > target_bytes:
            bins.append(cur)
            cur, acc = [], 0
        cur.append(f)
        acc += sizes[f]
    if cur:
        bins.append(cur)
    todo = [(i, b) for i, b in enumerate(bins) if len(b) > 1]
    total_rows = sum(pq.read_metadata(f).num_rows for f in files)
    if not todo:
        return {"files_before": len(files), "files_after": len(files),
                "rows": total_rows,
                "bytes": int(sum(sizes.values()))}

    def rewrite(df) -> "pa.Table":
        out = []
        for r in df.to_dict("records"):
            t = pa.concat_tables([pq.read_table(p)
                                  for p in r["paths"]])
            tmp = os.path.join(path,
                               f".tmp-compact-{r['run']}-{r['idx']:05d}")
            pq.write_table(t, tmp, compression="zstd")
            out.append({"idx": r["idx"], "rows": t.num_rows})
        return pa.Table.from_pylist(out)

    stats = (rd.from_items([{"idx": i, "paths": b, "run": run}
                            for i, b in todo])
             .map_batches(rewrite, batch_format="pandas", batch_size=1)
             .to_pandas())
    # verify before any destructive step
    for i, b in todo:
        want = sum(pq.read_metadata(f).num_rows for f in b)
        got = int(stats.loc[stats["idx"] == i, "rows"].iloc[0])
        if want != got:
            raise RuntimeError(f"compaction bin {i}: {got} rows "
                               f"rewritten vs {want} original")
    for i, b in todo:
        # hide the originals BEFORE exposing the compacted file: a
        # reader globbing *.parquet mid-swap may miss a bin's rows
        # momentarily but can never double-count them (ADVICE r04)
        for f in b:
            os.replace(f, f + f".removed-{run}")
        tmp = os.path.join(path, f".tmp-compact-{run}-{i:05d}")
        os.replace(tmp, os.path.join(
            path, f"compact-{run}-{i:05d}.parquet"))
        for f in b:
            os.remove(f + f".removed-{run}")
    after = sorted(glob.glob(os.path.join(path, "*.parquet")))
    return {"files_before": len(files), "files_after": len(after),
            "rows": total_rows,
            "bytes": int(sum(os.path.getsize(f) for f in after))}
