"""The flagship KG-construction pipeline (SURVEY.md §3.1 engine equivalent).

    read pages → map_batches(parse html → revision events)
               → bucket_exchange([graph, page_key], lag_events)
                                 [exchange 1: event dedup + version lag,
                                  every event column carried]
               → map_batches(emit_stateless_arrow + emit_status_arrow
                             + flatten_batch_compact
                             + agents rows of its graphs)  [compact triples]
               → bucket_exchange(compact key, _dedup_expand_sort_group)
                                 [exchange 2: dedup + expand + sort
                                  → final graph]

Two exchanges, one consumer per Dataset and no ``Union``: everything
streams, and no stage re-executes. Both exchanges are
``ops.bucket_exchange``: a boundary-given sort over fixed bucket ranges (no
sampling round) and one kernel call per partition on whole buckets. The
only side input is the tiny contributors table, broadcast in the compact
map's closure. Callers own the Ray session (the ``__ray_entry__.py``
contract) — nothing here calls ``ray.init``.
"""

from __future__ import annotations

import pyarrow as pa
import ray.data as rd

from ..stages import emit, pages as pages_stage, triples as triples_stage, versions
from .. import synth


def revisions_from_pages(pages_ds: "rd.Dataset") -> "rd.Dataset":
    # batch_size=None → one batch per block; the read stage already splits
    # into 2×CPU blocks, and explicit batch_size on a fused chain would
    # re-bundle by INPUT rows (pre-expansion), starving the cluster
    return pages_ds.map_batches(pages_stage.page_events_batch,
                                batch_format="pyarrow")


def compact_from_lagged(lagged: pa.Table, agents_idx: dict,
                        agents: pa.Table) -> pa.Table:
    """One block of lagged events (``versions.lag_events`` output) → compact
    triple rows: the stateless statements of every row, the status
    statements of the ``lag_first`` rows, flattened in the same task, plus
    the compact ``agents`` rows of the block's graphs."""
    import pyarrow.compute as pc

    stmts = pa.concat_tables([emit.emit_stateless_arrow(lagged, agents_idx),
                              versions.emit_status_arrow(lagged)])
    mine = agents.filter(pc.is_in(agents["graph"], pc.unique(lagged["graph"])))
    return pa.concat_tables([triples_stage.flatten_batch_compact(stmts), mine])


def triples_from_lagged(lagged_ds, contributor_rows, num_buckets: int = 64):
    """Lagged events → final deduplicated triples. The agents index and
    compact rows, built once here, broadcast via the serialized-once
    closure; each block carries its graphs' agent rows (none for a graph
    without events, as in the oracle), and the dedup exchange dedups them."""
    agents_idx = emit.agents_index(contributor_rows)
    agents = triples_stage.flatten_batch_compact(
        emit.emit_agents_table(contributor_rows))
    compact = lagged_ds.map_batches(
        lambda t: compact_from_lagged(t, agents_idx, agents),
        batch_format="pyarrow")
    # compact-id exchange: local names + predicate codes through the dedup
    # shuffle, URIs expanded post-dedup (~45% fewer shuffle bytes)
    return triples_stage.dedup_compact(compact, num_buckets=num_buckets)


def triples_from_revisions(revisions_ds, contributor_rows,
                           num_buckets: int = 64):
    # one consumer of the events: the lag exchange carries every column,
    # so nothing downstream re-reads (or re-executes) the parse
    return triples_from_lagged(
        versions.lag_exchange(revisions_ds, num_buckets=num_buckets),
        contributor_rows, num_buckets=num_buckets)


def triples_from_pages(pages_ds, contributor_rows, num_buckets: int = 64):
    return triples_from_revisions(revisions_from_pages(pages_ds),
                                  contributor_rows, num_buckets=num_buckets)


def flagship_from_pages_parquet(pages_path: str, contributor_rows: list[dict],
                                num_buckets: int = 64,
                                canonicalize: bool = False):
    """Run the flagship over a REAL pages table — a parquet of the
    BASELINE.json input_hint shape (url, warc_ts, html, text, lang), e.g.
    an actual crawl dump. Columns are pruned at the read (text is never
    needed; the extractor re-derives it from html in the same pass that
    parses the revision markers)."""
    from ..util import tune_context

    tune_context()
    from ..util import read_parquet_clean

    low = str(pages_path).lower()
    if low.endswith((".warc", ".warc.gz", ".wet", ".wet.gz")):
        from ..sources import read_warc

        pages_ds = read_warc(pages_path).map_batches(
            lambda t: t.select(["url", "warc_ts", "html"]),
            batch_format="pyarrow")
    elif low.endswith((".xml", ".xml.gz")):
        # dump-style XML pages (<page><url/><warc_ts/><html/></page>) —
        # the Wikipedia-dump ingestion edge; XML carries strings, so the
        # timestamp parses and html re-encodes to bytes here
        import pyarrow as pa

        from ..sources import read_table

        def to_pages(t: "pa.Table") -> "pa.Table":
            import pandas as pd

            ts = pd.to_datetime(t.column("warc_ts").to_pylist(),
                                utc=True).tz_localize(None)
            return pa.table({
                "url": t.column("url").cast(pa.string()),
                "warc_ts": pa.array(ts.astype("datetime64[us]"),
                                    pa.timestamp("us")),
                "html": pa.array([(s or "").encode("utf-8")
                                  for s in t.column("html").to_pylist()],
                                 pa.binary())})

        pages_ds = read_table(pages_path, fmt="xml",
                              record_tag="page").map_batches(
            to_pages, batch_format="pyarrow")
    else:
        pages_ds = read_parquet_clean(pages_path,
                                      columns=["url", "warc_ts", "html"])
    tri = triples_from_pages(pages_ds, contributor_rows,
                             num_buckets=num_buckets)
    return _maybe_canonicalize(tri, canonicalize, num_buckets)


def _maybe_canonicalize(tri, canonicalize: bool, num_buckets: int):
    if not canonicalize:
        return tri
    return canonicalize_triples(tri.materialize(), num_buckets=num_buckets)


def pages_from_documents(sf_dir: str, repeat: int = 1) -> "rd.Dataset":
    """documents.parquet → deterministic synthetic pages corpus (in-engine
    rendering; no external data). Column-pruned at the read."""
    from ..util import fanout, read_parquet_clean, tune_context

    tune_context()
    docs = read_parquet_clean(f"{sf_dir}/documents.parquet",
                              columns=["doc_id", "text", "lang", "source"])
    # the documents file is ONE row group → Ray reads it as 1-2 blocks,
    # and the (repeat×) html render + event parse downstream would run
    # near-serial regardless of cluster size. Re-split the (tiny) doc
    # rows BEFORE the expanding render so the heavy stages fan out —
    # measured: the 16-CPU scaling leg spent ~10 s in a 2-task render.
    docs = docs.repartition(fanout())
    return docs.map_batches(
        lambda b: pages_stage.render_pages_from_documents_batch(b, repeat),
        batch_format="pyarrow")


def contributors_for_sf(sf_dir: str) -> list[dict]:
    """Deterministic contributors side table for the documents-derived
    corpus. Distinct sources come from a DISTRIBUTED per-batch-dedup +
    hash-aggregate (`ops.distinct_keys`) — only the tiny distinct set ever
    reaches the driver, never the full source column (VERDICT r2 #6). A
    streaming per-batch scanner covers the no-Ray-session case (oracle
    replays in plain pytest)."""
    import os

    import ray

    # size-aware: below the threshold a driver-side STREAMING pyarrow
    # scan (per-batch unique, never the full column in memory) beats
    # spinning Ray aggregate actors for a distinct over a tiny file —
    # measured 10 s of actor startup on a loaded host for 500 rows. The
    # distributed path stays the default the moment the file is big.
    path = f"{sf_dir}/documents.parquet"
    small = os.path.getsize(path) < (256 << 20)
    if ray.is_initialized() and not small:
        from ..ops import distinct_keys
        from ..util import tune_context

        tune_context()
        from ..util import read_parquet_clean

        docs = read_parquet_clean(path, columns=["source"])
        srcs = distinct_keys(docs, "source").to_pandas()["source"]
    else:
        import pyarrow.dataset as pads

        seen: set[str] = set()
        scan = pads.dataset(path)
        for b in scan.to_batches(columns=["source"]):
            seen.update(b.column("source").unique().to_pylist())
        srcs = sorted(seen)
    graphs = sorted(f"{s}.example" for s in srcs)
    return synth.contributors_for_sources(graphs).to_pylist()


def canonicalize_triples(triples_ds, threshold: float = 0.7,
                         num_buckets: int = 64):
    """Opt-in entity-linking stage: cluster near-duplicate agent nodes
    (distributed MinHash+LSH + star-contraction components,
    linking.canonical_agent_map_ds), rewrite subj/obj to the canonical
    URIs, and re-dedup (rewrites can collide rows).

    The mapping never leaves the cluster: the rewrite is two bucketed
    left_outer joins on subj/obj (`linking.rewrite_canonical_ds`) — at web
    scale the near-dup agent slice is millions of URIs, too big for a
    driver-collected dict."""
    from .. import linking

    mapping_ds = linking.canonical_agent_map_ds(
        triples_ds, threshold=threshold).materialize()
    if mapping_ds.count() == 0:
        return triples_ds
    rewritten = linking.rewrite_canonical_ds(triples_ds, mapping_ds)
    return triples_stage.dedup_triples(rewritten, num_buckets=num_buckets)


def flagship(sf_dir: str, num_buckets: int = 64, repeat: int = 1,
             canonicalize: bool = False):
    """documents-derived pages → final deduped triples Dataset, each
    partition sorted by the triple key. ``canonicalize=True`` adds the
    opt-in agent entity-linking stage (cluster + rewrite + re-dedup)."""
    pages_ds = pages_from_documents(sf_dir, repeat=repeat)
    contributors = contributors_for_sf(sf_dir)
    tri = triples_from_pages(pages_ds, contributors, num_buckets=num_buckets)
    return _maybe_canonicalize(tri, canonicalize, num_buckets)
