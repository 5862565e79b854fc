"""Pages-table stages: html parsing → extracted text / revision events.

Stateless ``map_batches`` functions over ``batch_format="pyarrow"`` batches.
The html column is parsed ONCE per stage and projected away immediately
(SURVEY.md §7 hard part 6: keep wide binary columns out of downstream
stages).
"""

from __future__ import annotations

from urllib.parse import urlparse

import pyarrow as pa

from .. import schemas
from ..extract import parse_page
from ..synth import snapshot_sha


def graph_of_url(url: str) -> str:
    """graph = host of the url (the generalized owner/name)."""
    return urlparse(url).netloc


def extract_text_batch(batch: pa.Table) -> pa.Table:
    """pages → (url, warc_ts, text, lang): the deterministic DOM-pruning
    extractor (input_hint per-row invariant). Drops the html column."""
    texts = [parse_page(h) ["text"] if h is not None else ""
             for h in batch.column("html").to_pylist()]
    return pa.table(
        {
            "url": batch.column("url"),
            "warc_ts": batch.column("warc_ts"),
            "text": pa.array(texts, type=pa.string()),
            "lang": batch.column("lang"),
        }
    )


def page_events_batch(batch: pa.Table) -> pa.Table:
    """pages → REVISIONS rows (the generalized commit×file explode).

    One output row per (snapshot, resource marker). snapshot_id is
    re-derived as sha1(url|ts) — the engine never needs an id column in the
    input. Pages with no parseable resource events (empty/boilerplate html)
    are quarantined: they yield no rows (M15/M16 policy). No counter records
    them yet — the run metrics (``checkpoint._run_metrics``) count events,
    not pages.
    """
    urls = batch.column("url").to_pylist()
    tss = batch.column("warc_ts").to_pylist()
    htmls = batch.column("html").to_pylist()
    out: dict[str, list] = {name: [] for name in schemas.REVISIONS.names}
    for url, ts, html in zip(urls, tss, htmls):
        if not html:
            continue
        p = parse_page(html)
        if not p["resources"]:
            continue
        graph = graph_of_url(url)
        sha = snapshot_sha(url, ts)
        for seq, r in enumerate(p["resources"]):
            out["graph"].append(graph)
            out["page_key"].append(r["name"])
            out["snapshot_id"].append(sha)
            out["ts"].append(ts)
            out["author"].append(p["author"])
            out["author_name"].append(p["author_name"])
            out["label"].append(p["label"])
            out["change_status"].append(r["status"])
            out["event_seq"].append(seq)
            out["additions"].append(r["additions"])
            out["changes"].append(r["changes"])
            out["deletions"].append(r["deletions"])
            out["parents"].append(p["parents"])
            out["url"].append(url)
    return pa.Table.from_pydict(out, schema=schemas.REVISIONS)


def render_pages_from_documents_batch(batch: pa.Table, repeat: int = 1) -> pa.Table:
    """documents-table batch → PAGES rows (deterministic per-row derivation,
    synth.pages_rows_from_doc_row). Lets the flagship run over the driver's
    /root/testdata documents tables with no external data.

    ``repeat`` deterministically replicates each document under shifted
    doc_ids (disjoint url/graph-key spaces) — the bench corpus multiplier."""
    from ..synth import pages_rows_from_doc_row

    rows: list[dict] = []
    for doc_id, text, lang, source in zip(
        batch.column("doc_id").to_pylist(),
        batch.column("text").to_pylist(),
        batch.column("lang").to_pylist(),
        batch.column("source").to_pylist(),
    ):
        for r in range(repeat):
            rows.extend(pages_rows_from_doc_row(
                doc_id + r * 10_000_000, text or "", lang, source))
    return pa.Table.from_pylist(rows, schema=schemas.PAGES)
