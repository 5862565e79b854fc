"""Pages-table stages: html parsing → extracted text / revision events.

Stateless ``map_batches`` functions over ``batch_format="pyarrow"`` batches.
The html column is parsed ONCE per stage and projected away immediately
(SURVEY.md §7 hard part 6: keep wide binary columns out of downstream
stages). The event path reads only the revision markers
(``extract.page_markers``); a page with no resource marker, or with a
malformed resource or parent marker, is quarantined: it yields no events.
"""

from __future__ import annotations

from urllib.parse import urlparse

import pyarrow as pa

from .. import schemas
from ..extract import page_markers, parse_page
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
    input. The markers come from ``extract.page_markers``, which never
    builds the pruned text. A page is quarantined, yielding no rows (M15/M16
    policy), when it has no html or no resource markers (empty/boilerplate
    pages), or when a resource or parent marker is malformed: a valueless
    ``data-name``, ``data-status`` or ``href``, or a count that is not an
    int32. No counter records them yet — the run metrics
    (``checkpoint._run_metrics``) count events, not pages.
    """
    urls = batch.column("url").to_pylist()
    tss = batch.column("warc_ts").to_pylist()
    pages, res = [], []                  # (url, ts, markers) per kept page
    for url, ts, html in zip(urls, tss, batch.column("html").to_pylist()):
        if html:
            m = page_markers(html)
            if m["resources"]:
                pages.append((url, ts, m))
                res.extend(m["resources"])

    def per_event(values):               # one page value per resource
        return [v for v, (_, _, m) in zip(values, pages)
                for _ in m["resources"]]

    page_urls = [u for u, _, _ in pages]
    return pa.Table.from_pydict({
        "graph": per_event([graph_of_url(u) for u in page_urls]),
        "page_key": [r["name"] for r in res],
        "snapshot_id": per_event([snapshot_sha(u, t) for u, t, _ in pages]),
        "ts": per_event([t for _, t, _ in pages]),
        "author": per_event([m["author"] for _, _, m in pages]),
        "author_name": per_event([m["author_name"] for _, _, m in pages]),
        "label": per_event([m["label"] for _, _, m in pages]),
        "change_status": [r["status"] for r in res],
        "event_seq": [i for _, _, m in pages
                      for i in range(len(m["resources"]))],
        "additions": [r["additions"] for r in res],
        "changes": [r["changes"] for r in res],
        "deletions": [r["deletions"] for r in res],
        "parents": per_event([m["parents"] for _, _, m in pages]),
        "url": per_event(page_urls),
    }, schema=schemas.REVISIONS)


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
