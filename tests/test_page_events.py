"""Page → revision events: the marker scan, the html.parser walk it
replaces on the event path, and the quarantine of malformed markers."""

import pyarrow as pa
import pytest

from gitprov_ray import extract, schemas, synth
from gitprov_ray.pipelines import flagship
from gitprov_ray.stages import emit, pages as pages_stage, triples, versions

# one resource marker each, malformed in a way that used to raise in the
# parse (a non-int or out-of-range count), to yield a null page_key or
# status, or to raise on a parent link without an href value
_MALFORMED = [
    '<li class="res" data-name="m" data-status="added" data-additions="x">',
    '<li class="res" data-name="m" data-status="added" data-changes=1e3>',
    '<li class="res" data-name data-status="added">',
    '<li class="res" data-name="m" data-status>',
    '<li class="res" data-name="m" data-status="added"'
    ' data-deletions="2147483648">',
    '<a rel="parent" href>p</a>',
]


def _good_pages(n_docs=6):
    return [p for i in range(n_docs)
            for p in synth.pages_rows_from_doc_row(
                900 + i, "alpha beta gamma delta " * 3, "en", f"src{i % 2}")]


def _with_marker(page, marker):
    html = page["html"].replace(b'<ul class="resources">',
                                b'<ul class="resources">' + marker.encode())
    return dict(page, html=html)


def _triples(events, graphs):
    """The flagship's kernels in process: lag, emit + flatten, dedup."""
    contributors = synth.contributors_for_sources(graphs).to_pylist()
    agents = triples.flatten_batch_compact(
        emit.emit_agents_table(contributors))
    compact = flagship.compact_from_lagged(
        versions.lag_events(events), emit.agents_index(contributors), agents)
    return triples._dedup_expand_sort_group(compact)


@pytest.mark.parametrize("marker", _MALFORMED)
def test_malformed_marker_quarantines_the_page(marker):
    page = _with_marker(_good_pages(1)[0], marker)["html"]
    for markers in (extract.parse_page(page), extract.page_markers(page)):
        assert markers["resources"] == []
    want = extract.parse_page(page)
    del want["text"]
    assert extract.page_markers(page) == want


def test_malformed_pages_yield_only_the_good_pages_events():
    good = _good_pages()
    # every other page gets a malformed marker; the one with an unknown
    # marked section (html.parser raised on it) keeps its events
    mixed, kept = [], []
    for i, page in enumerate(good):
        if i % 2:
            mixed.append(_with_marker(page, _MALFORMED[i // 2 % len(_MALFORMED)]))
        else:
            odd = _with_marker(page, "<![foo[x]]>") if i == 2 else page
            mixed.append(odd)
            kept.append(odd)
    table = lambda rows: pa.Table.from_pylist(rows, schema=schemas.PAGES)
    got = pages_stage.page_events_batch(table(mixed))
    want = pages_stage.page_events_batch(table(kept))
    assert want.num_rows > 0
    assert got.equals(want)
    graphs = sorted(set(got["graph"].to_pylist()))
    tri = _triples(got, graphs)
    assert tri.num_rows > 0
    assert tri["subj"].null_count == 0
    assert tri.equals(_triples(want, graphs))


def test_page_events_equal_the_parse_page_walk():
    """page_events_batch reads what parse_page reads, row for row."""
    pages = synth.gen_corpus(24)[0]
    got = pages_stage.page_events_batch(pages)
    rows = []
    for url, ts, html in zip(*(pages[c].to_pylist()
                               for c in ("url", "warc_ts", "html"))):
        p = extract.parse_page(html)
        for seq, r in enumerate(p["resources"]):
            rows.append({
                "graph": pages_stage.graph_of_url(url), "page_key": r["name"],
                "snapshot_id": synth.snapshot_sha(url, ts), "ts": ts,
                "author": p["author"], "author_name": p["author_name"],
                "label": p["label"], "change_status": r["status"],
                "event_seq": seq, "additions": r["additions"],
                "changes": r["changes"], "deletions": r["deletions"],
                "parents": p["parents"], "url": url})
    assert got.num_rows > 0
    assert got.equals(pa.Table.from_pylist(rows, schema=schemas.REVISIONS))
