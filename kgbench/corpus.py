"""Seeded inputs for the KG benchmark.

Everything the engine reads is generated here from ``--seed``: a
documents table, the pages rendered from it, the update batches, and the
single-threaded oracle's expected triples. The engine sees only the
generated tables; the seed itself never reaches it.

The seed picks the doc-id offset (which moves every url, snapshot id,
timestamp, author and resource name), the words and language of each
document, and which graphs each update batch touches. The offset is a
multiple of 60, so every seed yields the same number of snapshots and
events per graph and run-to-run spread measures the engine, not the
input size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import pyarrow as pa

from gitprov_ray import oracle, schemas, synth

N_GRAPHS = 20
_LANGS = ["en", "de", "fr", "es", "zh"]
_VOCAB = (
    "graph triple entity agent activity lineage snapshot crawl page link "
    "canonical minhash shuffle arrow batch block stream merge partition "
    "query window join filter scan version commit author resource store"
).split()

KEY = ("graph", "subj", "pred", "obj")
PROV_USED = "http://www.w3.org/ns/prov#used"
PROV_ACTIVITY = "http://www.w3.org/ns/prov#Activity"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"


@dataclass
class Doc:
    doc_id: int
    text: str
    lang: str
    source: str
    pages: list[dict] = field(default_factory=list)      # snapshot order
    revisions: list[dict] = field(default_factory=list)

    @property
    def graph(self) -> str:
        return f"{self.source}.example"


def make_docs(seed: int, n_docs: int) -> list[Doc]:
    rng = random.Random(seed)
    offset = rng.randrange(1, 1_000_000) * 60
    docs = []
    for i in range(n_docs):
        doc_id = offset + i
        text = " ".join(rng.choice(_VOCAB) for _ in range(rng.randint(8, 60)))
        d = Doc(doc_id, text, rng.choice(_LANGS), f"src{doc_id % N_GRAPHS}")
        d.pages = synth.pages_rows_from_doc_row(d.doc_id, d.text, d.lang,
                                                d.source)
        d.revisions = synth.revisions_rows_from_doc_row(
            d.doc_id, d.text, d.lang, d.source)
        docs.append(d)
    return docs


def graphs_of(docs: list[Doc]) -> list[str]:
    return sorted({d.graph for d in docs})


def contributors(graphs: list[str]) -> list[dict]:
    return synth.contributors_for_sources(graphs).to_pylist()


def documents_table(docs: list[Doc]) -> pa.Table:
    return pa.table({
        "doc_id": pa.array([d.doc_id for d in docs], pa.int64()),
        "text": [d.text for d in docs],
        "lang": [d.lang for d in docs],
        "source": [d.source for d in docs],
    })


def pages_table(pages: list[dict]) -> pa.Table:
    return pa.Table.from_pylist(pages, schema=schemas.PAGES)


def snapshot_id(page: dict) -> str:
    return synth.snapshot_sha(page["url"], page["warc_ts"])


def revisions_for(docs: list[Doc], snapshots: set[str] | None = None):
    """Oracle input: the revision rows of ``docs``, restricted to the
    delivered ``snapshots`` when given."""
    return [r for d in docs for r in d.revisions
            if snapshots is None or r["snapshot_id"] in snapshots]


def expected_triples(revision_rows: list[dict], graphs: list[str]) -> set:
    """The oracle's (graph, subj, pred, obj) set; the contributors side
    table covers ``graphs``, as the engine's does."""
    rows, _ = oracle.build_triples(revision_rows, contributors(graphs))
    return {tuple(r[k] for k in KEY) for r in rows}


def used_per_graph(triples: set) -> dict[str, int]:
    """Per graph, the (activity, entity) pairs the activity-stats query
    counts: prov:used triples whose subject is typed prov:Activity."""
    activities = {(g, s) for g, s, p, o in triples
                  if p == RDF_TYPE and o == PROV_ACTIVITY}
    out: dict[str, int] = {}
    for g, s, p, _ in triples:
        if p == PROV_USED and (g, s) in activities:
            out[g] = out.get(g, 0) + 1
    return out


@dataclass
class UpdatePlan:
    """Update workload inputs: a base with the first snapshot of every
    url, then batches of later snapshots for seed-chosen graphs."""
    base_docs: list[Doc]            # docs with a single snapshot
    first_pages: list[dict]         # first snapshot of every other doc
    batches: list[list[dict]]       # later snapshots, one graph pair each


def update_plan(seed: int, docs: list[Doc], n_batches: int) -> UpdatePlan:
    """Each batch touches a pair of graphs: graphs ranked by event count are
    paired smallest with largest, and the seed picks ``n_batches`` pairs.
    Every pair then holds about the same number of events, so the triples
    a merge rewrites vary by well under 1% between seeds (a free pick of
    two graphs varies by 5%)."""
    rng = random.Random(seed * 7919 + 1)
    events: dict[str, int] = {}
    for d in docs:
        events[d.graph] = events.get(d.graph, 0) + len(d.revisions)
    ranked = sorted(events, key=lambda g: (events[g], g))
    pairs = [sorted((ranked[i], ranked[-1 - i]))
             for i in range(len(ranked) // 2)]
    groups = rng.sample(pairs, n_batches)
    base = [d for d in docs if len(d.pages) == 1]
    multi = [d for d in docs if len(d.pages) > 1]
    batches = [[p for d in multi if d.graph in g for p in d.pages[1:]]
               for g in groups]
    return UpdatePlan(base, [d.pages[0] for d in multi], batches)
