"""Single-threaded reference-semantics oracle.

Replays the reference's per-request loop (ProvenanceService.java:116-189)
row-at-a-time over a revisions event table + contributors side table, using
the same statement builders as the engine (`prov.py`). This is the golden
generator for the P/R parity tests: the distributed Ray pipeline must
reproduce this oracle's triple set.

Mirrored semantics:
  * chronological order: commits processed oldest-first (Collections.reverse,
    ProvenanceService.java:128) → here: sort by (ts, snapshot_id);
  * one document per graph; agents are ALL contributors of the graph in
    table order, regardless of having commits (ProvenanceService.java:338);
  * ST2 author fallback for null logins (ProvenanceService.java:141-153):
    scan agents in contributor order, match on foaf:name == author_name,
    agents WITHOUT a name attr match by default, first match wins;
  * ST1 version chain: entityVersions[filename] appended after each file
    event of ANY status; parent sha = last element (ProvenanceService.java:
    294-299,:548-551);
  * ST3 base-entity first-touch dedup (ProvenanceService.java:378-394);
  * status dispatch (ProvenanceService.java:167-180);
  * quirk 4 policy: 'modified' with no prior version in the corpus → the
    reference NPEs; the engine (and this oracle) skip usage/derivation and
    count the row in `quarantined` (documented divergence);
  * pre-lag dedup of exact duplicate (page_key, snapshot_id) events.

`components` is the union-find reference for the engine's distributed
connected components.
"""

from __future__ import annotations

from collections import defaultdict

from . import prov


def build_statements(revision_rows: list[dict], contributor_rows: list[dict]):
    """→ (statements: list[dict], metrics: dict). Pure, deterministic."""
    by_graph_rev: dict[str, list[dict]] = defaultdict(list)
    for r in revision_rows:
        by_graph_rev[r["graph"]].append(r)
    by_graph_con: dict[str, list[dict]] = defaultdict(list)
    for c in contributor_rows:
        by_graph_con[c["graph"]].append(c)

    statements: list[dict] = []
    metrics = {"quarantined_no_prior": 0, "deduped_events": 0}

    for graph in sorted(by_graph_rev):
        revs = by_graph_rev[graph]
        contributors = by_graph_con.get(graph, [])

        # agents (processAllAgents, ProvenanceService.java:332-365)
        for c in contributors:
            statements.append(
                prov.stmt_agent(graph, c["login"], c["agent_type"],
                                c["contributions"], c["email"],
                                c["avatar_url"], c["name"])
            )

        # group events into commits; order commits chronologically
        commits: dict[str, list[dict]] = defaultdict(list)
        for r in revs:
            commits[r["snapshot_id"]].append(r)
        ordered = sorted(commits.values(), key=lambda rows: (rows[0]["ts"], rows[0]["snapshot_id"]))
        # within a commit the reference walks files in page order; pin that
        # with event_seq (stable → duplicate rows keep input order)
        ordered = [sorted(rows, key=lambda r: r.get("event_seq") or 0)
                   for rows in ordered]

        entity_versions: dict[str, list[str]] = {}
        base_seen: set[str] = set()

        for rows in ordered:
            head = rows[0]
            sha, ts, label = head["snapshot_id"], head["ts"], head["label"]

            # ST2 author resolution
            if head["author"] is not None:
                author = head["author"]
            else:
                author = _fallback_author(contributors, head["author_name"])

            statements.append(prov.stmt_activity(graph, sha, ts, label))
            statements.append(prov.stmt_association(graph, sha, author))

            seen_files: set[str] = set()
            for r in rows:
                f = r["page_key"]
                if f in seen_files:
                    metrics["deduped_events"] += 1
                    continue
                seen_files.add(f)
                statements.append(prov.stmt_entity(graph, f, sha))
                if f not in base_seen:
                    base_seen.add(f)
                    statements.append(prov.stmt_base_entity(graph, f))
                statements.append(prov.stmt_specialization(graph, f, sha))

                status = r["change_status"]
                if status == "added":
                    statements.append(prov.stmt_generation(graph, f, sha, ts))
                elif status == "removed":
                    statements.append(prov.stmt_invalidation(graph, f, sha, ts))
                elif status == "modified":
                    statements.append(prov.stmt_generation(graph, f, sha, ts))
                    chain = entity_versions.get(f)
                    if chain:
                        parent = chain[-1]
                        statements.append(prov.stmt_used(graph, f, sha, parent, ts))
                        statements.append(
                            prov.stmt_derivation(graph, f, sha, parent,
                                                 r["additions"], r["changes"],
                                                 r["deletions"])
                        )
                    else:
                        metrics["quarantined_no_prior"] += 1
                entity_versions.setdefault(f, []).append(sha)

            for parent in head["parents"] or []:
                statements.append(prov.stmt_informed(graph, sha, parent))

    return statements, metrics


def _fallback_author(contributors: list[dict], author_name) -> str:
    """ST2: first agent whose name matches, or that has no name (ProvenanceService.java:141-153)."""
    for c in contributors:
        if c["name"] is None or c["name"] == author_name:
            return c["login"]
    raise IndexError("no agent matched author fallback (reference would IOOBE)")


def build_triples(revision_rows, contributor_rows):
    """Oracle statements → deduplicated sorted triple rows (golden set)."""
    statements, metrics = build_statements(revision_rows, contributor_rows)
    triples = []
    for s in statements:
        triples.extend(prov.statement_to_triples(s))
    key = lambda t: (t["graph"], t["subj"], t["pred"], t["obj"])
    uniq = {key(t): t for t in triples}
    return [uniq[k] for k in sorted(uniq)], metrics


def components(pairs) -> dict:
    """Connected components of an undirected pair list by union-find:
    {node: smallest node of its component} over the pair endpoints (the
    reference for `linking.min_label_components`)."""
    parent: dict = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {x: find(x) for x in list(parent)}
