"""PROV statement construction + statement→RDF-triple flattening.

Pure functions: the single-threaded oracle (`oracle.py`) mints statements
through these builders and flattens them through
:func:`statement_to_triples`; the distributed engine's vectorized kernels
(`stages/`) are pinned to them per batch (test_emit_vec.py,
test_flatten_vec.py), so triple P/R between engine and oracle measures the
distributed computation (ordering, lag, dedup, joins), not serialization
choices.

Statement payload/id semantics mirror the reference emitters
(ProvenanceService.java:302-519; id grammars in `idgen.py`). The
statement→triple flattening is this engine's pinned PROV-O-style mapping
(documented here, deterministic): direct edge triple + qualified node per
influence statement; attribute kinds map prov:label→rdfs:label, others keep
their CURIE; attribute values are typed literals except dtype ``@uri``
(object is an id in the graph namespace).

Replicated quirks (SURVEY.md §2.9): the derivation's cited
generation/usage ids are the reference's dangling ``generation-{sha}`` /
``usage-{sha}-{parentSha}`` forms (ProvenanceService.java:495,:497); every
agent's foaf:homepage is the graph-owner URL (ProvenanceService.java:341);
timestamps are pinned UTC (divergence from the reference's default-TZ
rendering, quirk 5, documented).
"""

from __future__ import annotations

import json
from datetime import datetime

from . import idgen
from .schemas import STMT_RANK

PREFIXES = {
    "prov": "http://www.w3.org/ns/prov#",
    "foaf": "http://xmlns.com/foaf/0.1/",
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "rdfs": "http://www.w3.org/2000/01/rdf-schema#",
    "xsd": "http://www.w3.org/2001/XMLSchema#",
}


def expand(curie: str, graph: str) -> str:
    """CURIE → full URI; the ``gitprov`` prefix expands per graph."""
    pfx, local = curie.split(":", 1)
    if pfx == "gitprov":
        return idgen.graph_ns(graph) + local
    return PREFIXES[pfx] + local


def _stmt(stmt_type, id_, subj, obj, secondary=None, t=None, attrs=None, graph=""):
    return {
        "stmt_type": stmt_type,
        "id": id_,
        "subj": subj,
        "obj": obj,
        "secondary": secondary,
        "t": t,
        "attrs": json.dumps(attrs or {}, ensure_ascii=False, sort_keys=True),
        "graph": graph,
        "stmt_rank": STMT_RANK[stmt_type],
    }


# ---------------------------------------------------------------------------
# statement builders (one per reference emitter, SURVEY.md §2.9)
# ---------------------------------------------------------------------------

def stmt_activity(graph: str, sha: str, ts: datetime | None, label: str) -> dict:
    """ProvenanceService.java:302-319."""
    attrs = {
        "foaf:homepage": [idgen.commit_url(graph, sha), "xsd:anyURI"],
        "prov:label": [label, "xsd:string"],
    }
    return _stmt("activity", idgen.activity_id(sha), idgen.activity_id(sha),
                 None, t=ts, attrs=attrs, graph=graph)


def stmt_agent(graph, login, agent_type, contributions, email, avatar_url, name) -> dict:
    """ProvenanceService.java:332-365. Quirk 2: homepage = owner URL for all."""
    attrs = {
        "prov:type": [agent_type, "xsd:string"],
        "foaf:homepage": [idgen.user_url(graph), "xsd:anyURI"],
        "prov:label": [login, "xsd:string"],
        "gitprov:contributions": [int(contributions), "xsd:int"],
    }
    if email is not None:
        attrs["foaf:mbox"] = [email, "xsd:string"]
    attrs["foaf:img"] = [avatar_url, "xsd:anyURI"]
    if name is not None:
        attrs["foaf:name"] = [name, "xsd:string"]
    return _stmt("agent", idgen.agent_id(login), idgen.agent_id(login),
                 None, attrs=attrs, graph=graph)


def stmt_association(graph: str, sha: str, resolved_login: str) -> dict:
    """ProvenanceService.java:471-479."""
    return _stmt("wasAssociatedWith", idgen.association_id(sha),
                 idgen.activity_id(sha), idgen.agent_id(resolved_login),
                 attrs={"prov:role": ["authorship", "xsd:string"]}, graph=graph)


def stmt_entity(graph: str, filename: str, sha: str) -> dict:
    """Specialized entity, ProvenanceService.java:162-164,:328-330."""
    return _stmt("entity",
                 idgen.entity_id(idgen.specialized_entity_name(filename, sha)),
                 idgen.entity_id(idgen.specialized_entity_name(filename, sha)),
                 None, attrs={"prov:label": [filename, "xsd:string"]}, graph=graph)


def stmt_base_entity(graph: str, filename: str) -> dict:
    """ProvenanceService.java:378-394 (first-touch dedup handled upstream)."""
    return _stmt("base_entity", idgen.entity_id(idgen.base_entity_name(filename)),
                 idgen.entity_id(idgen.base_entity_name(filename)),
                 None, attrs={"prov:label": [filename, "xsd:string"]}, graph=graph)


def stmt_specialization(graph: str, filename: str, sha: str) -> dict:
    """ProvenanceService.java:391-393 (unqualified)."""
    return _stmt("specializationOf", None,
                 idgen.entity_id(idgen.specialized_entity_name(filename, sha)),
                 idgen.entity_id(idgen.base_entity_name(filename)), graph=graph)


def stmt_generation(graph, filename, sha, ts) -> dict:
    """ProvenanceService.java:405-416."""
    return _stmt("wasGeneratedBy", idgen.generation_id(filename, sha),
                 idgen.entity_id(idgen.specialized_entity_name(filename, sha)),
                 idgen.activity_id(sha), t=ts, graph=graph)


def stmt_invalidation(graph, filename, sha, ts) -> dict:
    """ProvenanceService.java:427-437."""
    return _stmt("wasInvalidatedBy", idgen.invalidation_id(filename, sha),
                 idgen.entity_id(idgen.specialized_entity_name(filename, sha)),
                 idgen.activity_id(sha), t=ts, graph=graph)


def stmt_used(graph, filename, sha, parent_sha, ts) -> dict:
    """ProvenanceService.java:447-462: object = parent's specialized entity."""
    return _stmt("used", idgen.usage_id(filename, sha, parent_sha),
                 idgen.activity_id(sha),
                 idgen.entity_id(idgen.specialized_entity_name(filename, parent_sha)),
                 t=ts, graph=graph)


def stmt_derivation(graph, filename, sha, parent_sha, additions, changes, deletions) -> dict:
    """ProvenanceService.java:489-504 with quirk-1 dangling citations."""
    attrs = {
        "gitprov:additions": [int(additions), "xsd:int"],
        "gitprov:changes": [int(changes), "xsd:int"],
        "gitprov:deletions": [int(deletions), "xsd:int"],
        "prov:hadGeneration": [idgen.derivation_cited_generation_id(sha), "@uri"],
        "prov:hadUsage": [idgen.derivation_cited_usage_id(sha, parent_sha), "@uri"],
    }
    return _stmt("wasDerivedFrom", idgen.derivation_id(filename, sha, parent_sha),
                 idgen.entity_id(idgen.specialized_entity_name(filename, sha)),
                 idgen.entity_id(idgen.specialized_entity_name(filename, parent_sha)),
                 secondary=idgen.activity_id(sha), attrs=attrs, graph=graph)


def stmt_informed(graph, sha, parent_sha) -> dict:
    """ProvenanceService.java:513-519."""
    return _stmt("wasInformedBy", idgen.communication_id(parent_sha, sha),
                 idgen.activity_id(sha), idgen.activity_id(parent_sha), graph=graph)


# ---------------------------------------------------------------------------
# statement → triples flattening (pinned PROV-O-style mapping)
# ---------------------------------------------------------------------------

def _iso(t) -> str:
    if isinstance(t, datetime):
        return t.isoformat()
    return str(t)


_ATTR_PRED = {"prov:label": "rdfs:label"}

_INFLUENCE = {
    # stmt_type: (direct pred, qualified pred, node class, subj-side pred for obj)
    "wasGeneratedBy": ("prov:wasGeneratedBy", "prov:qualifiedGeneration",
                       "prov:Generation", "prov:activity"),
    "wasInvalidatedBy": ("prov:wasInvalidatedBy", "prov:qualifiedInvalidation",
                         "prov:Invalidation", "prov:activity"),
    "used": ("prov:used", "prov:qualifiedUsage", "prov:Usage", "prov:entity"),
    "wasInformedBy": ("prov:wasInformedBy", "prov:qualifiedCommunication",
                      "prov:Communication", "prov:activity"),
    "wasAssociatedWith": ("prov:wasAssociatedWith", "prov:qualifiedAssociation",
                          "prov:Association", "prov:agent"),
    "wasDerivedFrom": ("prov:wasDerivedFrom", "prov:qualifiedDerivation",
                       "prov:Derivation", "prov:entity"),
}

_NODE_CLASS = {"activity": "prov:Activity", "agent": "prov:Agent",
               "entity": "prov:Entity", "base_entity": "prov:Entity"}

_TIME_PRED = {"activity": "prov:startedAtTime"}


TRIPLE_COL_NAMES = ("subj", "pred", "obj", "obj_is_literal", "obj_dtype", "graph")


def statement_to_triples(stmt: dict) -> list[dict]:
    """Flatten one statement row into RDF triple rows. Used by the oracle;
    the engine's compact flatten (``stages/triples.py``) is pinned to it
    per batch by test_flatten_vec.py."""
    g = stmt["graph"]
    gp = idgen.graph_ns(g)
    out: list[dict] = []

    def tri(s, p, o, lit=False, dtype=""):
        out.append({"subj": s, "pred": expand(p, g), "obj": o,
                    "obj_is_literal": lit, "obj_dtype": dtype, "graph": g})

    attrs = json.loads(stmt["attrs"]) if stmt["attrs"] else {}
    st = stmt["stmt_type"]
    t = stmt["t"]

    def emit_attrs(node):
        for pred, (val, dtype) in sorted(attrs.items()):
            if dtype == "@uri":
                tri(node, pred, gp + str(val))
            else:
                tri(node, _ATTR_PRED.get(pred, pred), str(val), lit=True,
                    dtype=dtype)

    if st in _NODE_CLASS:
        node = gp + stmt["subj"]
        tri(node, "rdf:type", expand(_NODE_CLASS[st], g))
        if t is not None and st in _TIME_PRED:
            tri(node, _TIME_PRED[st], _iso(t), lit=True, dtype="xsd:dateTime")
        emit_attrs(node)
    elif st == "specializationOf":
        tri(gp + stmt["subj"], "prov:specializationOf", gp + stmt["obj"])
    elif st in _INFLUENCE:
        direct, qpred, qcls, opred = _INFLUENCE[st]
        subj = gp + stmt["subj"]
        obj = gp + stmt["obj"]
        node = gp + stmt["id"]
        if direct:
            tri(subj, direct, obj)
        tri(subj, qpred, node)
        tri(node, "rdf:type", expand(qcls, g))
        tri(node, opred, obj)
        if stmt.get("secondary"):
            tri(node, "prov:hadActivity", gp + stmt["secondary"])
        if t is not None:
            tri(node, "prov:atTime", _iso(t), lit=True, dtype="xsd:dateTime")
        emit_attrs(node)
    else:  # pragma: no cover
        raise ValueError(f"unknown stmt_type {st!r}")
    return out
