"""Store roundtrip, serializer, N-Triples parse, SPARQL-lite tests."""

import os

import pandas as pd
import pytest


@pytest.fixture(scope="module")
def tiny_triples(tiny_corpus, ray_session):
    import ray.data as rd
    from gitprov_ray.pipelines import flagship

    pages, _, contributors = tiny_corpus
    ds = flagship.triples_from_pages(rd.from_arrow(pages),
                                     contributors.to_pylist(), num_buckets=4)
    return ds.to_pandas()


@pytest.mark.usefixtures("ray_session")
def test_store_roundtrip(tiny_triples, tmp_path):
    import ray.data as rd
    from gitprov_ray import store

    root = str(tmp_path / "store")
    ds = rd.from_pandas(tiny_triples)
    written = store.write_store(ds, root, fingerprint="test-fp")
    assert sum(written.values()) == len(tiny_triples)
    graphs = store.list_graphs(root)
    assert sorted(written) == graphs
    # partition-filtered read returns exactly that graph's triples
    g0 = graphs[0]
    back = store.read_store(root, g0).to_pandas()
    exp = tiny_triples[tiny_triples.graph == g0]
    assert set(zip(back.subj, back.pred, back.obj)) == set(
        zip(exp.subj, exp.pred, exp.obj))
    # replace-on-store: writing again replaces, not duplicates
    store.write_store(rd.from_pandas(exp), root)
    again = store.read_store(root, g0).to_pandas()
    assert len(again) == len(exp)
    # skip_existing leaves valid partitions alone
    w2 = store.write_store(rd.from_pandas(exp), root, skip_existing=True)
    assert w2 == {}
    # catalog splits host names, drops malformed
    cat = store.store_catalog(root)
    assert all(len(t) == 2 for t in cat)


def test_ntriples_roundtrip(tiny_triples):
    from gitprov_ray import serializers

    text = serializers.to_ntriples(tiny_triples)
    rows = serializers.parse_ntriples(text)
    orig = set(zip(tiny_triples.graph, tiny_triples.subj, tiny_triples.pred,
                   tiny_triples.obj))
    back = {(r["graph"], r["subj"], r["pred"], r["obj"]) for r in rows}
    assert back == orig
    # literals keep dtypes through the roundtrip
    lit = [r for r in rows if r["obj_is_literal"]]
    assert any(r["obj_dtype"] == "xsd:dateTime" for r in lit)
    assert any(r["obj_dtype"] == "xsd:int" for r in lit)


def test_turtle_and_nquads_render(tiny_triples):
    from gitprov_ray import serializers

    ttl = serializers.to_turtle(tiny_triples.head(200))
    assert "@prefix prov:" in ttl
    nq = serializers.to_nquads(tiny_triples.head(5))
    assert nq.count("\n") == 5
    # determinism
    assert ttl == serializers.to_turtle(tiny_triples.head(200))


def test_serialize_dispatch_validates():
    from gitprov_ray import serializers

    with pytest.raises(ValueError):
        serializers.serialize(pd.DataFrame(), "application/x-not-a-format")
    # application/pdf IS a format now (provviz) — empty frame, valid doc
    assert serializers.serialize(pd.DataFrame(), "application/pdf")[:5] \
        == b"%PDF-"


def test_provn_category_major_order(tiny_corpus):
    from gitprov_ray import oracle, serializers

    _, revisions, contributors = tiny_corpus
    stmts, _ = oracle.build_statements(revisions.to_pylist()[:40],
                                       contributors.to_pylist()[:2])
    text = serializers.to_provn(stmts)
    assert text.startswith("document\n")
    # activities come before agents before associations (O2)
    first_act = text.index("activity(")
    first_agent = text.index("agent(")
    assert first_act < first_agent


@pytest.mark.usefixtures("ray_session")
def test_sparql_bgp_join(tiny_triples):
    import ray.data as rd
    from gitprov_ray import sparql_lite

    ds = rd.from_pandas(tiny_triples)
    # activities and the agents they were associated with
    res = sparql_lite.select(
        ds,
        patterns=[("?act", "prov:wasAssociatedWith", "?agent"),
                  ("?act", "rdf:type", "prov:Activity")],
        variables=["?act", "?agent"], distinct=True)
    assert len(res) > 0
    assert set(res.columns) == {"act", "agent"}
    # every bound act is an Activity subject associated with an agent
    direct = tiny_triples[
        tiny_triples.pred.str.endswith("wasAssociatedWith")]
    assert set(res["act"]) <= set(direct.subj)


@pytest.mark.usefixtures("ray_session")
def test_sparql_bound_subject_and_limit(tiny_triples):
    import ray.data as rd
    from gitprov_ray import sparql_lite

    ds = rd.from_pandas(tiny_triples)
    some_subj = tiny_triples.subj.iloc[0]
    res = sparql_lite.select(ds, [(some_subj, "?p", "?o")], limit=3)
    assert 0 < len(res) <= 3


def test_trig_render(tiny_triples):
    from gitprov_ray import serializers

    trig = serializers.to_trig(tiny_triples.head(50))
    assert trig.count("{") == trig.count("}")
    assert "https://gitprov.example/graph/" in trig
    assert trig == serializers.to_trig(tiny_triples.head(50))


def test_turtle_roundtrip(tiny_triples):
    """engine triples → to_turtle → parse_turtle → identical triple set
    (the store-ingest path the reference supports via Turtle,
    JenaUtils.java:43-54)."""
    from gitprov_ray import serializers

    text = serializers.to_turtle(tiny_triples)
    rows = serializers.parse_turtle(text)
    key = ["graph", "subj", "pred", "obj", "obj_is_literal", "obj_dtype"]
    orig = set(map(tuple, tiny_triples[key].itertuples(index=False)))
    back = {(r["graph"], r["subj"], r["pred"], r["obj"], r["obj_is_literal"],
             r["obj_dtype"]) for r in rows}
    assert back == orig


def test_rdfxml_render_wellformed(tiny_triples):
    import xml.etree.ElementTree as ET

    from gitprov_ray import serializers

    sub = tiny_triples.head(300)
    xml = serializers.to_rdfxml(sub)
    root = ET.fromstring(xml)
    assert root.tag.endswith("RDF")
    n_desc = len(list(root))
    assert n_desc == sub["subj"].nunique()
    # every triple appears as one child element of its description
    n_props = sum(len(list(d)) for d in root)
    assert n_props == len(sub)
    assert xml == serializers.to_rdfxml(sub)   # deterministic


def test_jsonld_and_rdfjson_render(tiny_triples):
    import json as _json

    from gitprov_ray import serializers

    sub = tiny_triples.head(200)
    ld = _json.loads(serializers.to_jsonld(sub))
    assert set(n["@id"] for n in ld["@graph"]) == set(sub["subj"].unique())
    rj = _json.loads(serializers.to_rdfjson(sub))
    n = sum(len(vals) for preds in rj.values() for vals in preds.values())
    assert n == len(sub)


def test_parse_dispatch(tiny_triples):
    from gitprov_ray import serializers

    sub = tiny_triples.head(50)
    rows = serializers.parse(serializers.to_turtle(sub), "text/turtle")
    assert len(rows) == len(sub)
    with pytest.raises(ValueError):
        serializers.parse("", "application/pdf")
    # new formats route through serialize()
    assert serializers.serialize(sub, "application/rdf+xml").startswith("<rdf:RDF")
    assert serializers.serialize(sub, "text/n3").startswith("@prefix")


@pytest.mark.usefixtures("ray_session")
def test_sparql_text_frontend(tiny_triples):
    import ray.data as rd

    from gitprov_ray import sparql_lite

    ds = rd.from_pandas(tiny_triples)
    q = """
        PREFIX prov: <http://www.w3.org/ns/prov#>
        PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
        SELECT DISTINCT ?act ?agent WHERE {
            ?act prov:wasAssociatedWith ?agent .
            ?act rdf:type prov:Activity .
        } ORDER BY ?act ?agent
    """
    res = sparql_lite.select_text(ds, q)
    # must equal the pre-parsed BGP API on the same patterns
    ref = sparql_lite.select(
        ds, patterns=[("?act", "prov:wasAssociatedWith", "?agent"),
                      ("?act", "rdf:type", "prov:Activity")],
        variables=["?act", "?agent"], distinct=True,
        order_by=["?act", "?agent"])
    assert res.reset_index(drop=True).equals(ref.sort_values(
        ["act", "agent"]).reset_index(drop=True))
    assert len(res) > 0


@pytest.mark.usefixtures("ray_session")
def test_sparql_text_filter_regex_limit(tiny_triples):
    import ray.data as rd

    from gitprov_ray import sparql_lite

    ds = rd.from_pandas(tiny_triples)
    q = """
        SELECT ?s ?o WHERE {
            ?s rdfs:label ?o .
            FILTER (regex(?o, "^s"))
            FILTER (?o != "snapshot")
        } ORDER BY ?s LIMIT 5
    """
    res = sparql_lite.select_text(ds, q)
    assert len(res) <= 5
    assert all(str(o).startswith("s") for o in res["o"])


def test_sparql_text_syntax_errors():
    from gitprov_ray import sparql_lite

    for bad in ("SELECT ?x { ?x ?p ?o", "FOO ?x WHERE { }",
                "SELECT ?x WHERE { ?x ?p ?o . FILTER (?x ~ 3) }"):
        with pytest.raises(sparql_lite.SparqlSyntaxError):
            sparql_lite.parse_select(bad)


def test_prov_json_render(tiny_corpus):
    import json
    from gitprov_ray import oracle, serializers

    _, revisions, contributors = tiny_corpus
    stmts, _ = oracle.build_statements(revisions.to_pylist()[:30],
                                       contributors.to_pylist()[:2])
    doc = json.loads(serializers.to_prov_json(stmts))
    assert "activity" in doc and "agent" in doc
    # deterministic
    assert serializers.to_prov_json(stmts) == serializers.to_prov_json(stmts)


@pytest.mark.usefixtures("ray_session")
def test_sparql_distributed_matches_driver(tiny_triples):
    """The distributed BGP join path must produce the same bindings as the
    driver-side merge."""
    import ray.data as rd

    from gitprov_ray import sparql_lite

    ds = rd.from_pandas(tiny_triples)
    patterns = [("?act", "prov:wasAssociatedWith", "?agent"),
                ("?act", "rdf:type", "prov:Activity")]
    drv = sparql_lite.select(ds, patterns, variables=["?act", "?agent"],
                             distinct=True)
    dist = sparql_lite.select_distributed(
        ds, patterns, variables=["?act", "?agent"], distinct=True).to_pandas()
    a = set(map(tuple, drv[["act", "agent"]].itertuples(index=False)))
    b = set(map(tuple, dist[["act", "agent"]].itertuples(index=False)))
    assert a == b and len(a) > 0


@pytest.mark.usefixtures("ray_session")
def test_sparql_distributed_cross_join_matches_driver(tiny_triples):
    """A disconnected BGP is legal SPARQL: the distributed path evaluates
    it as a guarded small-side-broadcast cartesian (round-4 fix of the
    former raise) and must agree with the driver-side cross merge."""
    import ray.data as rd

    from gitprov_ray import sparql_lite

    ds = rd.from_pandas(tiny_triples)
    patterns = [("?a", "rdf:type", "prov:Activity"),
                ("?b", "rdf:type", "prov:Agent")]
    drv = sparql_lite.select(ds, patterns)
    dist = sparql_lite.select_distributed(ds, patterns).to_pandas()
    a = set(map(tuple, drv[["a", "b"]].itertuples(index=False)))
    b = set(map(tuple, dist[["a", "b"]].itertuples(index=False)))
    assert a == b and len(a) > 0 and len(dist) == len(drv)


# ---------------------------------------------------------------------------
# SELECT result-set writers: text/plain ASCII table + SPARQL-results XML
# (SparqlService.java:58-82) and the FMT_RS_JSON content-type quirk (:35-37)
# ---------------------------------------------------------------------------

def _result_frame():
    return pd.DataFrame({"a": ["https://h/x", "https://h/y"],
                         "n": ["1", None]})


def test_result_text_ascii_table():
    from gitprov_ray import serializers

    txt = serializers.result_text(_result_frame())
    lines = txt.splitlines()
    assert lines[0].startswith("---") and lines[-1].startswith("---")
    assert lines[1] == "| a           | n |"
    assert set(lines[2]) == {"="}          # rule under the header
    assert lines[3] == "| https://h/x | 1 |"
    assert lines[4] == "| https://h/y |   |"   # unbound renders empty
    assert len({len(l) for l in lines}) == 1   # rectangular table


def test_result_xml_wellformed():
    import xml.etree.ElementTree as ET

    from gitprov_ray import serializers

    xml = serializers.result_xml(_result_frame())
    root = ET.fromstring(xml)
    ns = "{http://www.w3.org/2005/sparql-results#}"
    assert root.tag == f"{ns}sparql"
    vars_ = [v.get("name") for v in root.find(f"{ns}head")]
    assert vars_ == ["a", "n"]
    results = root.find(f"{ns}results").findall(f"{ns}result")
    assert len(results) == 2
    b0 = {b.get("name"): (b[0].tag, b[0].text) for b in results[0]}
    assert b0["a"] == (f"{ns}uri", "https://h/x")
    assert b0["n"] == (f"{ns}literal", "1")
    # unbound cell omits its <binding>
    assert [b.get("name") for b in results[1]] == ["a"]


def test_result_xml_escapes():
    from gitprov_ray import serializers

    xml = serializers.result_xml(pd.DataFrame({"v": ['<&">']}))
    assert "&lt;&amp;&quot;&gt;" in xml or "&lt;&amp;\"&gt;" in xml


def test_serialize_results_dispatch_and_quirk():
    from gitprov_ray import serializers

    df = _result_frame()
    assert serializers.serialize_results(df, "text") == \
        serializers.result_text(df)
    assert serializers.serialize_results(df, "application/xml") == \
        serializers.result_xml(df)
    # the reference quirk: sparql-results+xml serves JSON (FMT_RS_JSON)
    assert serializers.serialize_results(
        df, "application/sparql-results+xml") == serializers.result_json(df)
    with pytest.raises(ValueError):
        serializers.serialize_results(df, "application/unknown")


@pytest.mark.usefixtures("ray_session")
def test_write_store_empty_dataset_is_noop(tmp_path):
    """An empty triples dataset writes no files: write_store returns {} and
    leaves an existing store as it was — both for an empty table and for
    the flagship over pages with no revision markers and no contributors."""
    import datetime as dt

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from gitprov_ray import schemas, store
    from gitprov_ray.pipelines import flagship

    root = str(tmp_path / "store")
    one = pa.Table.from_pylist(
        [{"subj": "s", "pred": "p", "obj": "o", "obj_is_literal": False,
          "obj_dtype": "", "graph": "g.example"}], schema=schemas.TRIPLES)
    assert store.write_store(rd.from_arrow(one), root) == {"g.example": 1}
    assert store.write_store(rd.from_arrow(schemas.TRIPLES.empty_table()),
                             root) == {}
    assert store.list_graphs(root) == ["g.example"]

    pages = str(tmp_path / "pages.parquet")
    pq.write_table(pa.table({
        "url": ["https://a.example/p0", "https://b.example/p1"],
        "warc_ts": pa.array([dt.datetime(2024, 1, 1)] * 2, pa.timestamp("us")),
        "html": [b"<html><body><p>boilerplate only</p></body></html>", b""],
    }), pages)
    tri = flagship.flagship_from_pages_parquet(pages, [], num_buckets=4)
    assert store.write_store(tri, root) == {}
    assert store.list_graphs(root) == ["g.example"]
    assert store.read_store(root).count() == 1
    assert [e for e in os.listdir(root) if e.startswith(".staging")] == []


@pytest.mark.usefixtures("ray_session")
def test_interrupted_replace_leaves_no_phantom_graph(tmp_path):
    """A ``gpart=<g>.replaced`` directory left by an interrupted replace is
    not a graph: list_graphs skips it, and the next write_store removes it
    when the new partition made it into place and restores it when it did
    not."""
    import shutil

    import pyarrow as pa
    import ray.data as rd

    from gitprov_ray import schemas, store

    def one(graph):
        return rd.from_arrow(pa.Table.from_pylist(
            [{"subj": "s", "pred": "p", "obj": "o", "obj_is_literal": False,
              "obj_dtype": "", "graph": graph}], schema=schemas.TRIPLES))

    root = str(tmp_path / "store")
    for g in ("a.example", "b.example"):
        store.write_store(one(g), root)
    a, b = (os.path.join(root, f"gpart={g}") for g in ("a.example",
                                                       "b.example"))
    shutil.copytree(a, a + ".replaced")  # crashed after the rename in
    os.rename(b, b + ".replaced")        # crashed before it
    assert store.list_graphs(root) == ["a.example"]

    assert store.write_store(one("c.example"), root) == {"c.example": 1}
    assert sorted(os.listdir(root)) == [
        "gpart=a.example", "gpart=b.example", "gpart=c.example"]
    assert store.list_graphs(root) == ["a.example", "b.example", "c.example"]
    assert store.read_store(root).count() == 3
