"""Property-based tests (SURVEY.md §5.2-4) via hypothesis."""

import re

from struct import error as struct_error
from zlib import error as ZlibError

from hypothesis import given, settings, strategies as st

from gitprov_ray import extract, idgen

# XML NCName (approximation: letters/digits/_/-/. , not starting with
# digit/-/.)
_NCNAME = re.compile(r"^[A-Za-z_À-￿][\w\-.À-￿]*$")


@given(st.text(max_size=80))
@settings(max_examples=300, deadline=None)
def test_escape_ncname_always_valid_and_deterministic(s):
    e = idgen.escape_ncname(s)
    assert e == idgen.escape_ncname(s)
    if e:
        assert _NCNAME.match(e), e


@given(st.text(alphabet=st.characters(codec="utf-8"), max_size=60),
       st.text(alphabet="abcdef0123456789", min_size=4, max_size=40))
@settings(max_examples=200, deadline=None)
def test_id_grammars_total(filename, sha):
    # every id mint is total and deterministic for arbitrary filenames
    for fn in (idgen.base_entity_name, ):
        fn(filename)
    assert idgen.generation_id(filename, sha) == idgen.generation_id(filename, sha)
    assert idgen.usage_id(filename, sha, sha).startswith("usage-")
    assert idgen.derivation_id(filename, sha, sha).startswith("derivation-")


@given(st.binary(max_size=2000))
@settings(max_examples=200, deadline=None)
def test_extract_never_crashes_and_is_deterministic(data):
    a = extract.parse_page(data)
    b = extract.parse_page(data)
    assert a == b
    assert isinstance(a["text"], str)
    del a["text"]
    assert extract.page_markers(data) == a


# html built from revision markers and the markup around them. Safe pieces
# stay inside the subset the compiled marker scan reads; the others (stray
# '<', unterminated tags, comments, declarations, other script/style
# spellings, markup inside a title, odd separators, quotes and '=' in
# unquoted values) may leave it.
_TAG_NAMES = ["title", "TITLE", "meta", "Meta", "li", "LI", "a", "A", "p",
              "div", "nav", "head", "br", "script", "style", "Script"]
_ATTR_NAMES = ["name", "NAME", "content", "class", "Class", "rel", "href",
               "HREF", "data-name", "data-status", "data-additions",
               "data-changes", "data-deletions", "id"]
_ATTR_VALUES = ["author", "author-name", "res", "x res", "RES", "parent",
                "#ab", "##c", "added", "3", "-2", "0", "", "x&amp;y",
                "a&lt;b", "&#39;q", "&am", "li", "1e3", "x/", "a b",
                "<li class=res data-name=v>"]
_TEXTS = ["hello", " x  y\n", "a &amp; b", "&am", "p;", "&", "&#65;", "é",
          "--", "->", "]]"]


@st.composite
def _attr(draw, safe):
    name = draw(st.sampled_from(_ATTR_NAMES))
    value = draw(st.sampled_from(_ATTR_VALUES))
    quote = draw(st.sampled_from(["dq", "sq", "bare", "none"]))
    if quote == "bare" and (safe or draw(st.booleans())):
        value = re.sub(r"[\s\"'=<>`]", "", value) or "v"
    sep = " " if safe else draw(st.sampled_from([" ", "\n", "  ", "\xa0",
                                                 "\x0b", ""]))
    if quote == "none":
        return sep + name
    around = "" if safe else draw(st.sampled_from(["", " ", "=", "\t"]))
    quoted = {"dq": '"%s"' % value.replace('"', ""),
              "sq": "'%s'" % value.replace("'", ""), "bare": value}[quote]
    return f"{sep}{name}{around}={around}{quoted}"


@st.composite
def _start_tag(draw, safe):
    name = draw(st.sampled_from(_TAG_NAMES))
    if safe and name.lower() in ("title", "script", "style"):
        name = "p"                   # _title and _raw_block close these
    attrs = "".join(draw(st.lists(_attr(safe), max_size=4)))
    close = draw(st.sampled_from([">", "/>", " >"] if safe else
                                 [">", "/>", " >", " / >", "", "\x00>"]))
    return f"<{name}{attrs}{close}"


@st.composite
def _title(draw, safe):
    text = "".join(draw(st.lists(st.sampled_from(_TEXTS), max_size=3)))
    close = draw(st.sampled_from(["title", "TITLE"] if safe else
                                 ["title", "TITLE", "title ", " title"]))
    return f"<title>{text}</{close}>"


@st.composite
def _raw_block(draw, safe):
    name = draw(st.sampled_from(["script", "style"] if safe else
                                ["script", "style", "SCRIPT", "ſcript"]))
    inner = draw(st.sampled_from(["var t=1;", "x && y", "--!>", ""] if safe
                                 else ['<li class="res" data-name="raw">',
                                       "<title>t</title>", "x < y",
                                       "</scriptx>", "</style>", "</ſcript>",
                                       "<!-- </script> -->", ""]))
    close = f"</{name}>"
    if not safe:
        # the spellings html.parser releases disagree on: </script x> and
        # </style/> end the block in HTML5, not in every html.parser
        close = draw(st.sampled_from([
            close, f"</ {name.upper()} >", f"</{name} x>", f"</{name}/>",
            f"</{name}\t>", ""]))
    return f"<{name}>{inner}{close}"


_SAFE_FIXED = ["</p>", "</LI>", "</title>", "</div>", "</script>", "</a>"]
_UNSAFE_FIXED = ["<", "< p>", "<3", "<!", "<!-- open", "<![CDATA[x]]>",
                 "<?pi?>", "</ p>", "</>", "</title x>", "<title/>",
                 "<title>", "<li class='res' data-name='u'", "<a\xa0rel=x>",
                 "<!-- c -->", "<!-- <li class=res data-name=c> -- >",
                 "<!-- <li class=res data-name=d> --!>", "<!---->",
                 "<!DOCTYPE html>", "<!doctype x>", "<!>", "</li >",
                 "<script/>", "<style x=1/>"]


def _pieces(safe):
    base = [_start_tag(safe), _raw_block(safe), st.sampled_from(_TEXTS),
            st.sampled_from(_SAFE_FIXED), _title(safe)]
    if not safe:
        base.append(st.sampled_from(_UNSAFE_FIXED))
    return st.lists(st.one_of(base), max_size=12).map("".join)


@given(_pieces(safe=True), _pieces(safe=False),
       st.sampled_from(["<", "< x", "<!--", "<li class=res"]))
@settings(max_examples=300, deadline=None)
def test_page_markers_equal_parse_page(fast, mixed, stray):
    """The compiled marker scan reads what html.parser reads: on a page
    inside its subset (``fast``) and on any page (``mixed``); a page it
    cannot read (``mixed`` ending in a '<' that no '>' closes) takes the
    walk."""
    assert extract._scan_markers(fast) is not None
    assert extract._scan_markers(mixed + stray) is None
    for page in (fast, mixed, mixed + stray):
        want = extract.parse_page(page)
        del want["text"]
        assert extract.page_markers(page) == want
        assert extract.page_markers(page.encode()) == want


@given(st.text(max_size=500))
@settings(max_examples=100, deadline=None)
def test_extract_text_idempotent_on_own_output(s):
    # pruned text contains no markup; re-extracting the escaped text of a
    # rendered paragraph returns the same text
    import html as _html

    page = f"<body><p>{_html.escape(s)}</p></body>".encode()
    t1 = extract.extract_text(page)
    page2 = f"<body><p>{_html.escape(t1)}</p></body>".encode()
    assert extract.extract_text(page2) == t1


@given(st.lists(st.text(min_size=0, max_size=30), min_size=0, max_size=20))
@settings(max_examples=100, deadline=None)
def test_ntriples_roundtrip_arbitrary_literals(vals):
    import pandas as pd

    from gitprov_ray import serializers

    rows = [{"subj": f"https://gitprov.example/graph/g#s{i}",
             "pred": "http://www.w3.org/2000/01/rdf-schema#label",
             "obj": v, "obj_is_literal": True, "obj_dtype": "xsd:string",
             "graph": "g"} for i, v in enumerate(vals)]
    df = pd.DataFrame(rows, columns=["subj", "pred", "obj", "obj_is_literal",
                                     "obj_dtype", "graph"])
    text = serializers.to_ntriples(df)
    back = serializers.parse_ntriples(text)
    assert sorted(r["obj"] for r in back) == sorted(vals)


@given(st.lists(st.text(min_size=0, max_size=30), min_size=0, max_size=15))
@settings(max_examples=100, deadline=None)
def test_turtle_roundtrip_arbitrary_literals(vals):
    import pandas as pd

    from gitprov_ray import serializers

    rows = [{"subj": f"https://gitprov.example/graph/g#s{i}",
             "pred": "http://www.w3.org/2000/01/rdf-schema#label",
             "obj": v, "obj_is_literal": True, "obj_dtype": "xsd:string",
             "graph": "g"} for i, v in enumerate(vals)]
    df = pd.DataFrame(rows, columns=["subj", "pred", "obj", "obj_is_literal",
                                     "obj_dtype", "graph"])
    text = serializers.to_turtle(df)
    back = serializers.parse_turtle(text)
    assert sorted(r["obj"] for r in back if r["obj_is_literal"]) == sorted(vals)


@given(st.lists(st.text(min_size=0, max_size=30), min_size=1, max_size=10))
@settings(max_examples=100, deadline=None)
def test_rdfxml_wellformed_arbitrary_literals(vals):
    import xml.etree.ElementTree as ET

    import pandas as pd

    from gitprov_ray import serializers

    # XML 1.0 cannot carry most control chars at all — skip those values
    vals = ["".join(c for c in v if ord(c) >= 0x20 or c in "\t\n\r")
            for v in vals]
    rows = [{"subj": f"https://gitprov.example/graph/g#s{i}",
             "pred": "http://www.w3.org/2000/01/rdf-schema#label",
             "obj": v, "obj_is_literal": True, "obj_dtype": "xsd:string",
             "graph": "g"} for i, v in enumerate(vals)]
    df = pd.DataFrame(rows, columns=["subj", "pred", "obj", "obj_is_literal",
                                     "obj_dtype", "graph"])
    root = ET.fromstring(serializers.to_rdfxml(df))
    labels = [el.text or "" for d in root for el in d]
    assert sorted(labels) == sorted(vals)


@given(st.text(max_size=120))
@settings(max_examples=200, deadline=None)
def test_sparql_parser_never_crashes_unexpectedly(q):
    from gitprov_ray import sparql_lite

    try:
        sparql_lite.parse_select(q)
    except sparql_lite.SparqlSyntaxError:
        pass            # the one sanctioned failure mode for garbage input


@given(st.lists(st.one_of(st.none(), st.text(
    st.characters(blacklist_categories=("Cs",)), max_size=40)),
    min_size=1, max_size=30))
@settings(max_examples=150, deadline=None)
def test_json_quote_arrow_matches_json_dumps(vals):
    import json

    import pyarrow as pa

    from gitprov_ray.stages.emit import _json_quote_arrow

    got = _json_quote_arrow(pa.array(vals, pa.string()))
    assert got.to_pylist() == [json.dumps(v, ensure_ascii=False) for v in vals]


@given(st.binary(min_size=0, max_size=400))
@settings(max_examples=150, deadline=None)
def test_media_codecs_never_crash_on_garbage(data):
    """Decoders over arbitrary bytes: a clean ValueError /
    NotImplementedError (or a parse refusal), never a hang, index
    crash, or wrong exception type — the quarantine contract of
    probe_media (malformed payloads filter, not kill the job)."""
    from gitprov_ray import (audiocodec, bmpcodec, gifcodec, jpegcodec,
                             mp4codec, pngcodec, tiffcodec, webpcodec)
    from gitprov_ray.multimodal import probe_media

    meta = probe_media(data)                 # must never raise
    assert isinstance(meta["format"], str)
    for dec in (jpegcodec.decode_jpeg, pngcodec.decode_png,
                gifcodec.decode_gif, webpcodec.decode_webp,
                mp4codec.decode_mp4_frames, tiffcodec.decode_tiff,
                bmpcodec.decode_bmp):
        try:
            dec(data)
        except (ValueError, NotImplementedError, EOFError, KeyError,
                IndexError, struct_error, ZlibError):
            pass
    try:
        audiocodec.parse_wav_extended(data)
    except (ValueError, NotImplementedError):
        pass


@given(st.binary(min_size=8, max_size=300))
@settings(max_examples=100, deadline=None)
def test_webp_vp8l_decoder_rejects_garbage_payloads(data):
    """A syntactically-plausible container around garbage VP8L bits must
    fail with ValueError, not loop or index out of bounds."""
    import struct as _s

    from gitprov_ray import webpcodec

    payload = b"\x2f" + data
    chunk = b"VP8L" + _s.pack("<I", len(payload)) + payload
    if len(payload) & 1:
        chunk += b"\x00"
    riff = b"WEBP" + chunk
    b = b"RIFF" + _s.pack("<I", len(riff)) + riff
    try:
        webpcodec.decode_webp(b)
    except (ValueError, NotImplementedError):
        pass


@given(st.integers(min_value=0, max_value=3000), st.integers(0, 2))
@settings(max_examples=120, deadline=None)
def test_new_codecs_truncation_is_clean(cut, which):
    """VALID TIFF/BMP/Avro payloads truncated at arbitrary prefixes:
    decode fails with the sanctioned exception types only (truncation is
    how real crawl payloads arrive), and probe_media never raises."""
    import numpy as np

    from gitprov_ray import avrocodec, bmpcodec, tiffcodec
    from gitprov_ray.multimodal import probe_media

    rng = np.random.RandomState(3)
    arr = rng.randint(0, 256, size=(9, 13, 3), dtype=np.uint8)
    if which == 0:
        blob = tiffcodec.encode_tiff(arr, compression="lzw",
                                     rows_per_strip=4)
        dec = tiffcodec.decode_tiff
    elif which == 1:
        blob = bmpcodec.encode_bmp(arr)
        dec = bmpcodec.decode_bmp
    else:
        schema = {"type": "record", "name": "r", "fields": [
            {"name": "a", "type": "long"}, {"name": "s", "type": "string"}]}
        blob = avrocodec.write_avro(
            [{"a": i, "s": "x" * (i % 9)} for i in range(40)],
            schema, rows_per_block=11)
        dec = lambda b: avrocodec.read_avro_blob(b)  # noqa: E731
    pre = blob[:min(cut, len(blob))]
    probe_media(pre)                        # must never raise
    try:
        out = dec(pre)
        # a successful decode of a strict prefix must be the full payload
        assert len(pre) == len(blob) or out is not None
    except (ValueError, NotImplementedError, EOFError, KeyError,
            IndexError, struct_error, ZlibError):
        pass
