"""Deterministic DOM-pruning HTML→text extraction and page-event parsing.

The ``input_hint`` invariant: extracted text per url must be byte-identical
across runs/workers — so the extractor is pure Python ``html.parser`` with
pinned rules, no version-floating third-party parser behavior.

Pruning rules (pinned):
  * content of ``script``, ``style``, ``noscript``, ``template``, ``head``,
    ``nav``, ``footer``, ``aside`` is dropped entirely;
  * text of every other element is collected;
  * block-level elements (p, div, li, h1..h6, ul, ol, table, tr, br,
    article, section, blockquote, pre) introduce a line break;
  * within a line, runs of whitespace collapse to a single space;
  * leading/trailing whitespace per line is stripped; empty lines dropped;
  * lines joined with ``\\n``.

Besides visible text, pages carry structured revision markers (the web-page
generalization of the reference's per-commit file list,
ProvenanceService.java:161-183):

  <meta name="author" content="login">            author login ('' → null)
  <meta name="author-name" content="Name">        display name (ST2 fallback)
  <li class="res" data-name data-status data-additions data-changes
      data-deletions>                              one resource event
  <a rel="parent" href="#sha">                     parent snapshot pointer
  <title>                                          snapshot label (message)

``parse_page`` returns both the pruned text and the markers; it is the text
extractor and the reference for the markers. The event path
(``stages.pages.page_events_batch``) never runs it: ``page_markers`` reads
the markers with one compiled regex scan, which is several times cheaper
than the ``html.parser`` walk and builds no text. The scan reads only the
constructs the rendered pages use: plain start and end tags and lower-case
script and style blocks. A page with anything else (a comment, a
declaration, a stray '<', an unterminated tag, markup inside a title, ...)
takes the walk; the page alone picks the branch, and both give the same
dict. A malformed resource or parent marker (a
valueless ``data-name``, ``data-status`` or ``href``, or a count that is not
an int32) quarantines the page: it yields no resources.
"""

from __future__ import annotations

import re
from html import unescape
from html.parser import HTMLParser

_DROP_TAGS = frozenset(
    {"script", "style", "noscript", "template", "head", "nav", "footer", "aside"}
)
_BLOCK_TAGS = frozenset(
    {
        "p", "div", "li", "h1", "h2", "h3", "h4", "h5", "h6",
        "ul", "ol", "table", "tr", "br", "article", "section",
        "blockquote", "pre", "body", "html", "title",
    }
)


_MARKER_TAGS = frozenset({"meta", "li", "a"})
_INT32_MIN, _INT32_MAX = -(1 << 31), (1 << 31) - 1


def _resource(a: dict) -> dict | None:
    """One ``<li class="res">`` marker's attributes → its event, or None
    when the marker is malformed: a valueless ``data-name`` or
    ``data-status``, or a count that is not an int32."""
    name = a.get("data-name", "")
    status = a.get("data-status", "")
    if name is None or status is None:
        return None
    try:
        additions = int(a.get("data-additions", "0") or 0)
        changes = int(a.get("data-changes", "0") or 0)
        deletions = int(a.get("data-deletions", "0") or 0)
    except ValueError:
        return None
    for n in (additions, changes, deletions):
        if not _INT32_MIN <= n <= _INT32_MAX:
            return None
    return {"name": name, "status": status, "additions": additions,
            "changes": changes, "deletions": deletions}


class _Markers:
    """Revision-marker state. ``_PageParser`` and ``_scan_markers`` feed it
    the same calls, so both apply one set of marker rules. A malformed
    resource or parent marker quarantines the page: ``result`` then holds
    no resources."""

    def __init__(self) -> None:
        self.author: str | None = None
        self.author_name: str | None = None
        self.label = ""
        self.title_chunks: list[str] = []   # never reset across titles
        self.resources: list[dict] = []
        self.parents: list[str] = []
        self.malformed = False

    def starttag(self, tag: str, a: dict) -> None:
        """``tag`` in ``_MARKER_TAGS``; ``a`` = lower-cased names → values
        (None when valueless), the last duplicate winning."""
        if tag == "meta":
            nm, content = a.get("name"), a.get("content", "")
            if nm == "author":
                self.author = content or None
            elif nm == "author-name":
                self.author_name = content or None
        elif tag == "li" and "res" in (a.get("class") or "").split():
            r = _resource(a)
            if r is None:
                self.malformed = True
            else:
                self.resources.append(r)
        elif tag == "a" and a.get("rel") == "parent":
            href = a.get("href", "")
            if href is None:
                self.malformed = True
            else:
                self.parents.append(href.lstrip("#"))

    def end_title(self) -> None:
        self.label = " ".join("".join(self.title_chunks).split())

    def result(self) -> dict:
        return {
            "label": self.label,
            "author": self.author,
            "author_name": self.author_name,
            "resources": [] if self.malformed else self.resources,
            "parents": self.parents,
        }


class _PageParser(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.depth_dropped = 0
        self.parts: list[list[str]] = [[]]  # lines of word-chunks
        self.markers = _Markers()
        self._in_title = False

    # -- structure ---------------------------------------------------------
    def handle_starttag(self, tag, attrs):
        if tag in _DROP_TAGS:
            self.depth_dropped += 1
            return
        if tag in _MARKER_TAGS:
            self.markers.starttag(tag, dict(attrs))
        if tag == "title":
            self._in_title = True
        if tag in _BLOCK_TAGS:
            self._newline()

    def handle_endtag(self, tag):
        if tag in _DROP_TAGS:
            self.depth_dropped = max(0, self.depth_dropped - 1)
            return
        if tag == "title":
            self._in_title = False
            self.markers.end_title()
        if tag in _BLOCK_TAGS:
            self._newline()

    def handle_startendtag(self, tag, attrs):
        self.handle_starttag(tag, attrs)
        if tag in _DROP_TAGS:
            # a self-closing drop tag (<script src="x"/>) has no content:
            # undo the start-tag increment or all following text is dropped
            self.depth_dropped = max(0, self.depth_dropped - 1)

    def parse_marked_section(self, i, report=1):
        # html.parser raises AssertionError on a keyword it does not know
        # (``<![foo[``); read that as the bogus comment HTML5 makes of it
        try:
            return super().parse_marked_section(i, report)
        except AssertionError:
            return self.parse_bogus_comment(i, report)

    # -- text --------------------------------------------------------------
    def handle_data(self, data):
        if self._in_title:
            self.markers.title_chunks.append(data)
        if self.depth_dropped == 0 and data:
            self.parts[-1].append(data)

    def _newline(self):
        if self.parts[-1]:
            self.parts.append([])

    def text(self) -> str:
        lines = []
        for chunks in self.parts:
            line = " ".join("".join(chunks).split())
            if line:
                lines.append(line)
        return "\n".join(lines)


def _decode(html: bytes | str) -> str:
    if isinstance(html, (bytes, bytearray, memoryview)):
        return bytes(html).decode("utf-8", errors="replace")
    return html


def parse_page(html: bytes | str) -> dict:
    """Parse one html payload → pruned text + revision-event structure.

    Deterministic: same bytes in, same dict out. Decoding is pinned to
    UTF-8 with ``errors="replace"``.
    """
    p = _PageParser()
    p.feed(_decode(html))
    p.close()
    return {"text": p.text(), **p.markers.result()}


def extract_text(html: bytes | str) -> str:
    """Text-only pruning (the byte-identity invariant surface)."""
    return parse_page(html)["text"]


# -- compiled marker scan -----------------------------------------------------
#
# The scan accepts a page only when every '<' opens one of the constructs the
# rendered pages use, each read by html.parser the same way: a start tag whose
# name ends at a separator and whose attributes are separated by ASCII
# whitespace, with quoted values, or unquoted ones that run to whitespace or
# '>'; an end tag ``</name>``; a lower-case ``<script>``/``<style>`` block
# whose raw text holds no '<' and ends at ``</script>``/``</style>``. Anything
# else (a comment, a declaration, a stray '<', an unterminated tag, another
# spelling of a script/style tag, markup inside a title) sends the page to
# ``parse_page``. The constructs no marker rule reads are consumed inside the
# regex, so Python sees only the title, meta, li and a tags.
_SEP = r"[\t\n\r\f ]"
_ATTRS = (rf"(?:{_SEP}+[^\s\"'<>/=]++"
          rf"(?:{_SEP}*={_SEP}*(?:\"[^\"]*\"|'[^']*'|[^\s\"'=>][^\s>]*+))?)*+")
_NAME = r"[a-zA-Z][^\s/>\x00\"'<=]*+(?=[\t\n\r\f />])"
_ENDNAME = r"[a-zA-Z][-.a-zA-Z0-9:_]*+"
_READ = r"(?i:meta|li|a|title|script|style)[\t\n\r\f />]"
_SKIP = (
    r"(?:[^<]++|<(?:"
    rf"script{_ATTRS}{_SEP}*>[^<]*+</script>"
    rf"|style{_ATTRS}{_SEP}*>[^<]*+</style>"
    rf"|/(?!(?i:title)>){_ENDNAME}>"
    rf"|(?!{_READ}){_NAME}{_ATTRS}{_SEP}*/?>"
    r"))*+"
)
_SCAN = re.compile(
    # group 1: the skipped run before the token; then the token: group 2 a
    # title end tag (the run takes every other end tag), groups 3-4 a start
    # tag the run leaves (name, attributes), group 5 a '<' outside the
    # subset; no group at the end of the page
    rf"({_SKIP})(?:<(?:/({_ENDNAME})>"
    rf"|({_NAME})({_ATTRS}){_SEP}*/?>|())|\Z)"
)
_ATTR = re.compile(rf"{_SEP}+([^\s\"'<>/=]++)(?:{_SEP}*(=){_SEP}*"
                   r"(?:\"([^\"]*)\"|'([^']*)'|([^\s\"'=>][^\s>]*+)))?")


def _attrs(s: str) -> dict:
    a = {}
    for name, eq, dq, sq, bare in _ATTR.findall(s):
        v = (dq or sq or bare) if eq else None
        a[name.lower()] = unescape(v) if v else v
    return a


def _scan_markers(html: str) -> dict | None:
    """The revision markers of ``html`` by one compiled scan, or None when
    the page leaves the subset the scan reads as html.parser does."""
    mk = _Markers()
    in_title = False
    for m in _SCAN.finditer(html):
        end, name, attrs, bad = m.group(2, 3, 4, 5)
        if in_title:                     # only text, then </title>
            text = m.group(1)
            if end is None or "<" in text:
                return None
            mk.title_chunks.append(unescape(text))
            mk.end_title()
            in_title = False
        elif end is not None:            # </title>, no title open
            mk.end_title()
        elif name is not None:
            tag = name.lower()
            if tag == "title":
                in_title = True
            elif tag in ("script", "style"):  # not a block the run takes
                return None
            else:
                mk.starttag(tag, _attrs(attrs))
        elif bad is not None:
            return None
        else:
            break                        # end of the page
    return mk.result()


def page_markers(html: bytes | str) -> dict:
    """The revision markers of one html payload: ``parse_page`` without
    ``text``, and equal to it. One compiled regex scan reads the markers;
    a page outside the scan's subset takes the ``parse_page`` walk."""
    html = _decode(html)
    out = _scan_markers(html)
    if out is None:
        out = parse_page(html)
        del out["text"]
    return out
