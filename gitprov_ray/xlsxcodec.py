"""Minimal XLSX (OOXML SpreadsheetML) reader/writer from the published
ECMA-376 package structure — stdlib ``zipfile`` + ``xml.etree`` only.

Scope (the data-interchange subset, not a spreadsheet app):
  * reader: the workbook's FIRST worksheet, resolved through the
    package relationships (_rels), sharedStrings, cell types
    ``n`` (number, default), ``s`` (shared string), ``str`` (formula
    string), ``inlineStr`` and ``b`` (boolean); A1-style references
    resolve column gaps to None; row 1 is the header.
  * writer: one worksheet with a header row, shared-strings table for
    text cells, plain numeric cells for ints/floats, booleans as ``b``;
    timestamps/None serialize as ISO text / empty (Excel date serials
    need a styles part — out of scope, text round-trips losslessly).

Reference parity note: the reference stores blobs untouched; this
module extends the engine's source family (sources.read_table /
write_table fmt='xlsx') the way avrocodec does for Avro.
"""

from __future__ import annotations

import io
import re
import zipfile
import xml.etree.ElementTree as ET

_NS = "{http://schemas.openxmlformats.org/spreadsheetml/2006/main}"
_REL_NS = ("{http://schemas.openxmlformats.org/package/2006/"
           "relationships}")
_CELLREF = re.compile(r"^([A-Z]+)(\d+)$")


def _col_index(letters: str) -> int:
    n = 0
    for ch in letters:
        n = n * 26 + (ord(ch) - 64)
    return n - 1


def _col_letters(idx: int) -> str:
    out = ""
    idx += 1
    while idx:
        idx, r = divmod(idx - 1, 26)
        out = chr(65 + r) + out
    return out


# --------------------------------------------------------------------------
# reader
# --------------------------------------------------------------------------


def read_xlsx(blob: bytes) -> list[dict]:
    """xlsx bytes → list of row dicts (header row = keys)."""
    zf = zipfile.ZipFile(io.BytesIO(blob))
    names = set(zf.namelist())
    # workbook → first sheet via the workbook rels (target may be any
    # path, not necessarily worksheets/sheet1.xml)
    sheet_path = "xl/worksheets/sheet1.xml"
    if "xl/workbook.xml" in names and "xl/_rels/workbook.xml.rels" in names:
        wb = ET.fromstring(zf.read("xl/workbook.xml"))
        rels = ET.fromstring(zf.read("xl/_rels/workbook.xml.rels"))
        rel_of = {r.get("Id"): r.get("Target")
                  for r in rels.findall(f"{_REL_NS}Relationship")}
        first = wb.find(f"{_NS}sheets/{_NS}sheet")
        if first is not None:
            rid = first.get("{http://schemas.openxmlformats.org/"
                            "officeDocument/2006/relationships}id")
            tgt = rel_of.get(rid)
            if tgt:
                sheet_path = tgt if tgt.startswith("xl/") \
                    else "xl/" + tgt.lstrip("/")
    if sheet_path not in names:
        raise ValueError(f"xlsx: missing worksheet part {sheet_path}")

    shared: list[str] = []
    if "xl/sharedStrings.xml" in names:
        ss = ET.fromstring(zf.read("xl/sharedStrings.xml"))
        for si in ss.findall(f"{_NS}si"):
            # a shared string is one <t> or a run sequence <r><t>
            shared.append("".join(t.text or ""
                                  for t in si.iter(f"{_NS}t")))

    sheet = ET.fromstring(zf.read(sheet_path))
    grid: list[list] = []
    for row in sheet.find(f"{_NS}sheetData") or []:
        cells: list = []
        for c in row.findall(f"{_NS}c"):
            ref = c.get("r")
            if ref:
                m = _CELLREF.match(ref)
                ci = _col_index(m.group(1))
            else:
                ci = len(cells)
            while len(cells) < ci:
                cells.append(None)
            t = c.get("t", "n")
            if t == "inlineStr":
                is_el = c.find(f"{_NS}is")
                val = "".join(x.text or ""
                              for x in is_el.iter(f"{_NS}t")) \
                    if is_el is not None else ""
            else:
                v = c.find(f"{_NS}v")
                raw = v.text if v is not None else None
                if raw is None:
                    val = None
                elif t == "s":
                    val = shared[int(raw)]
                elif t == "b":
                    val = raw == "1"
                elif t == "str":
                    val = raw
                else:                         # numeric
                    f = float(raw)
                    val = int(f) if f.is_integer() and "." not in raw \
                        and "e" not in raw.lower() else f
            cells.append(val)
        grid.append(cells)
    if not grid:
        return []
    header = [str(h) if h is not None else f"col{i}"
              for i, h in enumerate(grid[0])]
    rows = []
    for cells in grid[1:]:
        cells = cells + [None] * (len(header) - len(cells))
        rows.append(dict(zip(header, cells)))
    return rows


# --------------------------------------------------------------------------
# writer
# --------------------------------------------------------------------------

_CT = """<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<Types xmlns="http://schemas.openxmlformats.org/package/2006/content-types">
<Default Extension="rels" ContentType="application/vnd.openxmlformats-package.relationships+xml"/>
<Default Extension="xml" ContentType="application/xml"/>
<Override PartName="/xl/workbook.xml" ContentType="application/vnd.openxmlformats-officedocument.spreadsheetml.sheet.main+xml"/>
<Override PartName="/xl/worksheets/sheet1.xml" ContentType="application/vnd.openxmlformats-officedocument.spreadsheetml.worksheet+xml"/>
<Override PartName="/xl/sharedStrings.xml" ContentType="application/vnd.openxmlformats-officedocument.spreadsheetml.sharedStrings+xml"/>
</Types>"""

_ROOT_RELS = """<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">
<Relationship Id="rId1" Type="http://schemas.openxmlformats.org/officeDocument/2006/relationships/officeDocument" Target="xl/workbook.xml"/>
</Relationships>"""

_WORKBOOK = """<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<workbook xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main" xmlns:r="http://schemas.openxmlformats.org/officeDocument/2006/relationships">
<sheets><sheet name="Sheet1" sheetId="1" r:id="rId1"/></sheets>
</workbook>"""

_WB_RELS = """<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">
<Relationship Id="rId1" Type="http://schemas.openxmlformats.org/officeDocument/2006/relationships/worksheet" Target="worksheets/sheet1.xml"/>
<Relationship Id="rId2" Type="http://schemas.openxmlformats.org/officeDocument/2006/relationships/sharedStrings" Target="sharedStrings.xml"/>
</Relationships>"""


def _xml_escape(s: str) -> str:
    return (s.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def write_xlsx(rows: list[dict], columns: list[str] | None = None) -> bytes:
    """List of row dicts → minimal valid xlsx bytes. Strings go through
    sharedStrings; ints/floats are numeric cells; bools are ``b`` cells;
    None cells are omitted; any other type serializes as str()."""
    if columns is None:
        columns = list(rows[0].keys()) if rows else []
    shared: dict[str, int] = {}

    def sref(s: str) -> int:
        if s not in shared:
            shared[s] = len(shared)
        return shared[s]

    body = ["<sheetData>"]
    hdr = "".join(
        f'<c r="{_col_letters(i)}1" t="s"><v>{sref(c)}</v></c>'
        for i, c in enumerate(columns))
    body.append(f'<row r="1">{hdr}</row>')
    for rn, row in enumerate(rows, start=2):
        cells = []
        for i, col in enumerate(columns):
            v = row.get(col)
            if v is None:
                continue
            ref = f"{_col_letters(i)}{rn}"
            if isinstance(v, bool):
                cells.append(f'<c r="{ref}" t="b"><v>{int(v)}</v></c>')
            elif isinstance(v, (int, float)):
                cells.append(f'<c r="{ref}"><v>{v!r}</v></c>')
            else:
                cells.append(
                    f'<c r="{ref}" t="s"><v>{sref(str(v))}</v></c>')
        body.append(f'<row r="{rn}">{"".join(cells)}</row>')
    body.append("</sheetData>")
    sheet = ('<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
             '<worksheet xmlns="http://schemas.openxmlformats.org/'
             'spreadsheetml/2006/main">' + "".join(body) + "</worksheet>")
    ss_items = "".join(f"<si><t xml:space=\"preserve\">"
                       f"{_xml_escape(s)}</t></si>"
                       for s in shared)
    ss = ('<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
          f'<sst xmlns="http://schemas.openxmlformats.org/spreadsheetml/'
          f'2006/main" count="{len(shared)}" uniqueCount="{len(shared)}">'
          + ss_items + "</sst>")
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as zf:
        zf.writestr("[Content_Types].xml", _CT)
        zf.writestr("_rels/.rels", _ROOT_RELS)
        zf.writestr("xl/workbook.xml", _WORKBOOK)
        zf.writestr("xl/_rels/workbook.xml.rels", _WB_RELS)
        zf.writestr("xl/worksheets/sheet1.xml", sheet)
        zf.writestr("xl/sharedStrings.xml", ss)
    return buf.getvalue()
