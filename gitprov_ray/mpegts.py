"""MPEG transport stream (ISO 13818-1) probe + fixture writer.

188-byte packets with a 0x47 sync byte; PSI sections (PAT on PID 0 →
PMT PID → elementary stream types) carry the codec inventory, and PCR
timestamps in adaptation fields give the duration. Payload DECODE
(H.264 / HEVC / AAC / MPEG audio) is the same external-codec stub
boundary as everywhere else in the engine — this is the header-only
metadata stage (probe_media), like the MP3/Ogg/Matroska probes.

PSI section CRCs use CRC-32/MPEG-2 (poly 0x04C11DB7, init all-ones, no
reflection, no final xor); the fixture writer emits spec-valid CRCs and
the prober verifies them.
"""

from __future__ import annotations

__all__ = ["is_mpegts", "probe_mpegts", "encode_ts_fixture"]

_PKT = 188

_STREAM_TYPES = {
    0x01: "mpeg1video", 0x02: "mpeg2video", 0x03: "mp1", 0x04: "mp2",
    0x0F: "aac", 0x11: "aac_latm", 0x1B: "h264", 0x24: "hevc",
    0x81: "ac3", 0x06: "private", 0x15: "metadata",
}


def _crc32_mpeg(data: bytes) -> int:
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte << 24
        for _ in range(8):
            crc = ((crc << 1) ^ 0x04C11DB7) if (crc & 0x80000000) \
                else (crc << 1)
            crc &= 0xFFFFFFFF
    return crc


def is_mpegts(b: bytes) -> bool:
    """Two aligned sync bytes (the standard resync rule — one 0x47 can
    be payload coincidence)."""
    return (len(b) >= 2 * _PKT and b[0] == 0x47 and b[_PKT] == 0x47)


def _packets(b: bytes):
    for off in range(0, len(b) - _PKT + 1, _PKT):
        if b[off] != 0x47:
            break
        yield b[off:off + _PKT]


def _payload(pkt: bytes):
    """(pid, pusi, payload bytes or None, pcr or None)."""
    pid = ((pkt[1] & 0x1F) << 8) | pkt[2]
    pusi = bool(pkt[1] & 0x40)
    afc = (pkt[3] >> 4) & 0x3
    pos = 4
    pcr = None
    if afc & 0x2:                          # adaptation field present
        aflen = pkt[4]
        if aflen >= 7 and (pkt[5] & 0x10):  # PCR flag
            base = ((pkt[6] << 25) | (pkt[7] << 17) | (pkt[8] << 9)
                    | (pkt[9] << 1) | (pkt[10] >> 7))
            pcr = base                     # 90 kHz units
        pos = 5 + aflen
    payload = pkt[pos:] if (afc & 0x1) and pos < _PKT else None
    return pid, pusi, payload, pcr


def _section(payload: bytes, pusi: bool):
    """PSI section bytes from a PUSI packet payload (pointer_field
    skip), CRC-verified; None if not a clean single-packet section."""
    if not pusi or not payload:
        return None
    ptr = payload[0]
    sec = payload[1 + ptr:]
    if len(sec) < 3:
        return None
    seclen = ((sec[1] & 0x0F) << 8) | sec[2]
    total = 3 + seclen
    if total > len(sec):
        return None
    sec = sec[:total]
    if _crc32_mpeg(sec) != 0:              # CRC over section = 0 residue
        return None
    return sec


def probe_mpegts(b: bytes) -> dict | None:
    """{format:'mpegts', codec, width:-1, height:-1, frames:-1,
    duration_ms} — codec is the video stream type when present, else
    the first stream; duration from the PCR span (90 kHz)."""
    if not is_mpegts(b):
        return None
    pmt_pids: set = set()
    streams: list = []                     # (stream_type, pid)
    first_pcr = last_pcr = None
    for pkt in _packets(b):
        pid, pusi, payload, pcr = _payload(pkt)
        if pcr is not None:
            if first_pcr is None:
                first_pcr = pcr
            last_pcr = pcr
        if payload is None:
            continue
        if pid == 0:                       # PAT
            sec = _section(payload, pusi)
            if sec is not None and sec[0] == 0x00:
                body = sec[8:-4]
                for i in range(0, len(body) - 3, 4):
                    prog = (body[i] << 8) | body[i + 1]
                    p = ((body[i + 2] & 0x1F) << 8) | body[i + 3]
                    if prog != 0:          # 0 = network PID
                        pmt_pids.add(p)
        elif pid in pmt_pids and not streams:
            sec = _section(payload, pusi)
            if sec is not None and sec[0] == 0x02:
                pil = ((sec[10] & 0x0F) << 8) | sec[11]
                pos = 12 + pil
                body = sec[:-4]
                while pos + 5 <= len(body):
                    st = body[pos]
                    spid = ((body[pos + 1] & 0x1F) << 8) | body[pos + 2]
                    esil = ((body[pos + 3] & 0x0F) << 8) | body[pos + 4]
                    streams.append((st, spid))
                    pos += 5 + esil
    out = {"format": "mpegts", "codec": "", "width": -1, "height": -1,
           "frames": -1, "duration_ms": -1}
    video = [s for s in streams
             if s[0] in (0x01, 0x02, 0x1B, 0x24)]
    pick = video[0] if video else (streams[0] if streams else None)
    if pick is not None:
        out["codec"] = _STREAM_TYPES.get(pick[0], f"type{pick[0]:#x}")
    if first_pcr is not None and last_pcr is not None \
            and last_pcr >= first_pcr:
        out["duration_ms"] = int((last_pcr - first_pcr) * 1000 // 90000)
    return out


# ---------------------------------------------------------------------------
# fixture writer
# ---------------------------------------------------------------------------

def _psi_packet(pid: int, section: bytes, cc: int) -> bytes:
    sec = section + _crc32_mpeg(section).to_bytes(4, "big")
    payload = bytes([0]) + sec             # pointer_field 0
    hdr = bytes([0x47, 0x40 | (pid >> 8), pid & 0xFF, 0x10 | (cc & 0xF)])
    pad = b"\xff" * (_PKT - 4 - len(payload))
    return hdr + payload + pad


def _pcr_packet(pid: int, pcr_90k: int, cc: int) -> bytes:
    base = pcr_90k
    af = bytes([0x10,                       # PCR flag
                (base >> 25) & 0xFF, (base >> 17) & 0xFF,
                (base >> 9) & 0xFF, (base >> 1) & 0xFF,
                ((base & 1) << 7) | 0x7E, 0])
    aflen = _PKT - 4 - 1
    adaptation = bytes([aflen]) + af + b"\xff" * (aflen - len(af))
    hdr = bytes([0x47, pid >> 8, pid & 0xFF, 0x20 | (cc & 0xF)])
    return hdr + adaptation


def _section_hdr(table_id: int, body: bytes, ext: int) -> bytes:
    seclen = len(body) + 5 + 4             # ext..last + body + CRC
    return bytes([table_id, 0xB0 | (seclen >> 8), seclen & 0xFF,
                  ext >> 8, ext & 0xFF, 0xC1, 0, 0]) + body


def encode_ts_fixture(stream_type: int = 0x1B, duration_ms: int = 2000,
                      pmt_pid: int = 0x100, es_pid: int = 0x101) -> bytes:
    """Minimal conforming TS: PAT + PMT (one elementary stream) + two
    PCR packets spanning duration_ms."""
    pat_body = bytes([0, 1, 0xE0 | (pmt_pid >> 8), pmt_pid & 0xFF])
    pat = _section_hdr(0x00, pat_body, ext=1)
    pmt_body = (bytes([0xE0 | (es_pid >> 8), es_pid & 0xFF, 0xF0, 0])
                + bytes([stream_type, 0xE0 | (es_pid >> 8),
                         es_pid & 0xFF, 0xF0, 0]))
    pmt = _section_hdr(0x02, pmt_body, ext=1)
    pcr0 = 90_000                           # arbitrary 1 s origin
    pcr1 = pcr0 + duration_ms * 90
    return (_psi_packet(0, pat, 0) + _psi_packet(pmt_pid, pmt, 0)
            + _pcr_packet(es_pid, pcr0, 0) + _pcr_packet(es_pid, pcr1, 1))
