"""Pure-Python MP4 / ISO BMFF (ISO/IEC 14496-12) container codec.

Implements the container layer from the public spec: box walk (32- and
64-bit sizes, nested containers), movie/track headers, and the full
sample-table resolution chain (stsd codec entry, stts timing, stsc
sample-to-chunk, stsz/stz2 sizes, stco/co64 chunk offsets, stss sync
samples) → per-sample (offset, size, time) without decoding anything.

The PIXEL layer is real for Motion-JPEG tracks (sample entry ``jpeg`` /
``mjpa`` — every sample is an ITU-T T.81 bitstream handed to
``jpegcodec.decode_jpeg``, which this engine implements in pure numpy).
Every other video codec (``avc1``/H.264, ``hev1``/HEVC, ``vp09``,
``av01``) needs an external decoder and raises ``NotImplementedError``
naming the codec — but ``probe_mp4`` still returns its full track
metadata and sample layout, so the engine's FrameSample stage can demux
+ report even what it cannot rasterize.

The writers (``encode_mp4_mjpeg``, ``encode_mp4_pcm``) emit minimal
valid single-track MP4s so tests round-trip real container bitstreams
without vendored assets.

Reference semantics: the reference engine treats video payloads as
opaque binary + demuxed frames (SURVEY.md §2 multimodal rows); this
module is the container half of that contract.
"""
from __future__ import annotations

import struct

import numpy as np

_CONTAINERS = {b"moov", b"trak", b"mdia", b"minf", b"stbl", b"edts",
               b"dinf", b"udta", b"mvex", b"moof", b"traf", b"mfra"}

# codecs whose samples are standalone JPEG bitstreams our codec decodes
_MJPEG_FOURCC = {"jpeg", "mjpa"}


def is_mp4(b: bytes) -> bool:
    """ftyp (or styp/moov-first) signature at offset 4."""
    return len(b) >= 12 and b[4:8] in (b"ftyp", b"styp", b"moov")


def _iter_boxes(b: bytes, start: int, end: int):
    """Yield (type, payload_start, payload_end) for sibling boxes."""
    pos = start
    while pos + 8 <= end:
        size = struct.unpack(">I", b[pos:pos + 4])[0]
        btype = b[pos + 4:pos + 8]
        hdr = 8
        if size == 1:                       # 64-bit largesize
            if pos + 16 > end:
                raise ValueError("truncated largesize box")
            size = struct.unpack(">Q", b[pos + 8:pos + 16])[0]
            hdr = 16
        elif size == 0:                     # box extends to end of file
            size = end - pos
        if size < hdr or pos + size > end:
            raise ValueError(f"malformed box {btype!r} at {pos}")
        yield btype, pos + hdr, pos + size
        pos += size


def _fullbox(b: bytes, s: int):
    """(version, flags, payload_start) of a FullBox."""
    return b[s], struct.unpack(">I", b"\0" + b[s + 1:s + 4])[0], s + 4


def _parse_stsd(b: bytes, s: int, e: int) -> dict:
    _, _, p = _fullbox(b, s)
    count = struct.unpack(">I", b[p:p + 4])[0]
    p += 4
    entry = {"codec": None, "width": 0, "height": 0, "entry_body": b""}
    if count >= 1 and p + 8 <= e:
        size = struct.unpack(">I", b[p:p + 4])[0]
        entry["codec"] = b[p + 4:p + 8].decode("latin1").strip()
        entry["entry_body"] = bytes(b[p + 8:min(p + size, e)])
        # VisualSampleEntry: 6 reserved + 2 dref_idx + 16 predefined/reserved
        if size >= 36 and p + 36 <= e:
            w, h = struct.unpack(">HH", b[p + 32:p + 36])
            if 0 < w <= 16384 and 0 < h <= 16384:
                entry["width"], entry["height"] = w, h
    return entry


def _parse_table(b: bytes, s: int, row_fmt: str):
    """FullBox with uint32 entry_count then fixed-size rows."""
    _, _, p = _fullbox(b, s)
    count = struct.unpack(">I", b[p:p + 4])[0]
    p += 4
    width = struct.calcsize(row_fmt)
    return [struct.unpack(row_fmt, b[p + i * width:p + (i + 1) * width])
            for i in range(count)]


def _parse_stsz(b: bytes, s: int):
    _, _, p = _fullbox(b, s)
    fixed, count = struct.unpack(">II", b[p:p + 8])
    p += 8
    if fixed:
        return [fixed] * count
    return list(struct.unpack(f">{count}I", b[p:p + 4 * count]))


def _parse_stbl(b: bytes, s: int, e: int, track: dict):
    for btype, ps, pe in _iter_boxes(b, s, e):
        if btype == b"stsd":
            track.update(_parse_stsd(b, ps, pe))
        elif btype == b"stts":
            track["stts"] = _parse_table(b, ps, ">II")
        elif btype == b"stsc":
            track["stsc"] = _parse_table(b, ps, ">III")
        elif btype == b"stsz":
            track["sizes"] = _parse_stsz(b, ps)
        elif btype == b"stco":
            track["chunk_offsets"] = [r[0] for r in _parse_table(b, ps, ">I")]
        elif btype == b"co64":
            track["chunk_offsets"] = [r[0] for r in _parse_table(b, ps, ">Q")]
        elif btype == b"stss":
            track["sync_samples"] = [r[0] for r in _parse_table(b, ps, ">I")]


def _parse_mdhd(b: bytes, s: int, track: dict):
    ver, _, p = _fullbox(b, s)
    if ver == 1:
        track["timescale"] = struct.unpack(">I", b[p + 16:p + 20])[0]
        track["duration"] = struct.unpack(">Q", b[p + 20:p + 28])[0]
    else:
        track["timescale"], track["duration"] = \
            struct.unpack(">II", b[p + 8:p + 16])


def _parse_trak(b: bytes, s: int, e: int) -> dict:
    track = {"handler": None, "codec": None, "width": 0, "height": 0,
             "timescale": 0, "duration": 0, "sizes": [], "stsc": [],
             "chunk_offsets": [], "stts": [], "sync_samples": None,
             "track_id": 0, "entry_body": b""}
    for btype, ps, pe in _iter_boxes(b, s, e):
        if btype == b"tkhd":
            ver, _, p = _fullbox(b, ps)
            track["track_id"] = struct.unpack(
                ">I", b[p + (16 if ver else 8):p + (20 if ver else 12)])[0]
        elif btype == b"mdia":
            for mt, ms, me in _iter_boxes(b, ps, pe):
                if mt == b"mdhd":
                    _parse_mdhd(b, ms, track)
                elif mt == b"hdlr":
                    track["handler"] = b[ms + 8:ms + 12].decode("latin1")
                elif mt == b"minf":
                    for nt, ns, ne in _iter_boxes(b, ms, me):
                        if nt == b"stbl":
                            _parse_stbl(b, ns, ne, track)
    return track


def _sample_layout(track: dict) -> list[tuple[int, int]]:
    """Resolve stsc × stsz × stco into per-sample (offset, size).

    stsc rows are (first_chunk, samples_per_chunk, sample_desc_idx) runs:
    each row applies from its first_chunk until the next row's."""
    sizes, stsc, chunks = track["sizes"], track["stsc"], track["chunk_offsets"]
    if not sizes or not chunks:
        return []
    out: list[tuple[int, int]] = []
    si = 0
    for ci, chunk_off in enumerate(chunks, start=1):
        spc = 0
        for first, count, _ in stsc:
            if first <= ci:
                spc = count
            else:
                break
        off = chunk_off
        for _ in range(spc):
            if si >= len(sizes):
                break
            out.append((off, sizes[si]))
            off += sizes[si]
            si += 1
    return out


def probe_mp4(b: bytes) -> dict:
    """Container metadata without decoding: movie duration + per-track
    codec / dims / timing / sample layout."""
    if not is_mp4(b):
        raise ValueError("not an ISO BMFF stream")
    movie = {"brand": None, "timescale": 0, "duration": 0, "tracks": []}
    for btype, s, e in _iter_boxes(b, 0, len(b)):
        if btype == b"ftyp":
            movie["brand"] = b[s:s + 4].decode("latin1").strip()
        elif btype == b"moov":
            for mt, ms, me in _iter_boxes(b, s, e):
                if mt == b"mvhd":
                    ver, _, p = _fullbox(b, ms)
                    if ver == 1:
                        movie["timescale"] = struct.unpack(
                            ">I", b[p + 16:p + 20])[0]
                        movie["duration"] = struct.unpack(
                            ">Q", b[p + 20:p + 28])[0]
                    else:
                        movie["timescale"], movie["duration"] = \
                            struct.unpack(">II", b[p + 8:p + 16])
                elif mt == b"trak":
                    t = _parse_trak(b, ms, me)
                    t["samples"] = _sample_layout(t)
                    t["sample_count"] = len(t["samples"])
                    movie["tracks"].append(t)
    ts = movie["timescale"] or 1
    movie["duration_ms"] = int(movie["duration"] * 1000 / ts)
    return movie


def decode_mp4_frames(b: bytes) -> list[np.ndarray]:
    """MJPEG-in-MP4 → list of uint8 frames ((H,W) or (H,W,3)).

    Every other video codec (``avc1``, ``hev1``, ``vp09``, ``av01``)
    raises ``NotImplementedError`` naming the codec; ``ValueError`` if no
    video track exists."""
    from . import jpegcodec

    movie = probe_mp4(b)
    video = [t for t in movie["tracks"] if t["handler"] == "vide"]
    if not video:
        raise ValueError("no video track in MP4")
    track = video[0]
    codec = (track["codec"] or "?").lower()
    if codec not in _MJPEG_FOURCC:
        raise NotImplementedError(
            f"MP4 video codec {codec!r} requires an external decoder "
            "(only Motion-JPEG tracks decode in pure Python)")
    frames = []
    for off, size in track["samples"]:
        if off + size > len(b):
            raise ValueError("sample extends past end of file")
        frames.append(jpegcodec.decode_jpeg(bytes(b[off:off + size])))
    return frames


# PCM audio sample-entry fourccs this codec decodes: little/big-endian
# 16-bit and unsigned 8-bit (QuickTime conventions)
_PCM_FOURCC = {"sowt": "<i2", "twos": ">i2", "raw": "u1"}


def decode_mp4_audio(b: bytes):
    """PCM-in-MP4 → (float32 mono samples in [-1, 1], sample_rate).

    Raises ``NotImplementedError`` naming the codec for compressed audio
    (mp4a/AAC, …), ``ValueError`` if no audio track exists."""
    movie = probe_mp4(b)
    audio = [t for t in movie["tracks"] if t["handler"] == "soun"]
    if not audio:
        raise ValueError("no audio track in MP4")
    track = audio[0]
    codec = (track["codec"] or "?").lower().strip()
    if codec not in _PCM_FOURCC:
        raise NotImplementedError(
            f"MP4 audio codec {codec!r} requires an external decoder "
            "(only PCM sowt/twos/raw tracks decode in pure Python)")
    body = track["entry_body"]
    if len(body) < 28:
        raise ValueError("truncated audio sample entry")
    channels, sampsize = struct.unpack(">HH", body[16:20])
    rate = struct.unpack(">I", body[24:28])[0] >> 16   # 16.16 fixed point
    if codec != "raw" and sampsize not in (0, 16):
        raise NotImplementedError(f"{sampsize}-bit PCM unsupported")
    samples = track["samples"]
    if not samples:
        return np.zeros(0, np.float32), rate or track["timescale"]
    # PCM chunks are contiguous runs; join slices (single slice when the
    # writer used one chunk)
    data = b"".join(bytes(b[o:o + s]) for o, s in samples)
    if codec == "raw":
        x = (np.frombuffer(data, np.uint8).astype(np.float32) - 128.0) \
            / 128.0
    else:
        x = np.frombuffer(data, _PCM_FOURCC[codec]).astype(np.float32) \
            / 32768.0
    if channels > 1:
        x = x[::channels]
    return x, rate or track["timescale"]


# ---------------------------------------------------------------------------
# minimal MJPEG-MP4 writer (single video track, one chunk)
# ---------------------------------------------------------------------------

_UNITY_MATRIX = struct.pack(">9i", 0x10000, 0, 0, 0, 0x10000, 0,
                            0, 0, 0x40000000)


def _box(btype: bytes, payload: bytes) -> bytes:
    return struct.pack(">I", 8 + len(payload)) + btype + payload


def _full(btype: bytes, version: int, flags: int, payload: bytes) -> bytes:
    return _box(btype, struct.pack(">I", (version << 24) | flags) + payload)


def encode_mp4_pcm(x: np.ndarray, rate: int = 8000) -> bytes:
    """float samples in [-1, 1] → single-track mono sowt (LE 16-bit PCM)
    MP4 bytes. One chunk; stts/media timescale = sample rate."""
    pcm = (np.clip(np.asarray(x, np.float64), -1, 1)
           * 32767).astype("<i2").tobytes()
    n = len(pcm) // 2
    if n == 0:
        raise ValueError("need at least one sample")
    ftyp = _box(b"ftyp", b"isom" + struct.pack(">I", 512) + b"isomiso2mp41")
    first_sample_off = len(ftyp) + 8

    entry = (b"\0" * 6 + struct.pack(">H", 1)      # dref index
             + struct.pack(">HHI", 0, 0, 0)        # version/revision/vendor
             + struct.pack(">HHHH", 1, 16, 0, 0)   # ch, bits, cid, pkt
             + struct.pack(">I", rate << 16))      # 16.16 sample rate
    stsd = _full(b"stsd", 0, 0, struct.pack(">I", 1) + _box(b"sowt", entry))
    stts = _full(b"stts", 0, 0, struct.pack(">III", 1, n, 1))
    stsc = _full(b"stsc", 0, 0, struct.pack(">IIII", 1, 1, n, 1))
    stsz = _full(b"stsz", 0, 0, struct.pack(">II", 2, n))
    stco = _full(b"stco", 0, 0, struct.pack(">II", 1, first_sample_off))
    stbl = _box(b"stbl", stsd + stts + stsc + stsz + stco)
    smhd = _full(b"smhd", 0, 0, struct.pack(">HH", 0, 0))
    dref = _full(b"dref", 0, 0, struct.pack(">I", 1)
                 + _full(b"url ", 0, 1, b""))
    minf = _box(b"minf", smhd + _box(b"dinf", dref) + stbl)
    mdhd = _full(b"mdhd", 0, 0, struct.pack(">IIIIHH", 0, 0, rate, n,
                                            0x55C4, 0))
    hdlr = _full(b"hdlr", 0, 0, struct.pack(">I", 0) + b"soun"
                 + b"\0" * 12 + b"SoundHandler\0")
    mdia = _box(b"mdia", mdhd + hdlr + minf)
    tkhd = _full(b"tkhd", 0, 3, struct.pack(">IIII", 0, 0, 1, 0)
                 + struct.pack(">I", n) + b"\0" * 8
                 + struct.pack(">hhhh", 0, 0, 0x0100, 0) + _UNITY_MATRIX
                 + struct.pack(">II", 0, 0))
    trak = _box(b"trak", tkhd + mdia)
    mvhd = _full(b"mvhd", 0, 0, struct.pack(">IIII", 0, 0, rate, n)
                 + struct.pack(">IH", 0x00010000, 0x0100) + b"\0" * 10
                 + _UNITY_MATRIX + b"\0" * 24 + struct.pack(">I", 2))
    moov = _box(b"moov", mvhd + trak)
    return ftyp + _box(b"mdat", pcm) + moov


def encode_mp4_mjpeg(frames: list[np.ndarray], fps: int = 10,
                     quality: int = 90) -> bytes:
    """uint8 frames → single-track MJPEG MP4 bytes (ftyp + mdat + moov)."""
    from . import jpegcodec

    if not frames:
        raise ValueError("need at least one frame")
    samples = [jpegcodec.encode_jpeg_baseline(f, quality=quality)
               for f in frames]
    h, w = frames[0].shape[:2]
    n = len(samples)
    timescale = fps * 1000
    delta = 1000                                   # 1/fps seconds per frame
    duration = n * delta

    ftyp = _box(b"ftyp", b"isom" + struct.pack(">I", 512) + b"isomiso2mp41")
    mdat_payload = b"".join(samples)
    first_sample_off = len(ftyp) + 8               # mdat header is 8 bytes

    entry = (b"\0" * 6 + struct.pack(">H", 1)      # dref index
             + b"\0" * 16                          # predefined/reserved
             + struct.pack(">HH", w, h)
             + struct.pack(">IIIH", 0x480000, 0x480000, 0, 1)
             + bytes([5]) + b"mjpeg" + b"\0" * 26  # compressor name (pascal)
             + struct.pack(">Hh", 24, -1))
    stsd = _full(b"stsd", 0, 0, struct.pack(">I", 1)
                 + _box(b"jpeg", entry))
    stts = _full(b"stts", 0, 0, struct.pack(">III", 1, n, delta))
    stsc = _full(b"stsc", 0, 0, struct.pack(">IIII", 1, 1, n, 1))
    stsz = _full(b"stsz", 0, 0, struct.pack(">II", 0, n)
                 + b"".join(struct.pack(">I", len(s)) for s in samples))
    stco = _full(b"stco", 0, 0, struct.pack(">II", 1, first_sample_off))
    stbl = _box(b"stbl", stsd + stts + stsc + stsz + stco)
    vmhd = _full(b"vmhd", 0, 1, struct.pack(">HHHH", 0, 0, 0, 0))
    dref = _full(b"dref", 0, 0, struct.pack(">I", 1)
                 + _full(b"url ", 0, 1, b""))
    minf = _box(b"minf", vmhd + _box(b"dinf", dref) + stbl)
    mdhd = _full(b"mdhd", 0, 0, struct.pack(">IIIIHH", 0, 0, timescale,
                                            duration, 0x55C4, 0))
    hdlr = _full(b"hdlr", 0, 0, struct.pack(">I", 0) + b"vide"
                 + b"\0" * 12 + b"VideoHandler\0")
    mdia = _box(b"mdia", mdhd + hdlr + minf)
    tkhd = _full(b"tkhd", 0, 3, struct.pack(">IIII", 0, 0, 1, 0)
                 + struct.pack(">I", duration) + b"\0" * 8
                 + struct.pack(">hhhh", 0, 0, 0, 0) + _UNITY_MATRIX
                 + struct.pack(">II", w << 16, h << 16))
    trak = _box(b"trak", tkhd + mdia)
    mvhd = _full(b"mvhd", 0, 0, struct.pack(">IIII", 0, 0, timescale,
                                            duration)
                 + struct.pack(">IH", 0x00010000, 0x0100) + b"\0" * 10
                 + _UNITY_MATRIX + b"\0" * 24 + struct.pack(">I", 2))
    moov = _box(b"moov", mvhd + trak)
    return ftyp + _box(b"mdat", mdat_payload) + moov
