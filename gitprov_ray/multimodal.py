"""Multimodal (image/audio/video) column stages.

Binary payloads are opaque ``binary`` columns with typed metadata; every
stage is an actor-pool ``map_batches`` callable class (codec/model loaded
once per actor in ``__init__``).

REAL kernels (pure numpy / stdlib — no external codec needed):
  * PPM/PGM (binary netpbm P6/P5) decode, nearest-neighbor resize and
    pooled-grid feature extraction — the uncompressed image family;
  * WAV (PCM) decode via the stdlib ``wave`` module → duration, RMS,
    zero-crossing rate and a windowed-RMS-envelope embedding;
  * frame sampling over concatenated-PPM streams (the
    ``ffmpeg -f image2pipe -vcodec ppm`` pipe format).

JPEG is REAL too (pure-numpy codec, ``jpegcodec.py`` — baseline SOF0/1
AND progressive SOF2 with successive approximation): decode, resize
(decode → nearest resize → re-encode) and grid features all accept
``ffd8``-signature payloads. PNG is REAL as well (``pngcodec.py``:
stdlib zlib + all five scanline filters, every legal depth 1-16,
Adam7 interlace; palette/alpha expand), and so is GIF87a/89a
(``gifcodec.py``: LZW, interlace, transparency, frame composition —
animated GIF is the real compressed path through the video FrameSample
stage). MP4 demux is REAL (``mp4codec.py``: ISO BMFF box walk + full
sample-table resolution), and MJPEG-in-MP4 decodes end-to-end through
the JPEG codec. WebP lossless is REAL (``webpcodec.py``: VP8L prefix
codes, LZ77 + color cache, all four transforms). Externally-blocked
paths (H.264/``avc1``, HEVC/``hev1``, VP9, AV1, lossy WebP/VP8 —
RFC 6386 probability tables — MP3/AAC sample decode) are STUBS: by
default they raise ``NotImplementedError`` naming the missing codec;
with ``deterministic_fake=True`` they produce seeded deterministic
fakes so the Ray-side plumbing (schemas, batch sizing, actor
signatures, output layout) is exercised end-to-end regardless of
payload format. ``probe_media`` still reports their container
metadata.

Batch-size guidance: payload columns dominate memory — size ``batch_size``
so batch_bytes × concurrency fits the worker heap (a 1 MiB-mean image
column wants batch_size ≲ 64 with 8 actors on a 4 GiB heap).
"""

from __future__ import annotations

import hashlib
import io
import struct

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.string()),
        ("kind", pa.string()),            # image | audio | video
        ("payload", pa.binary()),
        ("mime", pa.string()),
        ("width", pa.int32()),            # -1 when unknown/not applicable
        ("height", pa.int32()),
        ("duration_ms", pa.int32()),
    ]
)


# ---------------------------------------------------------------------------
# real codecs (uncompressed formats, numpy/stdlib only)
# ---------------------------------------------------------------------------

def parse_ppm(b: bytes):
    """Binary netpbm → (array HxWxC uint8, header_len). P6 (RGB) and P5
    (gray, C=1). Returns None if not a binary netpbm payload."""
    if len(b) < 2 or b[:1] != b"P" or b[1:2] not in (b"5", b"6"):
        return None
    channels = 3 if b[1:2] == b"6" else 1
    # header: magic, width, height, maxval — whitespace separated, with
    # optional '#' comments
    fields: list[int] = []
    i = 2
    while len(fields) < 3 and i < len(b):
        while i < len(b) and b[i] in b" \t\r\n":
            i += 1
        if i < len(b) and b[i:i + 1] == b"#":
            while i < len(b) and b[i] not in b"\r\n":
                i += 1
            continue
        j = i
        while j < len(b) and b[j] not in b" \t\r\n":
            j += 1
        try:
            fields.append(int(b[i:j]))
        except ValueError:
            return None
        i = j
    if len(fields) < 3 or fields[2] > 255:
        return None
    i += 1                                # single whitespace after maxval
    w, h = fields[0], fields[1]
    n = w * h * channels
    if i + n > len(b):
        return None
    arr = np.frombuffer(b, dtype=np.uint8, count=n, offset=i)
    return arr.reshape(h, w, channels), i + n


def render_ppm(arr: np.ndarray) -> bytes:
    """HxWxC uint8 → binary netpbm bytes (P6 for C=3, P5 for C=1)."""
    h, w, c = arr.shape
    magic = b"P6" if c == 3 else b"P5"
    return magic + f"\n{w} {h}\n255\n".encode() + arr.tobytes()


def resize_nearest(arr: np.ndarray, w: int, h: int) -> np.ndarray:
    """Nearest-neighbor resize via numpy fancy indexing (vectorized)."""
    sh, sw = arr.shape[0], arr.shape[1]
    rows = np.minimum((np.arange(h) * sh) // h, sh - 1)
    cols = np.minimum((np.arange(w) * sw) // w, sw - 1)
    return arr[rows][:, cols]


def image_grid_features(arr: np.ndarray, grid: int = 8) -> np.ndarray:
    """Pooled-grid intensity embedding: grayscale → grid×grid mean-pooled
    cells, flattened and scaled to [0,1] (float32, grid² dims)."""
    gray = arr.mean(axis=2, dtype=np.float64)
    pooled = resize_nearest(gray[..., None], grid, grid)[..., 0]
    return (pooled / 255.0).astype(np.float32).reshape(-1)


def _audiocodec_is_mp3(b: bytes) -> bool:
    from . import audiocodec

    return audiocodec.is_mp3(b)


def _audiocodec_is_adts(b: bytes) -> bool:
    from . import audiocodec

    return audiocodec.is_adts_aac(b)


def _avicodec_is_avi(b: bytes) -> bool:
    from . import avicodec

    return avicodec.is_avi(b)


def _tiffcodec_is_tiff(b: bytes) -> bool:
    from . import tiffcodec

    return tiffcodec.is_tiff(b)


def _bmpcodec_is_bmp(b: bytes) -> bool:
    from . import bmpcodec

    return bmpcodec.is_bmp(b)


def _icocodec_is_ico(b: bytes) -> bool:
    from . import icocodec

    return icocodec.is_ico(b)


def parse_wav(b: bytes):
    """WAV bytes → (samples float32 in [-1,1] first channel, sample_rate).
    stdlib ``wave`` handles plain 8/16-bit PCM; everything else WAV
    (G.711 μ-law/A-law, IMA ADPCM, IEEE float, 24/32-bit PCM) decodes
    through ``audiocodec.parse_wav_extended``. Returns None for non-WAV
    payloads; raises NotImplementedError naming genuinely external
    codecs (MP3/AAC-in-WAV). FLAC payloads decode through
    ``flaccodec`` (full pure-Python decoder)."""
    import wave

    if b[:4] == b"fLaC":
        from . import flaccodec

        return flaccodec.decode_flac(b)
    if _audiocodec_is_mp3(b):
        raise NotImplementedError(
            "mp3: external MPEG audio codec (the Layer III Huffman "
            "tables are spec data) — header metadata via probe_media")
    if b[:4] == b"OggS":
        raise NotImplementedError(
            "ogg: Vorbis/Opus transform decode is external — container "
            "metadata via probe_media")
    if _audiocodec_is_adts(b):
        raise NotImplementedError(
            "aac: external MPEG-4 audio codec (the scalefactor/spectrum "
            "Huffman codebooks are spec data) — header metadata via "
            "probe_media")
    if b[:4] == b"FORM" and b[8:12] in (b"AIFF", b"AIFC"):
        from . import audiocodec

        parsed = audiocodec.parse_aiff(b)     # AIFC raises (external)
        if parsed is not None:
            x, rate, _codec = parsed
            return x, rate
        return None
    if b[:4] == b".snd":
        from . import audiocodec

        parsed = audiocodec.parse_au(b)
        if parsed is not None:
            x, rate, _codec = parsed
            return x, rate
        return None
    try:
        with wave.open(io.BytesIO(b)) as w:
            rate = w.getframerate()
            nch = w.getnchannels()
            width = w.getsampwidth()
            frames = w.readframes(w.getnframes())
    except Exception:
        from . import audiocodec

        parsed = audiocodec.parse_wav_extended(b)
        if parsed is None:
            return None
        x, rate, _codec = parsed
        return x, rate
    if width == 2:
        x = np.frombuffer(frames, dtype="<i2").astype(np.float32) / 32768.0
    elif width == 1:
        x = (np.frombuffer(frames, dtype=np.uint8).astype(np.float32) - 128.0) / 128.0
    else:
        from . import audiocodec

        parsed = audiocodec.parse_wav_extended(b)
        if parsed is None:
            return None
        x, rate, _codec = parsed
        return x, rate
    if nch > 1:
        x = x[::nch]
    return x, rate


def audio_envelope_features(x: np.ndarray, dim: int = 16) -> np.ndarray:
    """Windowed RMS envelope over `dim` equal windows (float32)."""
    if len(x) == 0:
        return np.zeros(dim, dtype=np.float32)
    n = len(x)
    edges = (np.arange(dim + 1) * n) // dim
    out = np.empty(dim, dtype=np.float32)
    for i in range(dim):
        seg = x[edges[i]: max(edges[i + 1], edges[i] + 1)]
        out[i] = np.sqrt(np.mean(seg * seg))
    return out


def iter_ppm_stream(b: bytes):
    """Yield (array, offset) for each frame of a concatenated-PPM stream
    (the ffmpeg image2pipe/ppm pipe format)."""
    pos = 0
    while pos < len(b):
        parsed = parse_ppm(b[pos:])
        if parsed is None:
            return
        arr, consumed = parsed
        yield arr, pos
        pos += consumed


def decode_image(b: bytes):
    """payload → HxWxC uint8 array for the REAL codecs (netpbm, baseline
    JPEG, PNG, GIF); None when the payload is none of these
    (progressive JPEG included — the caller decides between stub and
    fake)."""
    parsed = parse_ppm(b)
    if parsed is not None:
        return parsed[0]
    from . import jpegcodec, pngcodec

    if jpegcodec.is_jpeg(b):
        try:
            arr = jpegcodec.decode_jpeg(b)
        except (NotImplementedError, ValueError):
            return None
        return arr[..., None] if arr.ndim == 2 else arr
    if pngcodec.is_png(b):
        try:
            return pngcodec.decode_png(b)
        except (NotImplementedError, ValueError):
            return None
    from . import gifcodec

    if gifcodec.is_gif(b):              # static image use: first frame
        try:
            return gifcodec.decode_gif(b)[0]
        except (NotImplementedError, ValueError):
            return None
    from . import webpcodec

    if webpcodec.is_webp(b):            # lossless VP8L only; VP8 → None
        try:
            return webpcodec.decode_webp(b)
        except (NotImplementedError, ValueError):
            return None
    from . import icocodec

    if icocodec.is_ico(b):              # favicon: largest PNG/DIB entry
        try:
            return icocodec.decode_ico(b)
        except (NotImplementedError, ValueError):
            return None
    from . import bmpcodec, tiffcodec

    if tiffcodec.is_tiff(b):            # 8-bit strip TIFF (none/LZW/PackBits)
        try:
            arr = tiffcodec.decode_tiff(b)
        except (NotImplementedError, ValueError):
            return None
        return arr[..., None] if arr.ndim == 2 else arr
    if bmpcodec.is_bmp(b):              # 24/32-bpp + 8-bpp palette/RLE8
        try:
            arr = bmpcodec.decode_bmp(b)
        except (NotImplementedError, ValueError):
            return None
        if arr.ndim == 3 and arr.shape[2] == 4:
            arr = arr[..., :3]          # drop alpha for the stats stages
        return arr[..., None] if arr.ndim == 2 else arr
    from . import qoicodec

    if qoicodec.is_qoi(b):              # QOI (lossless, 3/4-channel)
        try:
            arr = qoicodec.decode_qoi(b)
        except (NotImplementedError, ValueError):
            return None
        return arr[..., :3] if arr.shape[2] == 4 else arr
    from . import pcxcodec

    if pcxcodec.is_pcx(b):              # PCX (weak magic: before TGA only)
        try:
            arr = pcxcodec.decode_pcx(b)
        except (NotImplementedError, ValueError):
            return None
        return arr[..., None] if arr.ndim == 2 else arr
    from . import tgacodec

    # TGA has no magic — its header heuristic goes LAST so every
    # magic-bearing format above wins first.
    if tgacodec.is_tga(b):
        try:
            arr = tgacodec.decode_tga(b)
        except (NotImplementedError, ValueError):
            return None
        return arr[..., :3] if arr.shape[2] == 4 else arr
    return None


def _fake_floats(seed_bytes: bytes, n: int) -> np.ndarray:
    h = hashlib.sha256(seed_bytes).digest()
    rng = np.random.RandomState(int.from_bytes(h[:4], "big"))
    return rng.rand(n).astype(np.float32)


# ---------------------------------------------------------------------------
# actor-pool stages
# ---------------------------------------------------------------------------

class ImageDecode:
    """payload → dims + channel stats. REAL for binary netpbm (P5/P6) and
    baseline JPEG (jpegcodec.py); other compressed formats need Pillow
    (stubbed) or ``deterministic_fake``."""

    def __init__(self, deterministic_fake: bool = False):
        self.fake = deterministic_fake

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, widths, heights, means = [], [], [], []
        for mid, payload in zip(batch.column("media_id").to_pylist(),
                                batch.column("payload").to_pylist()):
            b = payload or b""
            arr = decode_image(b)
            if arr is not None:
                widths.append(arr.shape[1])
                heights.append(arr.shape[0])
                means.append(float(arr.mean()) / 255.0)
            elif self.fake:
                f = _fake_floats(b, 3)
                widths.append(int(16 + (len(b) % 1024)))
                heights.append(int(16 + (len(b) % 768)))
                means.append(float(f.mean()))
            else:
                raise NotImplementedError(
                    "compressed image decode requires Pillow (not "
                    "installed); use netpbm payloads or deterministic_fake")
            ids.append(mid)
        return pa.table({
            "media_id": pa.array(ids, pa.string()),
            "width": pa.array(widths, pa.int32()),
            "height": pa.array(heights, pa.int32()),
            "channel_mean": pa.array(means, pa.float32()),
        })


class ImageResize:
    """payload → resized payload. REAL nearest-neighbor resize for netpbm
    (PPM out) and baseline JPEG (decode → resize → re-encode JPEG); other
    compressed formats stubbed (fake = sha256 placeholder)."""

    def __init__(self, target: tuple[int, int] = (224, 224),
                 deterministic_fake: bool = False):
        self.target = target
        self.fake = deterministic_fake

    def __call__(self, batch: pa.Table) -> pa.Table:
        from . import jpegcodec, pngcodec

        w, h = self.target
        out = []
        for payload in batch.column("payload").to_pylist():
            b = payload or b""
            parsed = parse_ppm(b)
            if parsed is not None:
                out.append(render_ppm(resize_nearest(parsed[0], w, h)))
                continue
            arr = decode_image(b)
            if arr is not None:                  # same format in → out
                small = resize_nearest(arr, w, h)
                if pngcodec.is_png(b):
                    out.append(pngcodec.encode_png(small))
                    continue
                from . import gifcodec

                if gifcodec.is_gif(b):
                    # nearest-resize usually keeps the palette ≤256, but a
                    # composited frame (background fill + local tables +
                    # transparency) can exceed it — fall back to PPM then
                    try:
                        out.append(gifcodec.encode_gif([small]))
                    except ValueError:
                        out.append(render_ppm(small))
                    continue
                from . import webpcodec

                if webpcodec.is_webp(b):
                    out.append(webpcodec.encode_webp_lossless(small))
                    continue
                from . import bmpcodec, tiffcodec

                if tiffcodec.is_tiff(b):
                    out.append(tiffcodec.encode_tiff(
                        small.squeeze(-1) if small.shape[-1] == 1
                        else small))
                    continue
                if bmpcodec.is_bmp(b):
                    sq = small.squeeze(-1) if small.shape[-1] == 1 \
                        else small
                    out.append(bmpcodec.encode_bmp(sq))
                    continue
                from . import pcxcodec, qoicodec, tgacodec

                if pcxcodec.is_pcx(b):           # PCX in → PCX out
                    out.append(pcxcodec.encode_pcx(small[..., :3]))
                    continue
                if qoicodec.is_qoi(b):           # QOI in → QOI out
                    out.append(qoicodec.encode_qoi(small))
                    continue
                if tgacodec.is_tga(b):           # TGA in → TGA out
                    out.append(tgacodec.encode_tga(small[..., :3]))
                    continue
                from . import icocodec

                if icocodec.is_ico(b):           # ICO in → ICO out
                    if max(w, h) <= 256:
                        out.append(icocodec.encode_ico([small]))
                    else:                        # > ICO's 256px ceiling
                        out.append(pngcodec.encode_png(small))
                    continue
                out.append(jpegcodec.encode_jpeg_baseline(
                    small.squeeze(-1) if small.shape[-1] == 1 else small))
            elif self.fake:
                out.append(hashlib.sha256(b + f"{w}x{h}".encode()).digest())
            else:
                raise NotImplementedError(
                    "compressed image resize requires Pillow (not "
                    "installed); use netpbm payloads or deterministic_fake")
        return pa.table({
            "media_id": batch.column("media_id"),
            "payload": pa.array(out, pa.binary()),
            "width": pa.array([w] * len(out), pa.int32()),
            "height": pa.array([h] * len(out), pa.int32()),
        })


class FeatureExtract:
    """payload → embedding list<float32>. REAL pooled-grid features for
    netpbm images (grid² dims); otherwise a model stub (fake = seeded)."""

    def __init__(self, dim: int = 64, deterministic_fake: bool = False):
        self.dim = dim
        self.grid = max(1, int(np.sqrt(dim)))
        self.fake = deterministic_fake

    def __call__(self, batch: pa.Table) -> pa.Table:
        embs = []
        for p in batch.column("payload").to_pylist():
            b = p or b""
            arr = decode_image(b)
            if arr is not None:
                e = image_grid_features(arr, self.grid)
                if len(e) < self.dim:
                    e = np.pad(e, (0, self.dim - len(e)))
                embs.append(e[: self.dim].tolist())
            elif self.fake:
                embs.append(_fake_floats(b, self.dim).tolist())
            else:
                raise NotImplementedError(
                    "feature extraction for compressed formats requires a "
                    "vision model (none installed); use netpbm payloads or "
                    "deterministic_fake")
        return pa.table({
            "media_id": batch.column("media_id"),
            "embedding": pa.array(embs, pa.list_(pa.float32())),
        })


class AudioFeatures:
    """audio payload → duration_ms, rms, zero-crossing rate and a
    windowed RMS-envelope embedding. REAL for PCM WAV (stdlib wave),
    G.711 μ-law/A-law + IMA ADPCM + IEEE-float WAV (audiocodec.py) and
    PCM-in-MP4 (mp4codec demux, sowt/twos/raw sample entries);
    compressed audio needing external decoders (AAC, MP3, …) raises
    naming the codec (fake = seeded)."""

    def __init__(self, env_dim: int = 16, deterministic_fake: bool = False):
        self.env_dim = env_dim
        self.fake = deterministic_fake

    def __call__(self, batch: pa.Table) -> pa.Table:
        from . import mp4codec

        ids, durs, rmss, zcrs, envs = [], [], [], [], []
        for mid, p in zip(batch.column("media_id").to_pylist(),
                          batch.column("payload").to_pylist()):
            b = p or b""
            try:
                parsed = parse_wav(b)
            except NotImplementedError:
                if not self.fake:
                    raise                # name the codec, don't mask it
                parsed = None
            if parsed is None and mp4codec.is_mp4(b):
                try:
                    parsed = mp4codec.decode_mp4_audio(b)
                except (NotImplementedError, ValueError):
                    if not self.fake:
                        raise            # name the codec, don't mask it
            if parsed is None and _avicodec_is_avi(b):
                from . import avicodec

                try:
                    parsed = avicodec.decode_avi_audio(b)
                except (NotImplementedError, ValueError):
                    if not self.fake:
                        raise            # name the codec, don't mask it
            if parsed is not None:
                x, rate = parsed
                durs.append(int(len(x) * 1000 / max(rate, 1)))
                rmss.append(float(np.sqrt(np.mean(x * x))) if len(x) else 0.0)
                zcrs.append(float(np.mean(np.abs(np.diff(np.signbit(x)))))
                            if len(x) > 1 else 0.0)
                envs.append(audio_envelope_features(x, self.env_dim).tolist())
            elif self.fake:
                f = _fake_floats(b, self.env_dim + 3)
                durs.append(int(f[0] * 60_000))
                rmss.append(float(f[1]))
                zcrs.append(float(f[2]))
                envs.append(f[3:].tolist())
            else:
                raise NotImplementedError(
                    "compressed audio decode requires an audio codec (none "
                    "installed); use WAV payloads or deterministic_fake")
            ids.append(mid)
        return pa.table({
            "media_id": pa.array(ids, pa.string()),
            "duration_ms": pa.array(durs, pa.int32()),
            "rms": pa.array(rmss, pa.float32()),
            "zcr": pa.array(zcrs, pa.float32()),
            "envelope": pa.array(envs, pa.list_(pa.float32())),
        })


def decode_video_frames(b: bytes, fake: bool = False):
    """Payload → list of RGB frames through the engine's OWN codecs
    (concatenated-PPM, animated GIF/PNG/WebP, MJPEG-in-MP4, MJPG/raw-DIB
    AVI), or None for unrecognized bytes. Unsupported codecs inside a
    recognized container (MP4 avc1/hev1/vp09/av01) raise NotImplementedError
    naming the codec unless ``fake`` (GIF/PNG parse failures degrade to
    None — malformed image, not a declared stub). Shared by FrameSample
    and ShotBoundary so the container dispatch lives in ONE place."""
    from . import gifcodec, mp4codec, pngcodec

    parsed = list(iter_ppm_stream(b))
    if parsed:
        return [p[0] for p in parsed]
    if gifcodec.is_gif(b):        # animated GIF: real compressed path
        try:
            return gifcodec.decode_gif(b)
        except (NotImplementedError, ValueError):
            return None
    if pngcodec.is_png(b):        # animated PNG: acTL/fcTL/fdAT path
        try:
            if pngcodec.probe_png(b)["animated"]:
                return [f[..., :3]
                        for f in pngcodec.decode_apng_frames(b)]
        except (NotImplementedError, ValueError):
            return None
        return None
    if mp4codec.is_mp4(b):        # MJPEG MP4: real demux + decode
        try:
            return mp4codec.decode_mp4_frames(b)
        except (NotImplementedError, ValueError):
            if not fake:
                raise              # name the codec, don't mask it
            return None
    if _avicodec_is_avi(b):       # AVI: MJPG + raw-DIB demux
        from . import avicodec

        try:
            return avicodec.decode_avi_frames(b)
        except (NotImplementedError, ValueError):
            if not fake:
                raise              # name the codec, don't mask it
            return None
    from . import webpcodec

    if webpcodec.is_webp(b):      # animated WebP: real VP8L path
        try:
            return [f[..., :3]
                    for f in webpcodec.decode_webp_frames(b)]
        except (NotImplementedError, ValueError):
            if not fake:
                raise              # name the codec, don't mask it
            return None
    return None


class FrameSample:
    """video payload → k evenly-spaced frames. REAL for concatenated-PPM
    streams (ffmpeg image2pipe/ppm), animated GIF (gifcodec.py — LZW
    decode + frame composition), animated PNG (pngcodec.py —
    acTL/fcTL/fdAT demux + dispose/blend composition), MJPEG-in-MP4
    (mp4codec.py — ISO BMFF demux + per-sample JPEG decode), MJPG and
    raw-DIB AVI (avicodec.py — RIFF demux) and animated WebP
    (webpcodec.py — VP8L frames + ANMF composition); every other MP4
    codec (avc1/hev1/vp09/av01) raises naming the codec (fake = k
    sha256 digest rows).
    Output is exploded (one row per sampled frame, rendered as PPM)."""

    def __init__(self, k: int = 4, deterministic_fake: bool = False):
        self.k = k
        self.fake = deterministic_fake

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, idxs, frames = [], [], []
        for mid, payload in zip(batch.column("media_id").to_pylist(),
                                batch.column("payload").to_pylist()):
            b = payload or b""
            decoded = decode_video_frames(b, fake=self.fake)
            if decoded:
                n = len(decoded)
                picks = sorted({(i * n) // self.k for i in range(self.k)}) \
                    if n >= 1 else []
                for fi, pick in enumerate(picks):
                    ids.append(mid)
                    idxs.append(fi)
                    frames.append(render_ppm(decoded[pick]))
            elif self.fake:
                for i in range(self.k):
                    ids.append(mid)
                    idxs.append(i)
                    frames.append(hashlib.sha256(b + bytes([i])).digest())
            else:
                raise NotImplementedError(
                    "video container demux requires an av codec (none "
                    "installed); use concatenated-PPM streams, animated "
                    "GIF, or deterministic_fake")
        return pa.table({
            "media_id": pa.array(ids, pa.string()),
            "frame_idx": pa.array(idxs, pa.int32()),
            "frame": pa.array(frames, pa.binary()),
        })


class ShotBoundary:
    """Shot-boundary (scene-cut) detection by pairwise luma-histogram
    comparison (Zhang, Kankanhalli & Smoliar 1993 — the classic
    threshold method every video-curation pipeline starts from): every
    payload decodes to frames through decode_video_frames (the engine's
    own codecs), each frame reduces to a 16-bin INTEGER luma histogram
    (299/587/114//1000 luma — the dHash formula), and consecutive
    frames compare by L1 distance normalized to milli-units of the
    maximum (2·npixels): diff_milli = ΣΔ·1000 // (2·npix). A pair at or
    above ``threshold_milli`` is a cut. All-integer, so the emitted
    rows are deterministic bit-for-bit on any worker layout.

    Actor-pool stage: construct once per actor, stream batches through
    __call__. Output is exploded — one row per consecutive frame pair:
    (media_id, frame_idx of the SECOND frame, diff_milli, is_cut)."""

    def __init__(self, bins: int = 16, threshold_milli: int = 400,
                 deterministic_fake: bool = False):
        self.bins = bins
        self.threshold = threshold_milli
        self.fake = deterministic_fake

    def _hist(self, frame) -> "np.ndarray":
        f = frame.astype(np.int64)
        luma = (f[..., 0] * 299 + f[..., 1] * 587
                + f[..., 2] * 114) // 1000
        return np.bincount((luma * self.bins // 256).ravel(),
                           minlength=self.bins)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, idxs, diffs, cuts = [], [], [], []
        for mid, payload in zip(batch.column("media_id").to_pylist(),
                                batch.column("payload").to_pylist()):
            b = payload or b""
            decoded = decode_video_frames(b, fake=self.fake)
            if not decoded or len(decoded) < 2:
                continue                 # stills have no boundaries
            hists = [self._hist(f) for f in decoded]
            for i in range(1, len(hists)):
                npix = int(hists[i].sum())
                d = int(np.abs(hists[i] - hists[i - 1]).sum())
                dm = d * 1000 // (2 * npix) if npix else 0
                ids.append(mid)
                idxs.append(i)
                diffs.append(dm)
                cuts.append(dm >= self.threshold)
        return pa.table({
            "media_id": pa.array(ids, pa.string()),
            "frame_idx": pa.array(idxs, pa.int32()),
            "diff_milli": pa.array(diffs, pa.int64()),
            "is_cut": pa.array(cuts, pa.bool_()),
        })


def probe_media(b: bytes) -> dict:
    """Typed metadata from a payload WITHOUT full decode (header-only
    probes: JPEG marker walk, PNG IHDR, GIF block walk, WAV header, MP4
    moov, netpbm headers). Returns
    ``{format, codec, width, height, frames, duration_ms}`` with -1 for
    not-applicable fields and format="unknown" for unrecognized bytes —
    unknown is a legitimate probe RESULT, not an error (this is the
    metadata-extraction stage of a curation pipeline, where unprobeable
    payloads get filtered downstream, not crash the job)."""
    from . import gifcodec, jpegcodec, mp4codec, pngcodec, webpcodec

    b = b or b""
    out = {"format": "unknown", "codec": "", "width": -1, "height": -1,
           "frames": -1, "duration_ms": -1}
    try:
        if webpcodec.is_webp(b):
            p = webpcodec.probe_webp(b)
            out.update(format="webp", codec=p["codec"],
                       width=p["width"], height=p["height"],
                       frames=p["frames"] if p["animated"] else 1,
                       duration_ms=p["duration_ms"] if p["animated"]
                       else -1)
            return out
        if jpegcodec.is_jpeg(b):
            p = jpegcodec.probe_jpeg(b)
            out.update(format="jpeg",
                       codec="progressive" if p["progressive"]
                       else "baseline",
                       width=p["width"], height=p["height"], frames=1)
        elif pngcodec.is_png(b):
            p = pngcodec.probe_png(b)
            out.update(format="png",
                       codec=f"depth{p['bit_depth']}"
                       + ("-adam7" if p["interlaced"] else "")
                       + ("-apng" if p["animated"] else ""),
                       width=p["width"], height=p["height"],
                       frames=p["frames"],
                       duration_ms=p["duration_ms"])
        elif gifcodec.is_gif(b):
            p = gifcodec.probe_gif(b)
            out.update(format="gif",
                       codec="animated" if p["animated"] else "static",
                       width=p["width"], height=p["height"],
                       frames=p["frames"], duration_ms=p["duration_ms"])
        elif _tiffcodec_is_tiff(b):
            from . import tiffcodec

            p = tiffcodec.probe_tiff(b)
            out.update(format="tiff", codec=p["compression"],
                       width=p["width"], height=p["height"], frames=1)
        elif _bmpcodec_is_bmp(b):
            from . import bmpcodec

            p = bmpcodec.probe_bmp(b)
            out.update(format="bmp", codec=p["compression"],
                       width=p["width"], height=p["height"], frames=1)
        elif _icocodec_is_ico(b):
            from . import icocodec

            p = icocodec.probe_ico(b)
            big = max(p["entries"], key=lambda e: e["width"] * e["height"])
            out.update(format="ico",
                       codec=f"{big['format']}{big['bpp']}",
                       width=p["width"], height=p["height"],
                       frames=p["count"])
        elif b[:5] == b"%PDF-":
            from . import pdfextract

            p = pdfextract.probe_pdf(b)
            out.update(format="pdf",
                       codec="encrypted" if p["encrypted"] else "text",
                       width=int(p["width"]), height=int(p["height"]),
                       frames=p["pages"])
        elif mp4codec.is_mp4(b):
            p = mp4codec.probe_mp4(b)
            video = [t for t in p["tracks"] if t["handler"] == "vide"]
            t = video[0] if video else (p["tracks"][0] if p["tracks"]
                                        else None)
            out.update(format="mp4", duration_ms=p["duration_ms"])
            if t:
                out.update(codec=t["codec"] or "", width=t["width"] or -1,
                           height=t["height"] or -1,
                           frames=t["sample_count"])
        elif b[:4] == b"fLaC":
            from . import flaccodec

            p = flaccodec.probe_flac(b)
            if p is not None:
                out.update(format="flac", codec="flac",
                           duration_ms=p["duration_ms"])
        elif b[:4] == b"RIFF" and b[8:12] == b"AVI ":
            from . import avicodec

            try:
                p = avicodec.probe_avi(b)
            except ValueError:
                p = None
            if p is not None:
                out.update(p)
        elif b[:4] == b"RIFF":
            from . import audiocodec

            p = audiocodec.probe_wav(b)
            if p is not None:
                codec = p["codec"]
                if codec == "pcm":
                    import wave

                    try:
                        with wave.open(io.BytesIO(b)) as w:
                            codec = f"pcm{8 * w.getsampwidth()}"
                    except Exception:
                        pass
                out.update(format="wav", codec=codec,
                           duration_ms=p["duration_ms"])
        elif _audiocodec_is_mp3(b):
            from . import audiocodec

            p = audiocodec.probe_mp3(b)
            if p is not None:
                out.update(format="mp3", codec=p["codec"],
                           frames=p["frames"],
                           duration_ms=p["duration_ms"])
        elif b[:4] == b"OggS":
            from . import audiocodec

            p = audiocodec.probe_ogg(b)
            if p is not None:
                out.update(format="ogg", codec=p["codec"],
                           duration_ms=p["duration_ms"])
        elif _audiocodec_is_adts(b):
            from . import audiocodec

            p = audiocodec.probe_adts(b)
            if p is not None:
                out.update(format="adts", codec=p["codec"],
                           frames=p["frames"],
                           duration_ms=p["duration_ms"])
        elif b[:4] == b"FORM" and b[8:12] in (b"AIFF", b"AIFC"):
            from . import audiocodec

            p = audiocodec.probe_aiff(b)
            if p is not None:
                out.update(format="aiff",
                           codec=f"pcm_be{p.get('bits', -1)}"
                           if p["variant"] == "AIFF" else "aifc",
                           duration_ms=p.get("duration_ms", -1))
        elif b[:4] == b".snd":
            from . import audiocodec

            p = audiocodec.probe_au(b)
            if p is not None:
                out.update(format="au", codec=p["codec"],
                           duration_ms=p.get("duration_ms", -1))
        elif b[:4] == b"qoif":
            from . import qoicodec

            p = qoicodec.probe_qoi(b)
            out.update(format="qoi", codec=f"rgb{8 * p['channels']}",
                       width=p["width"], height=p["height"], frames=1)
        elif b[:1] == b"P" and b[1:2] in (b"5", b"6"):
            n = 0
            first = None
            for arr, _ in iter_ppm_stream(b):
                if first is None:
                    first = arr
                n += 1
            if first is not None:
                out.update(format="ppm-stream" if n > 1 else "ppm",
                           codec="P6" if first.shape[2] == 3 else "P5",
                           width=first.shape[1], height=first.shape[0],
                           frames=n)
        else:
            from . import pcxcodec, tgacodec

            if pcxcodec.is_pcx(b):
                p = pcxcodec.probe_pcx(b)
                out.update(format="pcx",
                           codec=f"p{p['planes']}b{p['bits']}"
                                 + ("-rle" if p["rle"] else ""),
                           width=p["width"], height=p["height"],
                           frames=1)
            # no magic: TGA's header heuristic is the LAST resort probe
            elif tgacodec.is_tga(b):
                p = tgacodec.probe_tga(b)
                out.update(format="tga",
                           codec=p["kind"] + ("-rle" if p["rle"] else ""),
                           width=p["width"], height=p["height"], frames=1)
    except (ValueError, EOFError, struct.error, NotImplementedError):
        pass                              # malformed → stays "unknown"
    return out


class MediaProbe:
    """payload → container/codec metadata row (no pixel/sample decode).
    The cheap first stage of a media curation pipeline: runs at I/O
    speed, so downstream decode stages can filter by format/dims/codec
    before paying for decompression."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = [probe_media(p)
                for p in batch.column("payload").to_pylist()]
        return pa.table({
            "media_id": batch.column("media_id"),
            "kind": batch.column("kind"),
            "format": pa.array([r["format"] for r in rows], pa.string()),
            "codec": pa.array([r["codec"] for r in rows], pa.string()),
            "width": pa.array([r["width"] for r in rows], pa.int32()),
            "height": pa.array([r["height"] for r in rows], pa.int32()),
            "frames": pa.array([r["frames"] for r in rows], pa.int32()),
            "duration_ms": pa.array([r["duration_ms"] for r in rows],
                                    pa.int32()),
        })


def shot_boundary_pipeline(media_ds, threshold_milli: int = 400,
                           concurrency=(1, 4), batch_size=8,
                           deterministic_fake=False):
    """Actor-pool pipeline: filter video → pairwise luma-histogram shot
    boundaries (exploded rows, one per consecutive frame pair). Same
    payload-bounded batch_size carve-out as video_pipeline."""
    import pyarrow.compute as pc

    vids = media_ds.map_batches(
        lambda t: t.filter(pc.equal(t["kind"], "video")),
        batch_format="pyarrow")
    return vids.map_batches(
        ShotBoundary,
        fn_constructor_kwargs={"threshold_milli": threshold_milli,
                               "deterministic_fake": deterministic_fake},
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency)


def probe_pipeline(media_ds, batch_size: int = 64, concurrency=None):
    """Metadata extraction over the whole corpus — stateless task pool
    (no per-actor setup needed), larger batches than the decode stages
    because only headers are touched."""
    return media_ds.map_batches(
        MediaProbe(), batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency)


# ---------------------------------------------------------------------------
# synthetic corpora + pipelines
# ---------------------------------------------------------------------------

def _synth_ppm(seed: int, w: int = 24, h: int = 18) -> bytes:
    rng = np.random.RandomState(seed)
    return render_ppm(rng.randint(0, 256, size=(h, w, 3), dtype=np.uint8)
                      .astype(np.uint8))


def _synth_wav(seed: int, ms: int = 250, rate: int = 8000) -> bytes:
    import wave

    rng = np.random.RandomState(seed)
    n = rate * ms // 1000
    t = np.arange(n) / rate
    freq = 200 + (seed % 10) * 60
    x = (0.5 * np.sin(2 * np.pi * freq * t)
         + 0.1 * rng.randn(n)).clip(-1, 1)
    pcm = (x * 32767).astype("<i2").tobytes()
    buf = io.BytesIO()
    with wave.open(buf, "wb") as wv:
        wv.setnchannels(1)
        wv.setsampwidth(2)
        wv.setframerate(rate)
        wv.writeframes(pcm)
    return buf.getvalue()


def _synth_audio_signal(seed: int, ms: int = 250, rate: int = 8000):
    rng = np.random.RandomState(seed)
    n = rate * ms // 1000
    t = np.arange(n) / rate
    freq = 200 + (seed % 10) * 60
    return (0.5 * np.sin(2 * np.pi * freq * t)
            + 0.1 * rng.randn(n)).clip(-1, 1).astype(np.float32)


def _synth_wav_g711(seed: int, law: str) -> bytes:
    from . import audiocodec

    return audiocodec.write_wav_g711(_synth_audio_signal(seed), law=law)


def _synth_wav_adpcm(seed: int) -> bytes:
    from . import audiocodec

    return audiocodec.write_wav_ima_adpcm(_synth_audio_signal(seed))


def _synth_wav_ms_adpcm(seed: int) -> bytes:
    from . import audiocodec

    return audiocodec.write_wav_ms_adpcm(_synth_audio_signal(seed))


def _synth_flac(seed: int) -> bytes:
    from . import flaccodec

    return flaccodec.encode_flac(_synth_audio_signal(seed), rate=8000,
                                 block_size=512)


def _synth_ppm_stream(seed: int, frames: int = 6) -> bytes:
    return b"".join(_synth_ppm(seed * 100 + i, w=16, h=12)
                    for i in range(frames))


def _synth_gif(seed: int, frames: int = 6, w: int = 16, h: int = 12) -> bytes:
    from . import gifcodec

    rng = np.random.RandomState(seed)
    pal = rng.randint(0, 256, size=(8, 3), dtype=np.uint8)
    return gifcodec.encode_gif(
        [pal[rng.randint(0, 8, size=(h, w))] for _ in range(frames)])


def _synth_mp4(seed: int, frames: int = 6, w: int = 16, h: int = 12) -> bytes:
    from . import mp4codec

    rng = np.random.RandomState(seed)
    yy, xx = np.mgrid[0:h, 0:w]
    frs = [np.stack([(yy * 9 + i * 20) % 256, (xx * 7) % 256,
                     rng.randint(0, 256, size=(h, w))], axis=-1)
           .astype(np.uint8) for i in range(frames)]
    return mp4codec.encode_mp4_mjpeg(frs, fps=5)


def _synth_avi(seed: int, frames: int = 6, w: int = 16, h: int = 12) -> bytes:
    """Alternates MJPG (even seeds, with a PCM track) and raw-DIB AVI."""
    from . import avicodec

    rng = np.random.RandomState(seed)
    yy, xx = np.mgrid[0:h, 0:w]
    frs = [np.stack([(yy * 11 + i * 17) % 256, (xx * 5) % 256,
                     rng.randint(0, 256, size=(h, w))], axis=-1)
           .astype(np.uint8) for i in range(frames)]
    if seed % 2 == 0:
        x = np.sin(np.arange(2000) * (0.03 + (seed % 7) * 0.01)) * 0.4
        return avicodec.encode_avi_mjpeg(frs, fps=5, audio=(x, 8000))
    return avicodec.encode_avi_dib(frs, fps=5)


def _synth_jpeg(seed: int, w: int = 24, h: int = 18) -> bytes:
    from . import jpegcodec

    rng = np.random.RandomState(seed)
    yy, xx = np.mgrid[0:h, 0:w]
    arr = np.stack([(yy * 255 // max(h - 1, 1)),
                    (xx * 255 // max(w - 1, 1)),
                    rng.randint(0, 256, size=(h, w))], axis=-1)
    return jpegcodec.encode_jpeg_baseline(arr.astype(np.uint8), quality=90)


def _synth_png(seed: int, w: int = 24, h: int = 18) -> bytes:
    from . import pngcodec

    rng = np.random.RandomState(seed)
    return pngcodec.encode_png(
        rng.randint(0, 256, size=(h, w, 3), dtype=np.uint8).astype(np.uint8))


def _synth_webp(seed: int, w: int = 24, h: int = 18) -> bytes:
    from . import webpcodec

    rng = np.random.RandomState(seed)
    return webpcodec.encode_webp_lossless(
        rng.randint(0, 256, size=(h, w, 3), dtype=np.uint8),
        use_subtract_green=True, cache_bits=4)


def _synth_tiff(seed: int, w: int = 24, h: int = 18) -> bytes:
    from . import tiffcodec

    rng = np.random.RandomState(seed)
    arr = rng.randint(0, 256, size=(h, w, 3), dtype=np.uint8)
    comp = ["lzw", "packbits", "none"][seed % 3]
    return tiffcodec.encode_tiff(arr, compression=comp,
                                 predictor=(comp == "lzw" and seed % 2 == 1),
                                 byte_order="big" if seed % 5 == 0
                                 else "little")


def _synth_bmp(seed: int, w: int = 24, h: int = 18) -> bytes:
    from . import bmpcodec

    rng = np.random.RandomState(seed)
    if seed % 3 == 0:                      # gray palette, RLE8 on odd seeds
        g = rng.randint(0, 256, size=(h, w), dtype=np.uint8)
        g[:, 4:12] = 50
        return bmpcodec.encode_bmp(g, rle=bool(seed % 2))
    return bmpcodec.encode_bmp(
        rng.randint(0, 256, size=(h, w, 3), dtype=np.uint8),
        top_down=bool(seed % 2))


def _synth_webp_anim(seed: int, frames: int = 6, w: int = 16,
                     h: int = 12) -> bytes:
    from . import webpcodec

    rng = np.random.RandomState(seed)
    return webpcodec.encode_webp_anim(
        [rng.randint(0, 256, size=(h, w, 3), dtype=np.uint8)
         for _ in range(frames)], duration_ms=50)


def _synth_ico(seed: int) -> bytes:
    from . import icocodec

    rng = np.random.RandomState(seed)
    entries = [rng.randint(0, 256, size=(s, s, 4), dtype=np.uint8)
               for s in (8, 16)]
    for e in entries:
        e[..., 3] = 255
    return icocodec.encode_ico(entries,
                               fmt="bmp" if seed % 2 else "png")


def _synth_apng(seed: int, frames: int = 6, w: int = 16,
                h: int = 12) -> bytes:
    from . import pngcodec

    rng = np.random.RandomState(seed)
    frs = [rng.randint(0, 256, size=(h, w, 3), dtype=np.uint8)
           for _ in range(frames)]
    return pngcodec.encode_apng(frs, delays_ms=[40] * frames)


def _synth_qoi(seed: int, w: int = 24, h: int = 18) -> bytes:
    from . import qoicodec

    rng = np.random.RandomState(seed)
    arr = rng.randint(0, 256, size=(h, w, 3), dtype=np.uint8)
    arr[:, 6:14] = arr[0, 0]               # flat run exercises RUN/INDEX ops
    return qoicodec.encode_qoi(arr)


def _synth_tga(seed: int, w: int = 24, h: int = 18) -> bytes:
    from . import tgacodec

    rng = np.random.RandomState(seed)
    arr = rng.randint(0, 256, size=(h, w, 3), dtype=np.uint8)
    arr[:, 2:10] = 77                      # runs exercise the RLE packer
    return tgacodec.encode_tga(arr, rle=bool(seed % 2))


def _synth_aiff(seed: int, n: int = 2000) -> bytes:
    from . import audiocodec

    rng = np.random.RandomState(seed)
    t = np.arange(n, dtype=np.float64)
    x = 0.5 * np.sin(2 * np.pi * (220 + seed % 200) * t / 8000) \
        + 0.05 * rng.randn(n)
    return audiocodec.write_aiff(np.clip(x, -1, 1), rate=8000)


def _synth_au(seed: int, n: int = 2000) -> bytes:
    from . import audiocodec

    rng = np.random.RandomState(seed)
    t = np.arange(n, dtype=np.float64)
    x = 0.4 * np.sin(2 * np.pi * (330 + seed % 150) * t / 8000) \
        + 0.05 * rng.randn(n)
    return audiocodec.write_au(np.clip(x, -1, 1), rate=8000,
                               encoding="mulaw" if seed % 2 else "pcm_be16")


def _synth_pcx(seed: int, w: int = 24, h: int = 18) -> bytes:
    from . import pcxcodec

    y, x = np.mgrid[0:h, 0:w]
    arr = np.stack([(x * 9 + seed) % 256, (y * 13 + seed * 3) % 256,
                    (x * y + seed) % 256], -1).astype(np.uint8)
    if seed % 2:
        return pcxcodec.encode_pcx(arr)               # 3-plane RGB
    return pcxcodec.encode_pcx(arr[..., 0])           # paletted gray


def synth_media_table(n: int = 32, seed: int = 42) -> pa.Table:
    """Deterministic media corpus with REAL payloads: netpbm + baseline
    JPEG + PNG + lossless WebP + TIFF + BMP + PCX images, PCM/G.711/ADPCM/FLAC
    audio, concatenated-PPM streams, animated GIF/WebP/PNG and
    MJPEG MP4 video."""
    rows = []
    for i in range(n):
        kind = ["image", "audio", "video"][i % 3]
        if kind == "image" and (i // 3) % 10 == 1:
            payload, mime = _synth_jpeg(seed + i), "image/jpeg"
        elif kind == "image" and (i // 3) % 10 == 2:
            payload, mime = _synth_png(seed + i), "image/png"
        elif kind == "image" and (i // 3) % 10 == 3:
            payload, mime = _synth_webp(seed + i), "image/webp"
        elif kind == "image" and (i // 3) % 10 == 4:
            payload, mime = _synth_tiff(seed + i), "image/tiff"
        elif kind == "image" and (i // 3) % 10 == 5:
            payload, mime = _synth_bmp(seed + i), "image/bmp"
        elif kind == "image" and (i // 3) % 10 == 6:
            payload, mime = _synth_ico(seed + i), "image/x-icon"
        elif kind == "image" and (i // 3) % 10 == 7:
            payload, mime = _synth_qoi(seed + i), "image/qoi"
        elif kind == "image" and (i // 3) % 10 == 8:
            payload, mime = _synth_tga(seed + i), "image/x-tga"
        elif kind == "image" and (i // 3) % 10 == 9:
            payload, mime = _synth_pcx(seed + i), "image/x-pcx"
        elif kind == "image":
            payload, mime = _synth_ppm(seed + i), "image/x-portable-pixmap"
        elif kind == "audio" and (i // 3) % 8 == 1:
            payload, mime = _synth_wav_g711(seed + i, "mulaw"), "audio/wav"
        elif kind == "audio" and (i // 3) % 8 == 2:
            payload, mime = _synth_wav_g711(seed + i, "alaw"), "audio/wav"
        elif kind == "audio" and (i // 3) % 8 == 3:
            payload, mime = _synth_wav_adpcm(seed + i), "audio/wav"
        elif kind == "audio" and (i // 3) % 8 == 4:
            payload, mime = _synth_flac(seed + i), "audio/flac"
        elif kind == "audio" and (i // 3) % 8 == 5:
            payload, mime = _synth_wav_ms_adpcm(seed + i), "audio/wav"
        elif kind == "audio" and (i // 3) % 8 == 6:
            payload, mime = _synth_aiff(seed + i), "audio/aiff"
        elif kind == "audio" and (i // 3) % 8 == 7:
            payload, mime = _synth_au(seed + i), "audio/basic"
        elif kind == "audio":
            payload, mime = _synth_wav(seed + i), "audio/wav"
        elif (i // 3) % 7 == 1:
            payload, mime = _synth_gif(seed + i), "image/gif"
        elif (i // 3) % 7 == 2:
            payload, mime = _synth_mp4(seed + i), "video/mp4"
        elif (i // 3) % 7 == 3:
            payload, mime = _synth_webp_anim(seed + i), "image/webp"
        elif (i // 3) % 7 == 4:
            payload, mime = _synth_mp4(seed + i), "video/mp4"
        elif (i // 3) % 7 == 5:
            payload, mime = _synth_apng(seed + i), "image/apng"
        elif (i // 3) % 7 == 6:
            payload, mime = _synth_avi(seed + i), "video/x-msvideo"
        else:
            payload, mime = _synth_ppm_stream(seed + i), "video/x-ppm-stream"
        rows.append({
            "media_id": f"m{i}", "kind": kind, "payload": payload,
            "mime": mime, "width": -1, "height": -1, "duration_ms": -1,
        })
    return pa.Table.from_pylist(rows, schema=MEDIA_SCHEMA)


def image_pipeline(media_ds, concurrency=(1, 4), batch_size=16,
                   deterministic_fake=False):
    """Actor-pool pipeline: filter images → features. The small batch_size
    is deliberate: binary payload columns dominate memory."""
    import pyarrow.compute as pc

    imgs = media_ds.map_batches(
        lambda t: t.filter(pc.equal(t["kind"], "image")),
        batch_format="pyarrow")
    feats = imgs.map_batches(
        FeatureExtract, fn_constructor_kwargs={"deterministic_fake": deterministic_fake},
        batch_format="pyarrow", batch_size=batch_size, concurrency=concurrency)
    return feats


def audio_pipeline(media_ds, concurrency=(1, 4), batch_size=16,
                   deterministic_fake=False):
    """Actor-pool pipeline: filter audio → WAV features."""
    import pyarrow.compute as pc

    auds = media_ds.map_batches(
        lambda t: t.filter(pc.equal(t["kind"], "audio")),
        batch_format="pyarrow")
    return auds.map_batches(
        AudioFeatures, fn_constructor_kwargs={"deterministic_fake": deterministic_fake},
        batch_format="pyarrow", batch_size=batch_size, concurrency=concurrency)


def video_pipeline(media_ds, k: int = 4, concurrency=(1, 4), batch_size=8,
                   deterministic_fake=False):
    """Actor-pool pipeline: filter video → frame sample (exploded).

    Deliberate carve-out from the 'no batch_size on expanding fused
    chains' rule: here batch_size bounds PAYLOAD memory (k frame payloads
    per video row in flight per actor), the expansion is a small constant
    k, and the stage is an actor pool — the recorded incident was
    input-row bundling starving a task fan-out."""
    import pyarrow.compute as pc

    vids = media_ds.map_batches(
        lambda t: t.filter(pc.equal(t["kind"], "video")),
        batch_format="pyarrow")
    return vids.map_batches(
        FrameSample, fn_constructor_kwargs={"k": k,
                                            "deterministic_fake": deterministic_fake},
        batch_format="pyarrow", batch_size=batch_size, concurrency=concurrency)
