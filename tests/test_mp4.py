"""MP4 (ISO BMFF) container codec tests: writer↔parser round trip,
sample-table resolution, codec gating, and the FrameSample wiring."""
import numpy as np
import pyarrow as pa
import pytest

from gitprov_ray import jpegcodec, mp4codec
from gitprov_ray import multimodal as M


def _frames(n=6, h=12, w=16, seed=3):
    rng = np.random.RandomState(seed)
    yy, xx = np.mgrid[0:h, 0:w]
    return [np.stack([(yy * 9 + i * 20) % 256, (xx * 7) % 256,
                      rng.randint(0, 256, size=(h, w))], -1).astype(np.uint8)
            for i in range(n)]


def test_roundtrip_probe_and_decode():
    frames = _frames()
    b = mp4codec.encode_mp4_mjpeg(frames, fps=5)
    assert mp4codec.is_mp4(b)
    info = mp4codec.probe_mp4(b)
    assert info["brand"] == "isom"
    assert info["duration_ms"] == 1200            # 6 frames at 5 fps
    (t,) = info["tracks"]
    assert (t["handler"], t["codec"]) == ("vide", "jpeg")
    assert (t["width"], t["height"]) == (16, 12)
    assert t["sample_count"] == 6
    dec = mp4codec.decode_mp4_frames(b)
    assert len(dec) == 6
    # container adds nothing: each sample decodes exactly like the bare JPEG
    for f, d in zip(frames, dec):
        ref = jpegcodec.decode_jpeg(jpegcodec.encode_jpeg_baseline(f, 90))
        assert np.array_equal(d, ref)


def test_sample_layout_multi_chunk():
    """stsc runs apply from first_chunk until the next run starts."""
    track = {
        "sizes": [10, 11, 12, 13, 14],
        # chunks 1-2 hold 2 samples each, chunk 3 holds the last one
        "stsc": [(1, 2, 1), (3, 1, 1)],
        "chunk_offsets": [100, 200, 300],
    }
    assert mp4codec._sample_layout(track) == [
        (100, 10), (110, 11), (200, 12), (212, 13), (300, 14)]


def _patch_codec(b: bytes, fourcc: bytes) -> bytes:
    """Rewrite the stsd sample-entry fourcc (type+verflags+count+size = 16
    bytes past the 'stsd' type tag)."""
    b = bytearray(b)
    i = b.index(b"stsd") + 16
    b[i:i + 4] = fourcc
    return bytes(b)


def test_unsupported_codec_named():
    b = _patch_codec(mp4codec.encode_mp4_mjpeg(_frames(2), fps=5), b"hev1")
    with pytest.raises(NotImplementedError, match="hev1"):
        mp4codec.decode_mp4_frames(b)
    # probe still reports full metadata for the undecodable track
    t = mp4codec.probe_mp4(b)["tracks"][0]
    assert t["codec"] == "hev1" and t["sample_count"] == 2


def test_avc1_is_named_stub():
    b = _patch_codec(mp4codec.encode_mp4_mjpeg(_frames(2), fps=5), b"avc1")
    with pytest.raises(NotImplementedError, match="avc1"):
        mp4codec.decode_mp4_frames(b)
    t = mp4codec.probe_mp4(b)["tracks"][0]
    assert t["codec"] == "avc1" and t["sample_count"] == 2
    tbl = pa.table({
        "media_id": pa.array(["v0"], pa.string()),
        "payload": pa.array([b], pa.binary()),
    })
    with pytest.raises(NotImplementedError, match="avc1"):
        M.FrameSample(k=2)(tbl)
    assert M.FrameSample(k=2, deterministic_fake=True)(tbl).num_rows == 2


def test_largesize_box():
    """A 64-bit largesize mdat parses to the same sample payloads."""
    b = mp4codec.encode_mp4_mjpeg(_frames(2), fps=5)
    ftyp_end = int.from_bytes(b[0:4], "big")
    mdat_size = int.from_bytes(b[ftyp_end:ftyp_end + 4], "big")
    mdat = b[ftyp_end:ftyp_end + mdat_size]
    big = (b[:ftyp_end]
           + (1).to_bytes(4, "big") + b"mdat"
           + (mdat_size + 8).to_bytes(8, "big") + mdat[8:]
           + b[ftyp_end + mdat_size:])
    # stco offsets shift by the 8 extra largesize bytes → rebuild them
    big = bytearray(big)
    i = big.index(b"stco")
    off = int.from_bytes(big[i + 12:i + 16], "big")
    big[i + 12:i + 16] = (off + 8).to_bytes(4, "big")
    assert len(mp4codec.decode_mp4_frames(bytes(big))) == 2


def test_malformed_raises():
    with pytest.raises(ValueError):
        mp4codec.probe_mp4(b"\x00\x00\x00\x08free")
    b = mp4codec.encode_mp4_mjpeg(_frames(2), fps=5)
    with pytest.raises(ValueError):
        mp4codec.decode_mp4_frames(b[:40])        # moov truncated away


def test_pcm_audio_roundtrip():
    rate = 8000
    t = np.arange(rate // 4) / rate
    x = (0.5 * np.sin(2 * np.pi * 440 * t)).astype(np.float32)
    b = mp4codec.encode_mp4_pcm(x, rate=rate)
    assert mp4codec.is_mp4(b)
    info = mp4codec.probe_mp4(b)
    (tr,) = info["tracks"]
    assert (tr["handler"], tr["codec"]) == ("soun", "sowt")
    assert tr["sample_count"] == len(x) and tr["timescale"] == rate
    assert info["duration_ms"] == 250
    y, r = mp4codec.decode_mp4_audio(b)
    assert r == rate and len(y) == len(x)
    assert np.abs(y - x).max() < 1e-3          # 16-bit quantization only


def test_audio_features_mp4_path():
    rate = 8000
    t = np.arange(rate // 4) / rate
    x = (0.5 * np.sin(2 * np.pi * 440 * t)).astype(np.float32)
    tbl = pa.table({
        "media_id": pa.array(["a0"], pa.string()),
        "payload": pa.array([mp4codec.encode_mp4_pcm(x, rate)], pa.binary()),
    })
    out = M.AudioFeatures()(tbl).to_pylist()[0]
    assert out["duration_ms"] == 250
    assert 0.3 < out["rms"] < 0.4              # 0.5-amplitude sine ≈ 0.354
    # compressed audio names the codec instead of decoding garbage
    bad = _patch_codec(mp4codec.encode_mp4_pcm(x, rate), b"mp4a")
    tbl2 = pa.table({
        "media_id": pa.array(["a1"], pa.string()),
        "payload": pa.array([bad], pa.binary()),
    })
    with pytest.raises(NotImplementedError, match="mp4a"):
        M.AudioFeatures()(tbl2)
    assert M.AudioFeatures(deterministic_fake=True)(tbl2).num_rows == 1


def test_frame_sample_mp4_path():
    t = pa.table({
        "media_id": pa.array(["v0"], pa.string()),
        "payload": pa.array([mp4codec.encode_mp4_mjpeg(_frames(6))],
                            pa.binary()),
    })
    out = M.FrameSample(k=3)(t)
    assert out.num_rows == 3
    for fr in out.column("frame").to_pylist():
        arr, _ = M.parse_ppm(fr)
        assert arr.shape == (12, 16, 3)


def test_frame_sample_inter_coded_raises_without_fake():
    b = _patch_codec(mp4codec.encode_mp4_mjpeg(_frames(2), fps=5), b"hev1")
    t = pa.table({
        "media_id": pa.array(["v0"], pa.string()),
        "payload": pa.array([b], pa.binary()),
    })
    with pytest.raises(NotImplementedError, match="hev1"):
        M.FrameSample(k=2)(t)
    fake = M.FrameSample(k=2, deterministic_fake=True)(t)
    assert fake.num_rows == 2                      # plumbing stays alive
