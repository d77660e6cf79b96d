"""Frame encoding: ``frame_chunks`` on the way out, ``FrameParser`` (and
``take_frame`` for the handshake) on the way in."""

from __future__ import annotations

import pytest

from repro.core.errors import TransportError
from repro.transport.framing import MAX_FRAME, FrameParser, frame_chunks, new_frame, take_frame


def encode(payload: bytes) -> bytes:
    return b"".join(bytes(c) for c in frame_chunks(new_frame(), payload))


def test_roundtrip_frames():
    for payload in (b"", b"x", b"hello" * 1000, bytes(range(256))):
        assert FrameParser().feed(encode(payload)) == [payload]


def test_many_frames_preserve_order():
    wire = b"".join(encode(str(i).encode()) for i in range(100))
    parser = FrameParser()
    frames = []
    for start in range(0, len(wire), 7):  # reads that split frames anywhere
        frames += parser.feed(wire[start : start + 7])
    assert frames == [str(i).encode() for i in range(100)]


def test_clean_boundary_is_not_mid_frame():
    parser = FrameParser()
    assert parser.feed(encode(b"whole")) == [b"whole"]
    assert not parser.mid_frame  # EOF here is a clean hang-up


def test_partial_frame_is_mid_frame():
    parser = FrameParser()
    assert parser.feed((100).to_bytes(4, "big") + b"only-some") == []
    assert parser.mid_frame


def test_oversized_frame_announcement_rejected():
    with pytest.raises(TransportError, match="MAX_FRAME"):
        FrameParser().feed((MAX_FRAME + 1).to_bytes(4, "big"))


def test_oversized_write_rejected_locally():
    with pytest.raises(TransportError):
        frame_chunks(new_frame(), b"\0" * (MAX_FRAME + 1))


def test_take_frame_reads_one_frame_under_its_cap():
    buf = bytearray(encode(b"x" * 10) + b"rest")
    assert take_frame(bytearray(buf[:9]), 10) is None  # not all there yet
    assert take_frame(buf, 10) == b"x" * 10
    assert buf == b"rest"
    with pytest.raises(TransportError, match="11 bytes"):
        take_frame(bytearray(encode(b"x" * 11)), 10)
    compressed = (0x8000_0000 | 5).to_bytes(4, "big") + b"12345"
    with pytest.raises(TransportError):
        take_frame(bytearray(compressed), 10)
