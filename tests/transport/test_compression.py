"""Wire compression (§5.1's transport optimization)."""

from __future__ import annotations

import os
import zlib

import pytest

from repro.core.config import AppConfig
from repro.core.errors import TransportError
from repro.transport.client import ConnectionPool
from repro.transport.framing import FrameParser
from repro.transport.server import RPCServer

from tests.transport.test_dataplane import encode_frame


class TestFraming:
    def test_compressed_roundtrip(self):
        payload = b"the quick brown fox " * 200
        wire = encode_frame(payload, compress=True)
        assert len(wire) - 4 == len(zlib.compress(payload, level=1)) < len(payload)
        assert FrameParser().feed(wire) == [payload]

    def test_small_frames_not_compressed(self):
        # Below the threshold the flag bit stays clear: assert by reading
        # the raw frame word.
        wire = encode_frame(b"tiny", compress=True)
        assert int.from_bytes(wire[:4], "big") & 0x8000_0000 == 0
        assert wire[4:] == b"tiny"

    def test_incompressible_payload_sent_raw(self):
        payload = os.urandom(4096)  # random bytes: zlib cannot shrink
        wire = encode_frame(payload, compress=True)
        assert int.from_bytes(wire[:4], "big") & 0x8000_0000 == 0  # fell back to raw
        assert wire[4:] == payload

    def test_mixed_compressed_and_raw_frames(self):
        big = b"z" * 10_000
        wire = (
            encode_frame(big, compress=True)
            + encode_frame(b"small", compress=True)
            + encode_frame(big, compress=False)
        )
        assert FrameParser().feed(wire) == [big, b"small", big]

    def test_corrupt_compressed_frame_rejected(self):
        with pytest.raises(TransportError, match="corrupt"):
            FrameParser().feed((0x8000_0000 | 5).to_bytes(4, "big") + b"junk!")


class TestEndToEnd:
    async def test_rpc_with_compression_enabled(self):
        async def handler(cid, mid, args, trace=(0, 0), deadline_ms=0):
            # args may be a zero-copy view into the request frame.
            return bytes(args) * 2

        server = RPCServer(handler, codec="compact", version="v1", compress=True)
        address = await server.start()
        pool = ConnectionPool(codec="compact", version="v1", compress=True)
        conn = await pool.get(address)
        payload = b"compressible " * 500
        assert await conn.call(1, 1, payload, timeout=5) == payload * 2
        await pool.close()
        await server.stop()

    async def test_compressing_client_plain_server(self):
        """Frames self-describe: mixed policies interoperate."""

        async def handler(cid, mid, args, trace=(0, 0), deadline_ms=0):
            return args

        server = RPCServer(handler, codec="compact", version="v1", compress=False)
        address = await server.start()
        pool = ConnectionPool(codec="compact", version="v1", compress=True)
        conn = await pool.get(address)
        payload = b"data " * 1000
        assert await conn.call(1, 1, payload, timeout=5) == payload
        await pool.close()
        await server.stop()

    async def test_boutique_deployment_with_compression(self, demo_registry):
        from repro.runtime.deployers.multi import deploy_multiprocess
        from tests.conftest import Adder

        app = await deploy_multiprocess(
            AppConfig(name="gz", compress_wire=True), registry=demo_registry
        )
        assert await app.get(Adder).add_all(list(range(2000))) == sum(range(2000))
        await app.shutdown()


def test_config_flag_parses():
    cfg = AppConfig.from_dict({"compress_wire": True})
    assert cfg.compress_wire is True
