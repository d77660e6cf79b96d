"""procmain: the subprocess proclet entry point's failure modes."""

from __future__ import annotations

import asyncio
import json
import sys


async def run_procmain(tmp_path, spec: dict) -> tuple[int, str]:
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    process = await asyncio.create_subprocess_exec(
        sys.executable,
        "-m",
        "repro.runtime.procmain",
        str(tmp_path / "never-listens.sock"),
        str(spec_path),
        stdout=asyncio.subprocess.DEVNULL,
        stderr=asyncio.subprocess.PIPE,
    )
    try:
        _, stderr = await asyncio.wait_for(process.communicate(), timeout=30)
    except asyncio.TimeoutError:
        process.kill()
        raise
    return process.returncode, stderr.decode()


class TestProcmainGuards:
    async def test_unregistered_components_exit_2(self, tmp_path):
        code, err = await run_procmain(
            tmp_path,
            {
                "proclet_id": "p",
                "group_id": 0,
                "modules": [],
                "components": ["ghost.Component"],
                "version": "x",
                "config": {},
            },
        )
        assert code == 2
        assert "not registered" in err

    async def test_version_mismatch_exit_3(self, tmp_path):
        """A child built from different code refuses to join (§4.4)."""
        code, err = await run_procmain(
            tmp_path,
            {
                "proclet_id": "p",
                "group_id": 0,
                "modules": ["tests.conftest"],
                "components": ["tests.conftest.Adder"],
                "version": "not-the-real-version",
                "config": {},
            },
        )
        assert code == 3
        assert "refusing to join" in err

    async def test_bad_usage_exit_64(self):
        process = await asyncio.create_subprocess_exec(
            sys.executable,
            "-m",
            "repro.runtime.procmain",
            stderr=asyncio.subprocess.PIPE,
        )
        _, stderr = await asyncio.wait_for(process.communicate(), timeout=15)
        assert process.returncode == 64
        assert b"usage" in stderr
