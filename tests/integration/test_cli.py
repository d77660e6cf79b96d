"""The deployment CLI."""

from __future__ import annotations

import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_deploy_requires_module(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["deploy"])

    def test_deploy_flags(self):
        args = build_parser().parse_args(
            ["deploy", "cfg.toml", "--module", "repro.boutique", "--subprocess", "--qps", "25"]
        )
        assert args.config == "cfg.toml"
        assert args.module == ["repro.boutique"]
        assert args.subprocess
        assert args.qps == 25.0

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["destroy"])


class TestCommands:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        out = capsys.readouterr().out
        assert "repro 0.1.0" in out

    def test_version_with_module(self, capsys):
        assert main(["version", "--module", "repro.boutique"]) == 0
        out = capsys.readouterr().out
        assert "deployment version:" in out

    def test_components_lists_boutique(self, capsys):
        assert main(["components", "--module", "repro.boutique"]) == 0
        out = capsys.readouterr().out
        assert "repro.boutique.frontend.Frontend" in out
        assert "add@user_id" in out  # routing keys shown
        assert "impl:" in out

    def test_deploy_and_drive(self, tmp_path, capsys):
        config = tmp_path / "app.toml"
        config.write_text('name = "cli-boutique"\ncodec = "compact"\n')
        code = main(
            [
                "deploy",
                str(config),
                "--module",
                "repro.boutique",
                "--drive-boutique",
                "--qps",
                "30",
                "--duration",
                "1.0",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "deployment 'cli-boutique'" in captured.out
        assert "replicas:" in captured.out
        assert "drove" in captured.err

    def test_deploy_bad_config_is_clean_error(self, tmp_path, capsys):
        config = tmp_path / "bad.toml"
        config.write_text('codec = "msgpack"\n')
        code = main(["deploy", str(config), "--module", "repro.boutique"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


def test_module_entry_point():
    """``python -m repro version`` works as a real subprocess."""
    import subprocess

    result = subprocess.run(
        [sys.executable, "-m", "repro", "version"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert "repro 0.1.0" in result.stdout
