"""AppConfig validation and resolution."""

from __future__ import annotations

import pytest

from repro.core.config import AppConfig, AutoscaleConfig, RolloutConfig
from repro.core.errors import ConfigError

NAMES = ["app.A", "app.B", "app.C", "app.D"]


class TestValidation:
    def test_defaults_valid(self):
        AppConfig()

    def test_unknown_codec(self):
        with pytest.raises(ConfigError, match="codec"):
            AppConfig(codec="msgpack")

    def test_bad_timeout(self):
        with pytest.raises(ConfigError):
            AppConfig(call_timeout_s=0)

    def test_bad_retries(self):
        with pytest.raises(ConfigError):
            AppConfig(max_retries=-1)

    def test_autoscale_bounds(self):
        with pytest.raises(ConfigError):
            AutoscaleConfig(min_replicas=0)
        with pytest.raises(ConfigError):
            AutoscaleConfig(min_replicas=5, max_replicas=2)
        with pytest.raises(ConfigError):
            AutoscaleConfig(target_utilization=0.0)
        with pytest.raises(ConfigError):
            AutoscaleConfig(target_utilization=1.5)

    def test_rollout_validation(self):
        with pytest.raises(ConfigError):
            RolloutConfig(strategy="yolo")
        with pytest.raises(ConfigError):
            RolloutConfig(steps=0)


class TestResolve:
    def test_default_groups_are_singletons(self):
        resolved = AppConfig().resolve(NAMES)
        assert sorted(resolved.groups) == [(n,) for n in NAMES]
        assert all(resolved.replicas[n] == 1 for n in NAMES)

    def test_explicit_group_plus_singletons(self):
        cfg = AppConfig(colocate=(("app.A", "app.B"),))
        resolved = cfg.resolve(NAMES)
        assert ("app.A", "app.B") in resolved.groups
        assert ("app.C",) in resolved.groups
        assert len(resolved.groups) == 3

    def test_group_of(self):
        cfg = AppConfig(colocate=(("app.A", "app.B"),))
        resolved = cfg.resolve(NAMES)
        assert resolved.group_of("app.A") == resolved.group_of("app.B")
        assert resolved.group_of("app.C") != resolved.group_of("app.A")

    def test_unknown_component_in_group(self):
        with pytest.raises(ConfigError, match="unknown component"):
            AppConfig(colocate=(("app.Z",),)).resolve(NAMES)

    def test_component_in_two_groups(self):
        cfg = AppConfig(colocate=(("app.A",), ("app.A", "app.B")))
        with pytest.raises(ConfigError, match="more than one"):
            cfg.resolve(NAMES)

    def test_replica_counts(self):
        cfg = AppConfig(replicas={"app.A": 3})
        resolved = cfg.resolve(NAMES)
        assert resolved.replicas["app.A"] == 3
        assert resolved.replicas["app.B"] == 1

    def test_replica_for_unknown_component(self):
        with pytest.raises(ConfigError):
            AppConfig(replicas={"app.Z": 2}).resolve(NAMES)

    def test_zero_replicas_rejected(self):
        with pytest.raises(ConfigError):
            AppConfig(replicas={"app.A": 0}).resolve(NAMES)

    def test_colocate_all(self):
        cfg = AppConfig().colocate_all(NAMES)
        resolved = cfg.resolve(NAMES)
        assert len(resolved.groups) == 1
        assert set(resolved.groups[0]) == set(NAMES)

    def test_group_of_unknown_raises(self):
        resolved = AppConfig().resolve(NAMES)
        with pytest.raises(ConfigError):
            resolved.group_of("app.Z")


class TestFromDict:
    def test_roundtrip_fields(self):
        cfg = AppConfig.from_dict(
            {
                "name": "shop",
                "codec": "tagged",
                "colocate": [["app.A", "app.B"]],
                "autoscale": {"min_replicas": 2, "target_utilization": 0.5},
                "rollout": {"strategy": "blue_green", "steps": 4},
            }
        )
        assert cfg.name == "shop"
        assert cfg.codec == "tagged"
        assert cfg.colocate == (("app.A", "app.B"),)
        assert cfg.autoscale.min_replicas == 2
        assert cfg.rollout.steps == 4

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            AppConfig.from_dict({"naem": "typo"})

    def test_from_toml(self):
        cfg = AppConfig.from_toml(
            """
            name = "shop"
            codec = "tagged"
            compress_wire = true
            colocate = [["app.A", "app.B"]]

            [replicas]
            "app.A" = 3

            [autoscale]
            target_utilization = 0.5

            [rollout]
            steps = 4
            """
        )
        assert cfg.name == "shop"
        assert cfg.compress_wire is True
        assert cfg.colocate == (("app.A", "app.B"),)
        assert cfg.replicas == {"app.A": 3}
        assert cfg.autoscale.target_utilization == 0.5
        assert cfg.rollout.steps == 4

    def test_from_toml_invalid_syntax(self):
        with pytest.raises(ConfigError, match="invalid TOML"):
            AppConfig.from_toml("name = [unterminated")

    def test_from_toml_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            AppConfig.from_toml('naem = "typo"')

    def test_transport_is_an_unknown_key(self):
        """Proclets always talk over the address the runtime assigns; a
        file asking for a transport is refused, not silently ignored."""
        with pytest.raises(ConfigError, match="unknown config keys.*transport"):
            AppConfig.from_toml('name = "shop"\ntransport = "unix"\n')

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "app.toml"
        path.write_text('name = "filed"\ncodec = "json"\n')
        cfg = AppConfig.load(str(path))
        assert cfg.name == "filed"
        assert cfg.codec == "json"

    def test_classes_accepted_as_refs(self, demo_registry):
        from repro.core.component import component_name
        from tests.conftest import Adder, Greeter

        names = [component_name(Adder), component_name(Greeter)]
        cfg = AppConfig(colocate=((Adder, Greeter),), replicas={Adder: 2})
        resolved = cfg.resolve(names)
        assert len(resolved.groups) == 1
        assert resolved.replicas[component_name(Adder)] == 2
