"""Run configuration: defaults, file loading, weights parsing, and validation."""

from __future__ import annotations

import pytest

from agentdag.config import (
    AdapterEndpoint,
    ConfigError,
    ExecutorConfig,
    RunConfig,
    config_from_mapping,
    load_config,
    parse_weights,
)
from agentdag.roles import DEFAULT_ROLE_POOL


class TestDefaults:
    def test_zero_config_is_valid(self):
        config = RunConfig().validated()
        assert config.max_turns == 2
        assert config.gamma == 1.0
        assert config.weights == (1.0, 1.0)
        assert config.role_pool == DEFAULT_ROLE_POOL
        assert config.executor.default_language in config.executor.languages

    def test_empty_mapping_gives_defaults(self):
        assert config_from_mapping({}) == RunConfig().validated()


class TestMappingParsing:
    def test_scalar_overrides(self):
        config = config_from_mapping({"max_turns": 5, "gamma": 0.9, "observation_log_cap": 80})
        assert (config.max_turns, config.gamma, config.observation_log_cap) == (5, 0.9, 80)

    def test_weights_as_pair_or_mapping(self):
        assert config_from_mapping({"weights": [2, 3]}).weights == (2.0, 3.0)
        named = config_from_mapping({"weights": {"execution": 2, "graph": 0.5}})
        assert named.weights == (2.0, 0.5)

    def test_role_prompts_extend_the_defaults(self):
        config = config_from_mapping({
            "role_pool": ["coding", "oracle"],
            "role_prompts": {"oracle": "You know the answer."},
        })
        assert config.role_prompts["oracle"] == "You know the answer."
        assert "coding" in config.role_prompts  # defaults survive

    def test_endpoint_blocks(self):
        config = config_from_mapping({
            "policy": {"kind": "remote", "url": "http://h/v1", "model": "m",
                       "temperature": 0.7},
            "roles": {"kind": "scripted"},
        })
        assert config.policy.url == "http://h/v1"
        assert config.policy.temperature == 0.7
        assert config.roles.kind == "scripted"

    def test_executor_block_with_custom_language(self):
        config = config_from_mapping({
            "executor": {
                "max_output_bytes": 500,
                "languages": {"lua": {"run_cmd": ["lua", "{src}"]},
                              "c": {"run_cmd": ["./a.out"], "compile_cmd": ["cc", "{src}"]}},
            },
        })
        assert config.executor.max_output_bytes == 500
        assert config.executor.languages["lua"].run_cmd == ("lua", "{src}")
        assert config.executor.languages["lua"].source_name == "main.lua"
        assert config.executor.languages["c"].compile_cmd == ("cc", "{src}")
        assert "python" in config.executor.languages  # defaults survive

    def test_zero_retries_is_one_attempt_and_allowed(self):
        assert config_from_mapping({"policy": {"retries": 0}}).policy.retries == 0

    @pytest.mark.parametrize("data,needle", [
        ({"surprise": 1}, "unknown config keys"),
        ({"policy": {"uri": "x"}}, "unknown keys under policy"),
        ({"executor": {"cpus": 4}}, "unknown keys under executor"),
        ({"policy": {"kind": "psychic"}}, "must be 'scripted' or 'remote'"),
        ({"policy": {"kind": "remote"}}, "no url"),
        ({"executor": {"languages": {"go": {}}}}, "needs at least run_cmd"),
        ({"max_turns": "many"}, "invalid config value"),
        ({"weights": [1, 2, 3]}, "weights must be two numbers"),
        ({"eps_clip": 0.2}, "unknown config keys"),
        ({"beta": 0.0}, "unknown config keys"),
        ({"group_size": 8}, "unknown config keys"),
        ({"message_tokens": 100}, "unknown config keys"),
        ({"weights": "12"}, "not a string"),
        ({"weights": {"exec": 3, "grap": 0}}, "unknown weights keys"),
        ({"executor": {"time_limit_ms": 500}}, "unknown keys under executor"),
        ({"policy": {"retries": -1}}, "policy.retries must be >= 0"),
        ({"roles": {"timeout_s": 0}}, "roles.timeout_s must be > 0"),
        ({"policy": {"timeout_s": -1.5}}, "policy.timeout_s must be > 0"),
        ({"executor": {"languages": {"rb": {"run_cmd": "ruby {src}"}}}},
         "run_cmd must be a list of arguments, not a string"),
        ({"executor": {"languages": {"c": {"run_cmd": ["./a.out"], "compile_cmd": "cc {src}"}}}},
         "compile_cmd must be a list of arguments, not a string"),
        ({"executor": {"languages": {"lua": {"run_cmd": ["lua"], "timeout": 3}}}},
         "unknown keys under language 'lua'"),
        ({"executor": {"languages": [{"run_cmd": ["lua"]}]}}, "languages must be a mapping"),
        ({"max_turns": 2.9}, "max_turns: expected an integer"),
        ({"gamma": True}, "gamma: expected a finite number"),
        ({"difficulty_fallback": True}, "difficulty_fallback: expected an integer"),
        ({"observation_log_cap": 2.5}, "observation_log_cap: expected an integer"),
        ({"weights": [True, 1]}, "expected a finite number"),
        ({"policy": {"temperature": True}}, "policy.temperature: expected a finite number"),
        ({"policy": {"max_tokens": 1.5}}, "policy.max_tokens: expected an integer"),
        ({"roles": {"timeout_s": True}}, "roles.timeout_s: expected a finite number"),
        ({"policy": {"retries": 1.5}}, "policy.retries: expected an integer"),
        ({"executor": {"max_output_bytes": 100.5}}, "executor.max_output_bytes: expected an integer"),
        ({"executor": {"workers": 1.5}}, "executor.workers: expected an integer"),
        ({"policy": {"max_tokens": None, "temperature": 0.5}}, "policy.max_tokens"),
        ({"gamma": 10 ** 400}, "gamma: expected a finite number"),
    ])
    def test_rejections(self, data, needle):
        with pytest.raises(ConfigError, match=needle):
            config_from_mapping(data)


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("max_turns", 0),
        ("gamma", 1.5),
        ("gamma", -0.1),
        ("difficulty_fallback", 4),
        ("observation_log_cap", 0),
    ])
    def test_out_of_range_fields(self, field, value):
        with pytest.raises(ConfigError):
            RunConfig(**{field: value}).validated()

    def test_weights_must_be_two_non_negative(self):
        with pytest.raises(ConfigError):
            RunConfig(weights=(1.0, -1.0)).validated()
        with pytest.raises(ConfigError):
            config_from_mapping({"weights": {"execution": -1}})

    def test_every_pooled_role_needs_a_prompt(self):
        with pytest.raises(ConfigError, match="roles without prompts"):
            RunConfig(role_pool=("coding", "mystery")).validated()

    def test_prompts_and_languages_are_read_only(self):
        prompts = {"coding": "write code"}
        configs = [RunConfig().validated(),
                   RunConfig(role_pool=("coding",), role_prompts=prompts).validated(),
                   config_from_mapping({"role_prompts": prompts,
                                        "executor": {"languages": {"lua": {"run_cmd": ["lua"]}}}})]
        for config in configs:
            with pytest.raises(TypeError):
                config.role_prompts["coding"] = "x"
            with pytest.raises(TypeError):
                config.executor.languages["python"] = config.executor.languages["python"]
        prompts["coding"] = "changed by the caller"
        assert configs[1].role_prompts["coding"] == "write code"

    def test_default_language_must_have_a_spec(self):
        with pytest.raises(ConfigError, match="no language spec"):
            RunConfig(executor=ExecutorConfig(default_language="lua")).validated()


class TestParseWeights:
    @pytest.mark.parametrize("raw,want", [
        (None, (1.0, 1.0)),
        ([2, 3], (2.0, 3.0)),
        ((0.5, 0), (0.5, 0.0)),
        ({"graph": 0.5}, (1.0, 0.5)),
        ({}, (1.0, 1.0)),
    ])
    def test_accepted_forms(self, raw, want):
        assert parse_weights(raw) == want

    @pytest.mark.parametrize("raw", [[], [1.0]])
    def test_wrong_length_is_rejected(self, raw):
        with pytest.raises(ValueError, match="two numbers"):
            parse_weights(raw)

    @pytest.mark.parametrize("raw", ["12", b"12", "1"])
    def test_a_string_is_rejected_not_split(self, raw):
        with pytest.raises(ValueError, match="not a string"):
            parse_weights(raw)

    @pytest.mark.parametrize("raw", [{"exec": 3, "grap": 0}, {"execution": 1, "graphs": 2}])
    def test_unknown_mapping_keys_are_rejected(self, raw):
        with pytest.raises(ValueError, match="unknown weights keys"):
            parse_weights(raw)


class TestLoadConfig:
    def test_yaml_file(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("max_turns: 4\ngamma: 0.5\n", encoding="utf-8")
        config = load_config(path)
        assert (config.max_turns, config.gamma) == (4, 0.5)

    def test_json_is_a_yaml_subset(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"max_turns": 3}', encoding="utf-8")
        assert load_config(path).max_turns == 3

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("", encoding="utf-8")
        assert load_config(path) == RunConfig().validated()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "absent.yaml")

    def test_non_mapping_file(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="must be a mapping"):
            load_config(path)

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("a: [\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_config(path)


class TestApiKeyResolution:
    def test_environment_wins_over_file_value(self, monkeypatch):
        endpoint = AdapterEndpoint(api_key="file-key", api_key_env="TOKEN_VAR")
        monkeypatch.delenv("TOKEN_VAR", raising=False)
        assert endpoint.resolve_api_key() == "file-key"
        monkeypatch.setenv("TOKEN_VAR", "env-key")
        assert endpoint.resolve_api_key() == "env-key"

    def test_no_key_anywhere(self):
        assert AdapterEndpoint().resolve_api_key() is None
