import dataclasses
import re
from pathlib import Path

import pytest

from graphquest.config import (
    PARSERS,
    SETTINGS,
    AppConfig,
    ConfigError,
    build_app_config,
    build_planner,
    load_config_file,
)
from graphquest.kg.memory_store import InMemoryKG
from graphquest.kg.sparql_client import SparqlKG
from graphquest.llm.http_client import ChatCompletionsBackend
from graphquest.llm.scripted import ScriptedBackend
from graphquest.llm.types import GenerationConfig
from graphquest.planner.state import AblationFlags
from graphquest.recall import RemoteEmbeddingScorer, TrigramScorer

README = Path(__file__).resolve().parent.parent / "README.md"


class TestConfigFile:
    def test_parses_key_values_and_comments(self, tmp_path):
        path = tmp_path / "app.conf"
        path.write_text(
            "# a comment line\n"
            "output.dir = runs\n"
            "kg.path = graph.tsv   # trailing comment\n"
            "\n"
            "planner.max_depth=2\n",
            encoding="utf-8",
        )
        values = load_config_file(str(path))
        assert values == {"output.dir": "runs", "kg.path": "graph.tsv",
                          "planner.max_depth": "2"}

    def test_hash_starts_a_comment_only_at_line_start_or_after_space(
            self, tmp_path):
        path = tmp_path / "app.conf"
        path.write_text(
            "#llm.base_url = http://llm.invalid/v1\n"
            "kg.path = /data/graph#1.tsv\n"
            "llm.model = a # note\n",
            encoding="utf-8",
        )
        values = load_config_file(str(path))
        assert values == {"kg.path": "/data/graph#1.tsv", "llm.model": "a"}

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        path = tmp_path / "app.conf"
        path.write_text("kg.path = graph.tsv\n", encoding="utf-8-sig")
        assert load_config_file(str(path)) == {"kg.path": "graph.tsv"}

    def test_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "app.conf"
        path.write_text("kg.path = g.tsv\nthis is not a setting\n",
                        encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            load_config_file(str(path))
        assert ":2:" in str(info.value)


class TestMerging:
    BASE = {"kg.path": "g.tsv", "llm.script": "rules.json"}

    def test_defaults(self):
        app = build_app_config(dict(self.BASE))
        assert app.planner.max_depth == 4
        assert app.planner.generation.model == "gpt-3.5-turbo"
        assert app.planner.generation.temperature == 0.3
        assert app.planner.generation.max_tokens == 1024
        assert app.planner.recall.threshold == 30
        assert app.output_dir == "runs"

    def test_overrides_beat_file_values(self):
        app = build_app_config(
            dict(self.BASE, **{"planner.max_depth": "2"}),
            {"planner.max_depth": "6"},
        )
        assert app.planner.max_depth == 6

    def test_unknown_key_rejected_with_catalog(self):
        # the penalties are no settings: every request sends them at 0.0
        for key in ("planner.depth", "llm.frequency_penalty",
                    "llm.presence_penalty"):
            with pytest.raises(ConfigError) as info:
                build_app_config(dict(self.BASE, **{key: "3"}))
            assert f"unknown config key {key!r}" in str(info.value)
            assert "planner.max_depth" in str(info.value)
            assert key not in SETTINGS

    def test_typed_parsing(self):
        app = build_app_config(dict(self.BASE, **{
            "llm.temperature": "0.7",
            "llm.max_tokens": "256",
            "planner.no_reflection": "yes",
            "planner.fixed_breadth": "3",
            "recall.k": "10",
        }))
        assert app.planner.generation.temperature == 0.7
        assert app.planner.generation.max_tokens == 256
        assert app.planner.ablations.no_reflection is True
        assert app.planner.ablations.fixed_breadth == 3
        assert app.planner.recall.k == 10

    def test_bad_typed_values(self):
        with pytest.raises(ConfigError):
            build_app_config(dict(self.BASE,
                                  **{"planner.max_depth": "four"}))
        with pytest.raises(ConfigError):
            build_app_config(dict(self.BASE,
                                  **{"planner.no_memory": "maybe"}))

    @pytest.mark.parametrize("key, value", [
        ("llm.temperature", "nan"),
        ("llm.temperature", "inf"),
        ("llm.temperature", "-0.5"),
        ("llm.max_tokens", "0"),
        ("llm.max_tokens", "-5"),
    ])
    def test_out_of_range_generation_settings(self, key, value):
        with pytest.raises(ConfigError, match=re.escape(key)):
            build_app_config(dict(self.BASE, **{key: value}))
        name = key.removeprefix("llm.")
        parse = int if name == "max_tokens" else float
        with pytest.raises(ValueError, match=name):
            GenerationConfig(**{name: parse(value)})

    def test_generation_settings_at_their_limits(self):
        app = build_app_config(dict(self.BASE, **{
            "llm.temperature": "0", "llm.max_tokens": "1"}))
        assert app.planner.generation == GenerationConfig(
            temperature=0.0, max_tokens=1)

    @pytest.mark.parametrize("pair", [("kg.path", "kg.endpoint"),
                                      ("llm.script", "llm.base_url")])
    def test_exactly_one_of_each_backend_pair(self, pair):
        first, second = pair
        neither = {key: value for key, value in self.BASE.items()
                   if key not in pair}
        with pytest.raises(ConfigError, match="got neither") as info:
            build_app_config(neither)
        assert first in str(info.value) and second in str(info.value)
        both = dict(neither, **{first: "a", second: "b"})
        with pytest.raises(ConfigError, match="got both") as info:
            build_app_config(both)
        assert first in str(info.value) and second in str(info.value)
        # an empty value counts as unset
        with pytest.raises(ConfigError, match="got neither"):
            build_app_config(dict(neither, **{first: ""}))

    def test_an_override_replaces_the_files_backend(self):
        files = {"kg.endpoint": "http://kg.invalid",
                 "llm.base_url": "http://llm.invalid"}
        app = build_app_config(files, {"kg.path": "g.tsv",
                                       "llm.script": "rules.json"})
        assert (app.kg_path, app.kg_endpoint) == ("g.tsv", None)
        assert (app.llm_script, app.llm_base_url) == ("rules.json", None)
        app = build_app_config(dict(self.BASE),
                               {"kg.endpoint": "http://kg.invalid"})
        assert (app.kg_path, app.kg_endpoint) == (None, "http://kg.invalid")
        assert app.llm_script == "rules.json"  # the other pair stays
        with pytest.raises(ConfigError, match="got both"):
            build_app_config(dict(self.BASE), {"llm.script": "r.json",
                                               "llm.base_url": "http://x"})


class TestBackendAssembly:
    def test_memory_plus_scripted(self, fixtures_dir):
        app = build_app_config({
            "kg.path": str(fixtures_dir / "capitals.tsv"),
            "llm.script": str(fixtures_dir / "capitals_script.json"),
        })
        planner = build_planner(app)
        assert isinstance(planner.kg, InMemoryKG)
        assert len(planner.kg) == 8
        assert isinstance(planner.llm, ScriptedBackend)
        assert isinstance(planner.scorer, TrigramScorer)
        assert planner.config is app.planner

    @pytest.mark.parametrize("text", [
        pytest.param("<http://rdf.freebase.com/ns/m.0a> "
                     "<http://rdf.freebase.com/ns/test.block.edge> "
                     "<http://rdf.freebase.com/ns/m.0b> .\n", id="ntriples"),
        pytest.param("m.0a\ttest.block.edge\tm.0b\n", id="tsv"),
    ])
    def test_the_graph_file_says_its_format(self, tmp_path, fixtures_dir,
                                            text):
        # the suffix says nothing: a TSV file named .nt loads as TSV
        nt = tmp_path / "mini.nt"
        nt.write_text(text, encoding="utf-8")
        app = build_app_config({
            "kg.path": str(nt),
            "llm.script": str(fixtures_dir / "capitals_script.json"),
        })
        planner = build_planner(app)
        assert [tuple(vars(t).values()) for t in planner.kg.triples()] == [
            ("m.0a", "test.block.edge", "m.0b")]

    def test_sparql_http_and_remote_scorer_assemble_lazily(self):
        app = build_app_config({
            "kg.endpoint": "http://kg.invalid/sparql",
            "llm.base_url": "http://llm.invalid/v1",
            "recall.endpoint": "http://embed.invalid/v1",
        })
        planner = build_planner(app)  # no network traffic at build time
        assert isinstance(planner.kg, SparqlKG)
        assert planner.kg.endpoint_url == "http://kg.invalid/sparql"
        assert isinstance(planner.llm, ChatCompletionsBackend)
        assert isinstance(planner.scorer, RemoteEmbeddingScorer)
        assert planner.scorer.endpoint_url == "http://embed.invalid/v1"


class TestAppConfig:
    def test_holds_no_secret_fields(self, monkeypatch):
        monkeypatch.setenv("GRAPHQUEST_API_KEY", "sk-very-secret")
        app = build_app_config({
            "kg.endpoint": "http://kg.invalid/sparql",
            "llm.base_url": "http://llm.invalid/v1",
        })
        flattened = repr(app)
        assert "sk-very-secret" not in flattened
        assert "api_key" not in flattened.lower()
        assert app.llm_base_url == "http://llm.invalid/v1"
        assert app.planner.max_depth == 4

    def test_defaults_without_validation(self):
        # no backend is set by default; build_app_config insists on one
        assert AppConfig().kg_path is None
        assert AppConfig().llm_script is None

    def test_defaults_are_the_dataclass_defaults(self):
        app = build_app_config(dict(TestMerging.BASE))
        assert app == AppConfig(kg_path="g.tsv", llm_script="rules.json")
        assert app.recall_endpoint is None


class TestSettingsTable:
    def test_every_key_sets_a_typed_field(self):
        for key, (cls, name) in SETTINGS.items():
            annotations = {f.name: f.type for f in dataclasses.fields(cls)}
            assert name in annotations, key
            assert annotations[name].split(" | ")[0] in PARSERS, key

    def test_every_ablation_is_a_planner_key(self):
        for flag in dataclasses.fields(AblationFlags):
            assert SETTINGS[f"planner.{flag.name}"] == (AblationFlags,
                                                        flag.name)

    def test_readme_table_lists_every_key(self):
        text = README.read_text(encoding="utf-8")
        section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        documented = set()
        for line in section.splitlines():
            if line.startswith("| `"):
                documented.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
        assert documented == set(SETTINGS)


def test_readme_library_use_block_prints_its_comments(tmp_path, capsys,
                                                      monkeypatch):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    # the fixture paths from the checkout, the trace saved under tmp_path
    block = block.replace('"tests/', f'"{README.parent}/tests/')
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == ["Juan Carlos Varela", "3"]
    assert (tmp_path / "trace.jsonl").is_file()
