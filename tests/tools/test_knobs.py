"""The env-knob registry: accessor semantics, completeness, and the CLI."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.tools import knobs

REPO = Path(__file__).parents[2]


class TestRegistry:
    def test_specs_are_frozen_and_self_named(self):
        for name, spec in knobs.REGISTRY.items():
            assert spec.name == name
            assert spec.type in ("flag", "int", "float", "str")
            assert spec.description
            assert spec.module.startswith("repro.")
            with pytest.raises(AttributeError):
                spec.default = 0  # type: ignore[misc]

    def test_every_knob_read_in_src_is_registered(self):
        # Grep the tree for REPRO_* string literals; all of them must be
        # declared (the linter's R1 enforces the access *path*, this
        # enforces the *names*).
        pattern = re.compile(r"[\"'](REPRO_[A-Z0-9_]+)[\"']")
        seen = set()
        for path in (REPO / "src").rglob("*.py"):
            seen.update(pattern.findall(path.read_text(encoding="utf-8")))
        assert seen  # the engine reads knobs; an empty set means a bad glob
        unregistered = seen - set(knobs.REGISTRY)
        assert not unregistered

    def test_every_registered_knob_is_read_in_src(self):
        # The reverse of the check above: a registry entry whose consumer
        # was deleted is a dead knob (and a stale README row).
        pattern = re.compile(r"[\"'](REPRO_[A-Z0-9_]+)[\"']")
        registry_module = REPO / "src" / "repro" / "tools" / "knobs.py"
        read = set()
        for path in (REPO / "src").rglob("*.py"):
            if path != registry_module:
                read.update(pattern.findall(path.read_text(encoding="utf-8")))
        unread = set(knobs.REGISTRY) - read
        assert not unread

    def test_raw_rejects_unregistered_names(self):
        with pytest.raises(KeyError, match="REPRO_NOT_A_KNOB"):
            knobs.raw("REPRO_NOT_A_KNOB")

    def test_raw_returns_environment_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker_crash:p=1")
        assert knobs.raw("REPRO_FAULTS") == "worker_crash:p=1"
        monkeypatch.delenv("REPRO_FAULTS")
        assert knobs.raw("REPRO_FAULTS") is None


class TestFlagAccessor:
    @pytest.mark.parametrize("value", ["0", "off", "OFF", "false", "No", " 0 "])
    def test_off_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_STORE_VERIFY", value)
        assert knobs.get_flag("REPRO_STORE_VERIFY") is False

    @pytest.mark.parametrize("value", ["1", "on", "yes", "banana", ""])
    def test_everything_else_is_on(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_STORE_VERIFY", value)
        assert knobs.get_flag("REPRO_STORE_VERIFY") is True

    def test_unset_is_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_VERIFY", raising=False)
        assert knobs.get_flag("REPRO_STORE_VERIFY") is True


class TestNumericAccessors:
    def test_int_falls_back_to_caller_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_KEEP", raising=False)
        assert knobs.get_int("REPRO_STORE_KEEP", default=7) == 7
        monkeypatch.setenv("REPRO_STORE_KEEP", "  ")
        assert knobs.get_int("REPRO_STORE_KEEP", default=7) == 7

    def test_int_parses_and_clamps_env_values_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_KEEP", "-3")
        assert knobs.get_int("REPRO_STORE_KEEP", minimum=0) == 0
        # the caller's default is trusted as-is, below the clamp or not
        monkeypatch.delenv("REPRO_STORE_KEEP")
        assert knobs.get_int("REPRO_STORE_KEEP", default=-5, minimum=0) == -5

    def test_int_unset_without_default_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_KEEP", raising=False)
        assert knobs.get_int("REPRO_STORE_KEEP") is None

    def test_float_accessor(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_TIMEOUT", "2.5")
        assert knobs.get_float("REPRO_POOL_TIMEOUT", default=300.0) == 2.5
        monkeypatch.delenv("REPRO_POOL_TIMEOUT")
        assert knobs.get_float("REPRO_POOL_TIMEOUT", default=300.0) == 300.0


class TestStrAccessor:
    def test_verbatim_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker_hang:s=0.1, seed=3")
        # verbatim (no strip): the spec string is a cache key downstream
        assert knobs.get_str("REPRO_FAULTS") == "worker_hang:s=0.1, seed=3"

    def test_unset_and_blank_are_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert knobs.get_str("REPRO_FAULTS") is None
        monkeypatch.setenv("REPRO_FAULTS", "   ")
        assert knobs.get_str("REPRO_FAULTS") is None


class TestMarkdown:
    def test_table_lists_every_knob_sorted(self):
        table = knobs.markdown_table()
        rows = [line for line in table.splitlines() if line.count("|") >= 6]
        body = rows[1:]  # drop the header; the separator has no backticks
        names = [line.split("`")[1] for line in body if "REPRO_" in line]
        assert names == sorted(knobs.REGISTRY)

    def test_readme_table_is_in_sync(self):
        assert knobs._check_readme(str(REPO / "README.md")) == []

    def test_stale_readme_is_detected(self, tmp_path):
        readme = tmp_path / "README.md"
        readme.write_text(
            f"{knobs._TABLE_START}\n| stale |\n{knobs._TABLE_END}\n",
            encoding="utf-8",
        )
        problems = knobs._check_readme(str(readme))
        assert len(problems) == 1
        assert "stale" in problems[0]

    def test_missing_markers_are_detected(self, tmp_path):
        readme = tmp_path / "README.md"
        readme.write_text("no markers here\n", encoding="utf-8")
        problems = knobs._check_readme(str(readme))
        assert len(problems) == 1
        assert "markers" in problems[0]


class TestCli:
    def test_markdown_flag_prints_the_table(self, capsys):
        assert knobs.main(["--markdown"]) == 0
        assert capsys.readouterr().out.strip() == knobs.markdown_table()

    def test_check_flag_passes_on_the_committed_readme(self, capsys):
        assert knobs.main(["--check", str(REPO / "README.md")]) == 0
        assert "in sync" in capsys.readouterr().out

    def test_check_flag_fails_on_a_stale_table(self, tmp_path, capsys):
        readme = tmp_path / "README.md"
        readme.write_text(
            f"{knobs._TABLE_START}\nstale\n{knobs._TABLE_END}\n",
            encoding="utf-8",
        )
        assert knobs.main(["--check", str(readme)]) == 1
        assert "stale" in capsys.readouterr().err

    def test_no_arguments_prints_help(self, capsys):
        assert knobs.main([]) == 0
        assert "registry" in capsys.readouterr().out
