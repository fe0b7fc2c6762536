"""Framework behavior: suppression pragmas, per-path profiles, parse
errors, file discovery and report composition."""

from pathlib import Path

import pytest

from repro.lint import (
    DEFAULT_PROFILES,
    PARSE_ERROR_RULE,
    RuleProfile,
    iter_python_files,
    lint_paths,
    lint_source,
    make_rules,
)
from repro.exceptions import ValidationError

LIBRARY_PATH = "src/repro/module_under_test.py"

#: one RPR004 violation (bare except), used throughout
BARE_EXCEPT = (
    "def load(fn):\n"
    "    try:\n"
    "        return fn()\n"
    "    except:\n"
    "        return None\n"
)


class TestSuppressionPragmas:
    def test_trailing_pragma_suppresses_its_own_line(self):
        source = BARE_EXCEPT.replace(
            "    except:", "    except:  # repro: lint-ignore[RPR004]")
        assert lint_source(source, path=LIBRARY_PATH) == []

    def test_standalone_pragma_suppresses_the_line_below(self):
        source = BARE_EXCEPT.replace(
            "    except:",
            "    # repro: lint-ignore[RPR004] justified: fixture\n"
            "    except:")
        assert lint_source(source, path=LIBRARY_PATH) == []

    def test_pragma_for_another_rule_does_not_suppress(self):
        source = BARE_EXCEPT.replace(
            "    except:", "    except:  # repro: lint-ignore[RPR001]")
        findings = lint_source(source, path=LIBRARY_PATH)
        assert [f.rule for f in findings] == ["RPR004"]

    def test_blanket_pragma_suppresses_every_rule(self):
        source = BARE_EXCEPT.replace(
            "    except:", "    except:  # repro: lint-ignore")
        assert lint_source(source, path=LIBRARY_PATH) == []

    def test_multi_rule_pragma(self):
        source = ("with open(p, \"w\") as h:"
                  "  # repro: lint-ignore[RPR006, RPR007]\n"
                  "    h.write(x)\n")
        assert lint_source(source, path=LIBRARY_PATH) == []

    def test_file_level_pragma(self):
        source = "# repro: lint-ignore-file[RPR004]\n" + BARE_EXCEPT
        assert lint_source(source, path=LIBRARY_PATH) == []

    def test_file_level_pragma_is_rule_scoped(self):
        source = "# repro: lint-ignore-file[RPR001]\n" + BARE_EXCEPT
        findings = lint_source(source, path=LIBRARY_PATH)
        assert [f.rule for f in findings] == ["RPR004"]


class TestProfiles:
    def test_tests_profile_relaxes_write_and_mutation_rules(self):
        source = "def dump(p, x):\n    open(p, \"w\").write(x)\n"
        in_tests = lint_source(source, path="tests/io/test_something.py")
        in_library = lint_source(source, path="src/repro/io/module.py")
        assert {f.rule for f in in_tests} == {"RPR007"}  # encoding still on
        assert {f.rule for f in in_library} == {"RPR006", "RPR007"}

    def test_telemetry_package_may_implement_counters(self):
        source = ("class MetricsRegistry:\n"
                  "    def __init__(self):\n"
                  "        self._counters = {}\n")
        allowed = lint_source(source, path="src/repro/telemetry/metrics.py")
        elsewhere = lint_source(source, path="src/repro/core/module.py")
        assert allowed == []
        assert [f.rule for f in elsewhere] == ["RPR003"]

    def test_fixture_directory_is_skipped_entirely(self):
        fixtures = Path(__file__).parent / "fixtures"
        report = lint_paths([fixtures])
        assert report.clean
        assert report.files_checked == 0

    def test_custom_profile_composition(self):
        profiles = DEFAULT_PROFILES + (
            RuleProfile("local", "src/repro/io/", disable=frozenset({"RPR007"})),
        )
        source = "def read(p):\n    return open(p).read()\n"
        assert lint_source(source, path="src/repro/io/module.py",
                           profiles=profiles) == []
        assert lint_source(source, path="src/repro/core/module.py",
                           profiles=profiles) != []


class TestParseErrors:
    def test_syntax_error_reports_rpr000(self):
        findings = lint_source("def broken(:\n", path=LIBRARY_PATH)
        assert [f.rule for f in findings] == [PARSE_ERROR_RULE]
        assert "does not parse" in findings[0].message


class TestRunner:
    def test_unknown_rule_id_raises(self):
        with pytest.raises(ValidationError, match="unknown lint rule"):
            make_rules(["RPR999"])

    def test_iter_python_files_deduplicates_and_sorts(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n", encoding="utf-8")
        (tmp_path / "a.py").write_text("y = 2\n", encoding="utf-8")
        (tmp_path / "note.txt").write_text("not python\n", encoding="utf-8")
        files = iter_python_files([tmp_path, tmp_path / "a.py"])
        assert [f.name for f in files] == ["a.py", "b.py"]

    def test_iter_python_files_rejects_non_python_targets(self, tmp_path):
        target = tmp_path / "note.txt"
        target.write_text("nope\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            iter_python_files([target])

    def test_lint_paths_reports_counts_and_sorted_findings(self, tmp_path):
        (tmp_path / "dirty.py").write_text(BARE_EXCEPT, encoding="utf-8")
        (tmp_path / "clean.py").write_text("x = 1\n", encoding="utf-8")
        report = lint_paths([tmp_path])
        assert report.files_checked == 2
        assert not report.clean
        assert report.counts() == {"RPR004": 1}
        assert report.findings == sorted(report.findings,
                                         key=lambda f: f.sort_key())
