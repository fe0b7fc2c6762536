"""Tests for the ``python -m repro`` command-line interface."""

import io
import json

import pytest

from repro.cli import CONTEXT_FLAGS, _flag_overrides, build_parser, main


def run_cli(*argv: str) -> tuple[int, str]:
    """Run the CLI with ``argv`` and capture its stdout."""
    buffer = io.StringIO()
    code = main(list(argv), out=buffer)
    return code, buffer.getvalue()


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag_exits_cleanly(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0

    def test_search_requires_dataset(self):
        # --dataset is validated at command level now (a --resume run reads
        # it from the checkpoint instead), so a bare `search` parses but
        # exits with an error.
        code, output = run_cli("search")
        assert code == 2
        assert "--dataset" in output


class TestListingCommands:
    def test_datasets_lists_all_45_tabular_datasets(self):
        code, output = run_cli("datasets")
        assert code == 0
        # header + 45 dataset rows
        assert len(output.strip().splitlines()) == 46
        assert "heart" in output

    def test_datasets_ctr_and_text_registries(self):
        code, output = run_cli("datasets", "--kind", "ctr")
        assert code == 0
        assert "tmall" in output and "instacart" in output
        code, output = run_cli("datasets", "--kind", "text")
        assert code == 0
        assert "reviews" in output

    def test_preprocessors_lists_defaults_and_extensions(self):
        code, output = run_cli("preprocessors")
        assert code == 0
        assert "standard_scaler" in output
        assert "robust_scaler" in output

    def test_algorithms_lists_all_fifteen(self):
        code, output = run_cli("algorithms")
        assert code == 0
        for name in ("rs", "pbt", "enas", "bohb"):
            assert name in output
        assert "ucb" in output  # extension searchers mentioned

    def test_algorithms_category_filter(self):
        code, output = run_cli("algorithms", "--category", "evolution")
        assert code == 0
        assert "pbt" in output
        assert "smac" not in output

    def test_algorithms_unknown_category_fails(self):
        code, output = run_cli("algorithms", "--category", "quantum")
        assert code == 1


class TestSearchCommand:
    def test_search_prints_summary_and_saves_json(self, tmp_path):
        output_path = tmp_path / "result.json"
        code, output = run_cli(
            "search", "--dataset", "heart", "--model", "lr",
            "--algorithm", "rs", "--max-trials", "8", "--scale", "0.5",
            "--output", str(output_path),
        )
        assert code == 0
        assert "best pipeline" in output
        assert output_path.exists()
        data = json.loads(output_path.read_text(encoding="utf-8"))
        assert data["algorithm"] == "rs"
        assert len(data["trials"]) == 8

    def test_unknown_dataset_reports_error_exit_code(self):
        code, output = run_cli("search", "--dataset", "not_a_dataset",
                               "--max-trials", "5")
        assert code == 2
        assert "error" in output.lower()

    def test_unknown_algorithm_reports_error_exit_code(self):
        code, output = run_cli("search", "--dataset", "heart",
                               "--algorithm", "gradient_descent",
                               "--max-trials", "5", "--scale", "0.4")
        assert code == 2


class TestCompareCommand:
    def test_compare_prints_ranking(self):
        code, output = run_cli(
            "compare", "--dataset", "heart", "--algorithms", "rs", "tevo_h",
            "--max-trials", "6", "--scale", "0.4",
        )
        assert code == 0
        assert "ranking" in output
        assert "rs" in output and "tevo_h" in output


class TestExperimentCommand:
    def test_experiment_prints_grid_and_ranking(self):
        code, output = run_cli(
            "experiment", "--datasets", "blood", "wine",
            "--algorithms", "rs", "tevo_h", "--max-trials", "5",
            "--scale", "0.5",
        )
        assert code == 0
        assert "4 runs" in output
        assert "average ranking" in output
        assert "rs" in output and "tevo_h" in output

    def test_experiment_parallel_matches_serial(self):
        args = ("experiment", "--datasets", "blood", "--algorithms",
                "rs", "pbt", "--max-trials", "5", "--scale", "0.5")
        code_serial, serial_output = run_cli(*args)
        code_parallel, parallel_output = run_cli(
            *args, "--n-jobs", "2", "--backend", "process")
        assert code_serial == code_parallel == 0
        # Identical accuracies and ranking; only the execution line differs.
        strip = lambda text: text.splitlines()[2:]
        assert strip(serial_output) == strip(parallel_output)

    def test_search_accepts_parallel_options(self):
        code, output = run_cli(
            "search", "--dataset", "blood", "--algorithm", "pbt",
            "--max-trials", "6", "--scale", "0.5",
            "--n-jobs", "2", "--backend", "process",
        )
        assert code == 0
        assert "best pipeline" in output

    def test_invalid_backend_rejected_by_parser(self):
        for backend in ("gpu", "thread"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["experiment", "--datasets", "blood", "--backend",
                     backend])


class TestAsyncOption:
    def test_search_async_serial_matches_sync(self):
        """--async with serial evaluation is bit-for-bit identical output."""
        args = ("search", "--dataset", "blood", "--algorithm", "rs",
                "--max-trials", "6", "--scale", "0.5")
        code_sync, sync_output = run_cli(*args)
        code_async, async_output = run_cli(*args, "--async")
        assert code_sync == code_async == 0
        # Identical results; only the execution-context line names the driver.
        strip = lambda text: [line for line in text.splitlines()
                              if not line.startswith("execution")]
        assert strip(async_output) == strip(sync_output)

    def test_search_async_with_processes_runs_asha(self):
        code, output = run_cli(
            "search", "--dataset", "blood", "--algorithm", "asha",
            "--max-trials", "6", "--scale", "0.5",
            "--n-jobs", "2", "--backend", "process", "--async",
        )
        assert code == 0
        assert "best pipeline" in output

    def test_experiment_async_matches_sync(self):
        args = ("experiment", "--datasets", "blood", "--algorithms",
                "rs", "pbt", "--max-trials", "5", "--scale", "0.5")
        code_sync, sync_output = run_cli(*args)
        code_async, async_output = run_cli(*args, "--async")
        assert code_sync == code_async == 0
        strip = lambda text: [line for line in text.splitlines()
                              if not line.startswith("execution")]
        assert strip(sync_output) == strip(async_output)


class TestCacheDirOption:
    def test_search_warm_rerun_hits_the_cache(self, tmp_path):
        args = ("search", "--dataset", "blood", "--algorithm", "rs",
                "--max-trials", "6", "--scale", "0.5",
                "--cache-dir", str(tmp_path / "cache"))
        code_cold, cold_output = run_cli(*args)
        code_warm, warm_output = run_cli(*args)
        assert code_cold == code_warm == 0
        assert "eval cache" in cold_output
        # The warm run answers every evaluation from disk ...
        assert ": 0 uncached" in warm_output
        assert ": 0 uncached" not in cold_output
        # ... and reproduces the cold results exactly (cache line differs).
        strip = lambda text: [line for line in text.splitlines()
                              if not line.startswith("eval cache")]
        assert strip(warm_output) == strip(cold_output)

    def test_experiment_warm_rerun_reports_zero_uncached(self, tmp_path):
        args = ("experiment", "--datasets", "blood", "--algorithms", "rs",
                "--max-trials", "5", "--scale", "0.5",
                "--cache-dir", str(tmp_path / "cache"))
        code_cold, cold_output = run_cli(*args)
        code_warm, warm_output = run_cli(*args)
        assert code_cold == code_warm == 0
        assert ": 0 uncached" in warm_output
        assert ": 0 uncached" not in cold_output
        strip = lambda text: [line for line in text.splitlines()
                              if not line.startswith("eval cache")]
        assert strip(warm_output) == strip(cold_output)


class TestPrefixCacheOption:
    def test_search_prefix_cache_matches_uncached_results(self):
        args = ("search", "--dataset", "blood", "--algorithm", "pbt",
                "--max-trials", "8", "--scale", "0.5")
        code_off, off_output = run_cli(*args)
        code_on, on_output = run_cli(*args, "--prefix-cache-mb", "64")
        assert code_off == code_on == 0
        assert "prefix cache" in on_output
        assert "steps reused" in on_output
        # Prefix reuse is invisible in the results: only the cache line
        # and the execution-context banner are new.
        strip = lambda text: [line for line in text.splitlines()
                              if not line.startswith(("prefix cache",
                                                      "execution"))]
        assert strip(on_output) == strip(off_output)

    @pytest.mark.parametrize("size", ["inf", "nan"])
    def test_an_unreadable_size_is_a_one_line_error(self, size):
        code, output = run_cli(
            "search", "--dataset", "blood", "--max-trials", "2",
            "--prefix-cache-mb", size)
        assert code == 2
        assert output.startswith("error: --prefix-cache-mb")
        assert len(output.splitlines()) == 1

    def test_zero_budget_disables_the_cache_cleanly(self):
        code, output = run_cli(
            "search", "--dataset", "blood", "--algorithm", "rs",
            "--max-trials", "4", "--scale", "0.5", "--prefix-cache-mb", "0")
        assert code == 0
        assert "prefix cache" not in output

    def test_experiment_accepts_prefix_cache_option(self):
        args = ("experiment", "--datasets", "blood", "--algorithms",
                "rs", "pbt", "--max-trials", "5", "--scale", "0.5")
        code_off, off_output = run_cli(*args)
        code_on, on_output = run_cli(*args, "--prefix-cache-mb", "64")
        assert code_off == code_on == 0
        strip = lambda text: [line for line in text.splitlines()
                              if not line.startswith("execution")]
        assert strip(on_output) == strip(off_output)


class TestEvalcacheCommand:
    def _populate(self, tmp_path) -> str:
        root = str(tmp_path / "cache")
        code, _ = run_cli("search", "--dataset", "blood", "--algorithm", "rs",
                          "--max-trials", "6", "--scale", "0.5",
                          "--cache-dir", root)
        assert code == 0
        return root

    def test_stats_lists_fingerprints(self, tmp_path):
        root = self._populate(tmp_path)
        code, output = run_cli("evalcache", "stats", "--cache-dir", root)
        assert code == 0
        assert "fingerprint" in output
        assert "1 fingerprint(s)" in output

    def test_stats_on_missing_root(self, tmp_path):
        code, output = run_cli("evalcache", "stats",
                               "--cache-dir", str(tmp_path / "nothing"))
        assert code == 0
        assert "no cache fingerprints" in output

    def test_prune_keeps_recent_fingerprints_and_compacts(self, tmp_path):
        root = self._populate(tmp_path)
        # A second fingerprint (different seed => different split).
        code, _ = run_cli("search", "--dataset", "blood", "--algorithm", "rs",
                          "--max-trials", "6", "--scale", "0.5", "--seed", "7",
                          "--cache-dir", root)
        assert code == 0
        from repro.io.evalcache import cache_stats

        assert len(cache_stats(root)) == 2
        code, output = run_cli("evalcache", "prune", "--cache-dir", root,
                               "--keep-fingerprints", "1")
        assert code == 0
        assert "kept         : 1 fingerprint(s)" in output
        assert "removed      : 1 fingerprint(s)" in output
        rows = cache_stats(root)
        assert len(rows) == 1
        # Compaction leaves exactly one live line per entry.
        assert rows[0]["lines"] == rows[0]["entries"]
        # The kept (most recently used) cache still answers a warm rerun.
        code, warm_output = run_cli(
            "search", "--dataset", "blood", "--algorithm", "rs",
            "--max-trials", "6", "--scale", "0.5", "--seed", "7",
            "--cache-dir", root)
        assert code == 0
        assert ": 0 uncached" in warm_output

    def test_prune_requires_keep_fingerprints(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evalcache", "prune", "--cache-dir", "x"])


class TestMetafeaturesCommand:
    def test_prints_all_forty_metafeatures(self):
        code, output = run_cli("metafeatures", "--dataset", "blood", "--scale", "0.5")
        assert code == 0
        lines = [line for line in output.splitlines() if line.strip()]
        assert len(lines) == 40
        assert any(line.startswith("NumberOfClasses") for line in lines)


class TestCheckpointResumeOptions:
    def test_search_checkpoint_then_resume_matches_uninterrupted(self, tmp_path):
        checkpoint = str(tmp_path / "run.checkpoint")
        args = ("search", "--dataset", "blood", "--algorithm", "pbt",
                "--max-trials", "12", "--scale", "0.5")
        code_ref, ref_output = run_cli(*args)
        code_ck, ck_output = run_cli(*args, "--checkpoint", checkpoint,
                                     "--checkpoint-every", "4")
        assert code_ref == code_ck == 0
        assert "resume with --resume" in ck_output
        # The completed run left its periodic checkpoints behind; resuming
        # one replays to the identical final result (the interrupted case
        # is covered in tests/engine/test_determinism.py — here we prove
        # the CLI wiring end to end).
        code_resume, resume_output = run_cli(
            "search", "--resume", "--checkpoint", checkpoint)
        assert code_resume == 0
        assert "resuming" in resume_output
        assert "scale 0.5" in resume_output  # provenance, not the default
        pick = lambda text, label: [line for line in text.splitlines()
                                    if line.startswith(label)]
        for label in ("best acc", "best pipeline", "trials"):
            assert pick(resume_output, label) == pick(ref_output, label)

    def test_resume_note_names_every_ignored_context_flag(self, tmp_path):
        checkpoint = str(tmp_path / "run.checkpoint")
        code, _ = run_cli("search", "--dataset", "blood", "--algorithm", "rs",
                          "--max-trials", "3", "--scale", "0.5",
                          "--checkpoint", checkpoint, "--checkpoint-every", "1")
        assert code == 0
        code, output = run_cli(
            "search", "--resume", "--checkpoint", checkpoint,
            "--worker-timeout", "5", "--remote-coordinator", "127.0.0.1:9",
            "--n-jobs", "2")
        assert code == 0
        note = output.splitlines()[0]
        assert note.startswith("note")
        for flag in ("--n-jobs", "--remote-coordinator", "--worker-timeout"):
            assert flag in note
        assert "backend=serial" in output  # the stored context ran

    def test_every_context_flag_sets_its_field(self):
        args = build_parser().parse_args([
            "search", "--n-jobs", "2", "--backend", "remote",
            "--remote-coordinator", "8125", "--worker-timeout", "4",
            "--async", "--cache-dir", "c", "--prefix-cache-mb", "1",
            "--telemetry", "trace", "--telemetry-dir", "t"])
        assert _flag_overrides(args) == {
            "n_jobs": 2, "backend": "remote", "remote_coordinator": "8125",
            "worker_timeout": 4.0, "async_mode": True, "cache_dir": "c",
            "prefix_cache_bytes": 1 << 20, "telemetry_mode": "trace",
            "telemetry_dir": "t"}
        assert set(_flag_overrides(args)) == set(CONTEXT_FLAGS)
        assert _flag_overrides(build_parser().parse_args(["search"])) == {}

    def test_resume_without_checkpoint_is_an_error(self):
        code, output = run_cli("search", "--resume")
        assert code == 2
        assert "--checkpoint" in output

    def test_context_file_configures_the_run(self, tmp_path):
        import json

        context_file = tmp_path / "run-context.json"
        context_file.write_text(json.dumps({"n_jobs": 2, "backend": "process"}), encoding="utf-8")
        code, output = run_cli(
            "search", "--dataset", "blood", "--algorithm", "rs",
            "--max-trials", "5", "--scale", "0.5",
            "--context", str(context_file),
        )
        assert code == 0
        assert "backend=process" in output and "n_jobs=2" in output

    @pytest.mark.parametrize(
        "content", [None, b'{"n_jobs": ', b"\xff\xfe{}", b"[" * 100_000],
        ids=["missing", "malformed", "not-utf8", "too-deep"])
    def test_an_unreadable_context_file_is_a_one_line_error(self, tmp_path,
                                                            content):
        context_file = tmp_path / "run-context.json"
        if content is not None:
            context_file.write_bytes(content)
        code, output = run_cli(
            "search", "--dataset", "blood", "--max-trials", "2",
            "--context", str(context_file))
        assert code == 2
        assert output.startswith(f"error: cannot read --context {context_file}")
        assert len(output.splitlines()) == 1

    def test_environment_configures_the_run(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        monkeypatch.setenv("REPRO_N_JOBS", "2")
        code, output = run_cli(
            "search", "--dataset", "blood", "--algorithm", "rs",
            "--max-trials", "4", "--scale", "0.4")
        assert code == 0
        assert "execution    : backend=process n_jobs=2" in output
