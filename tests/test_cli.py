"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_run_command(capsys):
    assert main(["run", "A2", "--scheme", "batching"]) == 0
    out = capsys.readouterr().out
    assert "scheme=batching" in out
    assert "Data Transfer" in out
    assert "mJ" in out


def test_run_with_batch_size(capsys):
    assert main(["run", "A2", "--scheme", "batching", "--batch-size", "100"]) == 0
    out = capsys.readouterr().out
    assert "interrupts=10 " in out


def test_compare_command(capsys):
    assert main(["compare", "A2", "--schemes", "baseline", "com"]) == 0
    out = capsys.readouterr().out
    assert "baseline" in out and "com" in out
    assert "Savings %" in out


def test_tables_command(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "Accelerometer" in out
    assert "Speech-To-Text" in out
    assert "S10" in out


def test_apps_command(capsys):
    assert main(["apps"]) == 0
    out = capsys.readouterr().out
    assert "stepcounter" in out
    assert "heavy-weight" in out  # A11's rejection reason


def test_schemes_command_lists_registry(capsys):
    assert main(["schemes"]) == 0
    out = capsys.readouterr().out
    for name in ("polling", "baseline", "batching", "com", "beam", "bcom"):
        assert name in out
    assert "MCU" in out  # docstring summaries are printed


def test_compare_with_workers_and_cache(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    args = ["compare", "A2", "--schemes", "baseline", "com",
            "--workers", "2", "--cache-dir", cache]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0  # second run served from the cache
    second = capsys.readouterr().out
    assert first == second
    assert list((tmp_path / "cache").rglob("*.pkl"))


def test_run_with_cache_dir(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert main(["run", "A2", "--scheme", "com", "--cache-dir", cache]) == 0
    out = capsys.readouterr().out
    assert "scheme=com" in out


def test_cache_stats_gc_clear_roundtrip(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert main(["run", "A2", "--scheme", "com", "--cache-dir", cache]) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", cache]) == 0
    out = capsys.readouterr().out
    assert "entries:     1" in out
    assert "shard dirs:  1" in out
    assert main(
        ["cache", "gc", "--cache-dir", cache, "--max-bytes", "0"]
    ) == 0
    assert "evicted 1 entry" in capsys.readouterr().out
    assert main(["cache", "clear", "--cache-dir", cache]) == 0
    assert "cleared 0 entries" in capsys.readouterr().out
    assert list((tmp_path / "cache").rglob("*.pkl")) == []


def test_cache_gc_requires_max_bytes(tmp_path, capsys):
    assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 2
    assert "--max-bytes is required" in capsys.readouterr().err


def test_run_with_cache_max_bytes_caps_directory(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    args = ["run", "A2", "--scheme", "com", "--cache-dir", cache,
            "--cache-max-bytes", "0"]
    assert main(args) == 0
    capsys.readouterr()
    # The post-run GC pass evicted the (sole) entry: cap is 0 bytes.
    assert list((tmp_path / "cache").rglob("*.pkl")) == []


def test_parser_rejects_unknown_scheme():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "A2", "--scheme", "warp"])


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "A2"],
        ["compare", "A2", "--schemes", "baseline", "beam"],
        ["serve"],
        ["client", "run", "A2"],
    ],
    ids=["run", "compare", "serve", "client"],
)
def test_fidelity_auto_is_a_usage_error(argv):
    """Only the two tiers are choices; ``auto`` exits with status 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--fidelity", "auto"])
    assert exc.value.code == 2


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_rejects_unknown_app():
    from repro.errors import WorkloadError

    with pytest.raises(WorkloadError):
        main(["run", "A99"])


# ----------------------------------------------------------------------
# execution-backend flag
# ----------------------------------------------------------------------
def test_run_with_explicit_serial_backend(capsys):
    assert main(["run", "A2", "--backend", "serial"]) == 0
    assert "scheme=baseline" in capsys.readouterr().out


def test_parser_rejects_unknown_backend():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "A2", "--backend", "warp"])


@pytest.mark.parametrize(
    "argv",
    [["worker"], ["profile", "A2", "--backend", "serial"]],
    ids=["worker-command", "profile-backend"],
)
def test_parser_rejects_removed_backend_options(argv):
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
