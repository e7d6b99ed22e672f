"""The standalone app CLIs reject bad sizes as usage errors: exit 2 and
one line naming the constraint, never a traceback."""

import pytest

from repro.apps import gauss, shortest_paths


def _usage_error(main, argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].count("error:") == 1
    return err[-1]


@pytest.mark.parametrize(
    "argv, says",
    [
        (["--p", "0"], "--p must be a positive integer, got 0"),
        (["--p", "-2"], "--p must be a positive integer, got -2"),
        (["--n", "0"], "--n must be a positive integer, got 0"),
        (["--n", "-5", "--full"], "--n must be a positive integer, got -5"),
    ],
)
def test_gauss_rejects_bad_sizes(argv, says, capsys):
    assert says in _usage_error(gauss.main, argv, capsys)


@pytest.mark.parametrize(
    "argv, says",
    [
        (["--p", "2"], "--p 2: shpaths needs a square grid (p = g*g)"),
        (["--p", "8"], "--p 8: shpaths needs a square grid (p = g*g)"),
        (["--p", "0"], "--p must be a positive integer, got 0"),
        (["--n", "0"], "--n must be a positive integer, got 0"),
    ],
)
def test_shpaths_rejects_bad_sizes(argv, says, capsys):
    assert says in _usage_error(shortest_paths.main, argv, capsys)


def test_good_sizes_still_run(capsys):
    assert gauss.main(["--p", "3", "--n", "4", "--full"]) == 0
    assert shortest_paths.main(["--p", "1", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "gauss-full p=3 n=6" in out and "shpaths p=1 n=3" in out


@pytest.mark.parametrize("main, argv", [
    (shortest_paths.main, ["--p", "4", "--n", "8"]),
    (gauss.main, ["--p", "4", "--n", "8", "--full"]),
])
def test_trace_of_a_streaming_run_is_its_spill(main, argv, tmp_path, capsys,
                                                monkeypatch):
    """From ``STREAM_AUTO_P`` on the machine streams and keeps no
    recording: ``--trace`` names the JSONL spill, which holds the run's
    events, instead of a Chrome trace with nothing but metadata."""
    import json

    import repro.machine.machine as machine_mod
    from repro.obs import validate_chrome_trace

    monkeypatch.setattr(machine_mod, "STREAM_AUTO_P", 4)
    out = tmp_path / "t.json"
    assert main(argv + ["--trace", str(out)]) == 0
    assert "JSONL event spill written to" in capsys.readouterr().out
    events = [json.loads(ln) for ln in out.read_text().splitlines()]
    assert {ev["cat"] for ev in events} >= {"message", "send", "recv", "skeleton"}
    assert validate_chrome_trace({"traceEvents": events}) == []


@pytest.mark.parametrize("main, argv", [
    (shortest_paths.main, ["--p", "4", "--n", "8"]),
    (gauss.main, ["--p", "4", "--n", "8"]),
])
def test_trace_of_a_recorded_run_is_a_chrome_trace(main, argv, tmp_path, capsys):
    import json

    out = tmp_path / "t.json"
    assert main(argv + ["--trace", str(out)]) == 0
    assert "Chrome trace written to" in capsys.readouterr().out
    assert {ev["ph"] for ev in json.loads(out.read_text())["traceEvents"]} == {"M", "X"}
