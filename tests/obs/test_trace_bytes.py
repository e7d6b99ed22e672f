"""Byte goldens of the two trace files: the Chrome export of a recorded
run and the JSONL spill of a streamed one.

Both files are a pure function of the simulation, so their sha256 is
pinned per run; the table also pins how a small ``max_bytes`` splits the
spill across rotated files (line count and sha256 of each file).  A
change to the encoder, the timeline or the emission order that moves one
byte fails here.  Regenerate with ``PYTHONPATH=src python
tests/obs/test_trace_bytes.py`` only when the bytes are meant to change.
"""

from __future__ import annotations

import hashlib
import os
from functools import partial

import pytest

from repro.eval.tracecmd import run_traced
from repro.machine.machine import Machine
from repro.obs import write_chrome_trace
from repro.obs import stream
from repro.obs.stream import StreamConfig
from repro.skeletons.base import SkilContext

#: (app, p, n) of the application runs
APPS = [("shpaths", 16, 32), ("gauss", 16, 32), ("gauss-full", 4, 16)]

#: the rotation case: a spill this small splits shpaths p=16 many times
ROTATE_MAX_BYTES = 64 << 10

GOLDEN = {
    "export/shpaths-p16": "1f4263262f08b436057a887d232258d63ab882768d5a5b262d719163d269c1cf",
    "spill/shpaths-p16": "4bdd8346fb9031b6051d32dd93e39b72c8769f1c58c894e4607a307151422293",
    "export/gauss-p16": "64483a2a2175d492490c1e1b4295e53d72c6ea37c9137d4e052ae69db6d9a1fe",
    "spill/gauss-p16": "54802ff2e2f2649e068e7f9af02a9cba9ad222c36dbed9fbb9fa4e13ddfd8094",
    "export/gauss-full-p4": "04191412d81f7ffb3254330ed17c18e25bc0b40931cf9311a48579245cb2257d",
    "spill/gauss-full-p4": "6f147109f1656c37383d8f92566b88fcccbcb1708f59f60f34e24cf41c2287a9",
    # the engine books through the Network: no priced compute on every
    # rank after the run, tagged records, idle and recv lanes per message
    "export/engine-p4": "3a416568e19c1e949752ea5fafd7d1cf889d291b6859059317ed8ce25a8fb7e7",
    "spill/engine-p4": "dae66edb53c820df8fec7539562317dab26af3821aac5c920d94f2a4a67aecc9",
}

#: per rotated file, oldest first: (lines, sha256)
ROTATED = [
    (539, "fd95979d67ace7c8b885c0b0f9da6a19238fa84fb8d028354124c07c0026abc6"),
    (510, "e0834909215dc964fe895304779cb11e08ec05a83db015d53d53de1ac8dd0a54"),
    (501, "b3adc57646662a6b1ce45f6b3d0ec97690a638cfc546bf3bff97980281270ae9"),
    (495, "03e5ffffd34c804c1a7f934b4529f3fcac547b90ddb1abb83542922d3a70ed08"),
    (500, "9390aecfe26a0f370d852885fd20f4df2192fb9b1d91d494b9bfedffdf0bf03d"),
    (510, "53a6e48b6f5d0a3fdcf2f1babb8e36256e96d5e85810370cb674fd2935098bed"),
    (361, "4fdb8760a082f651ceadf8f651011fda5aadb12834ff4401e64499df9de60987"),
]


def _sha(path) -> str:
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def _engine_run(machine: Machine) -> None:
    """One ``d&c`` and one ``farm`` call: the event engine's emission."""
    ctx = SkilContext(machine)
    xs = [5, 3, 8, 1, 9, 2, 7, 4, 6, 0]
    got = ctx.divide_and_conquer(
        lambda v: len(v) <= 1, lambda v: v,
        lambda v: [v[: len(v) // 2], v[len(v) // 2:]],
        lambda parts: sorted(parts[0] + parts[1]), xs)
    assert got == sorted(xs)
    assert ctx.farm(lambda t: t * t, list(range(9)), size_of=lambda t: t + 1) == [
        t * t for t in range(9)]


def _machine(case: str, mode: str, spill: str | None = None) -> Machine:
    """The run on ``sim``: a parallel backend's export adds wall tracks."""
    stream = StreamConfig(spill_path=spill) if spill else None
    if case == "engine-p4":
        m = Machine(4, trace_level=2, trace_mode=mode, stream=stream, backend="sim")
        _engine_run(m)
        return m
    app, p = case.rsplit("-p", 1)
    n = dict(((a, q), k) for a, q, k in APPS)[(app, int(p))]
    return run_traced(app, p=int(p), n=n, seed=0, trace_mode=mode,
                      stream=stream, backend="sim").machine


CASES = [f"{a}-p{p}" for a, p, _ in APPS] + ["engine-p4"]


def export_sha(case: str, tmp) -> str:
    path = os.path.join(tmp, f"{case}.json")
    write_chrome_trace(path, _machine(case, "record"))
    return _sha(path)


def spill_sha(case: str, tmp) -> str:
    path = os.path.join(tmp, f"{case}.jsonl")
    with _machine(case, "stream", spill=path):
        pass
    return _sha(path)


def rotated_files(tmp, monkeypatch) -> list[tuple[int, str]]:
    """The shpaths p=16 spill at :data:`ROTATE_MAX_BYTES`, oldest first:
    the observer opens its spill through a writer that rotates at that
    bound and keeps every file."""
    path = os.path.join(tmp, "rot.jsonl")
    monkeypatch.setattr(stream, "JsonlSpillWriter", partial(
        stream.JsonlSpillWriter, max_bytes=ROTATE_MAX_BYTES, keep=1000))
    with _machine("shpaths-p16", "stream", spill=path):
        pass
    files = sorted((f for f in os.listdir(tmp) if f.startswith("rot.jsonl")),
                   key=lambda f: -int(f.rsplit(".", 1)[1]) if f[-1].isdigit() else 0)
    return [(sum(1 for _ in open(os.path.join(tmp, f), "rb")),
             _sha(os.path.join(tmp, f))) for f in files]


@pytest.mark.parametrize("case", CASES)
def test_export_bytes(case, tmp_path):
    assert export_sha(case, tmp_path) == GOLDEN[f"export/{case}"]


@pytest.mark.parametrize("case", CASES)
def test_spill_bytes(case, tmp_path):
    assert spill_sha(case, tmp_path) == GOLDEN[f"spill/{case}"]


def test_rotation_splits_at_the_same_lines(tmp_path, monkeypatch):
    files = rotated_files(tmp_path, monkeypatch)
    assert len(files) > 3
    assert files == ROTATED


if __name__ == "__main__":  # regenerate the tables
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print("GOLDEN = {")
        for case in CASES:
            print(f'    "export/{case}": "{export_sha(case, tmp)}",')
            print(f'    "spill/{case}": "{spill_sha(case, tmp)}",')
        print("}")
        print("ROTATED = [")
        with pytest.MonkeyPatch.context() as mp:
            for lines, sha in rotated_files(tmp, mp):
                print(f'    ({lines}, "{sha}"),')
        print("]")
