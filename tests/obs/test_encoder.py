"""The columnar event encoder against the dict it replaces.

``encode_complete`` formats a wave straight from columns; each event
must be byte for byte what ``json.dumps`` gives the event's dict
(:func:`interval_event` below, the former exporter's, and its message
and idle-wait variants), in both separator styles, for awkward floats and for names
that need escaping.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from repro.obs.export import encode_complete
from repro.obs.stream import StreamConfig, StreamObserver

#: starts and durations that stress ``repr``: signed zero, tiny, huge,
#: subnormal, and values with seventeen significant digits
AWKWARD = [-0.0, 0.0, 1e-7, 1e22, 5e-324, 2.2250738585072014e-308,
           0.1 + 0.2, 1823.4399999999998, 59.99999999999994e-6, 1.0, 3e-12]

NAMES = ["compute", "genmult-rot-a", 'quo"te', "back\\slash", "new\nline",
         "tab\t", "café", "100%s %d", "", "☃ snow"]


def interval_event(rank, kind, start, end, detail: str = "") -> dict:
    """The dict one rank interval used to be exported as, event by event."""
    return {"ph": "X", "name": detail or kind, "cat": kind, "pid": 1,
            "tid": int(rank) + 1, "ts": float(start) * 1e6,
            "dur": (float(end) - float(start)) * 1e6, "args": {}}


def _oracle(events, jsonl: bool) -> str:
    if jsonl:
        return "".join(json.dumps(ev, separators=(",", ":")) + "\n"
                       for ev in events)
    return ", ".join(json.dumps(ev) for ev in events)


def _message_lines(tmp_path, *wave) -> str:
    """*wave* as :meth:`StreamObserver.on_message_wave` spills it."""
    path = tmp_path / "messages.jsonl"
    obs = StreamObserver(64, StreamConfig(spill_path=str(path)))
    obs.on_message_wave(*wave)
    obs.close()
    return path.read_text(encoding="utf-8")


def _wave(seed: int):
    rng = random.Random(seed)
    k = rng.randint(1, 40)
    ranks = [rng.randrange(64) for _ in range(k)]
    starts = [rng.choice(AWKWARD + [rng.uniform(0, 10)]) for _ in range(k)]
    ends = [s + rng.choice(AWKWARD[1:] + [rng.uniform(0, 1)]) for s in starts]
    labels = [(rng.choice(NAMES), rng.choice(NAMES[:3] + NAMES[5:]))
              for _ in range(rng.randint(1, 4))]
    which = [rng.randrange(len(labels)) for _ in range(k)]
    return rng, ranks, starts, ends, labels, which


@pytest.mark.parametrize("jsonl", [False, True])
@pytest.mark.parametrize("seed", range(40))
def test_intervals_equal_json_dumps(seed, jsonl):
    _, ranks, starts, ends, labels, which = _wave(seed)
    events = [interval_event(r, labels[w][1], s, e, labels[w][0])
              for r, s, e, w in zip(ranks, starts, ends, which)]
    # interval_event names an event by its kind when the detail is empty
    heads = [(detail or kind, kind) for detail, kind in labels]
    got = encode_complete(np.array(ranks), np.array(starts), np.array(ends),
                          heads, which, jsonl=jsonl)
    assert got == _oracle(events, jsonl)
    one = encode_complete(ranks[:1], starts[:1], ends[:1], [heads[which[0]]],
                          jsonl=jsonl)
    assert one == _oracle(events[:1], jsonl)


@pytest.mark.parametrize("seed", range(20))
def test_messages_equal_json_dumps(seed, tmp_path):
    rng, ranks, starts, ends, labels, _ = _wave(seed)
    k = len(ranks)
    srcs = [rng.randrange(64) for _ in range(k)]
    nbytes = [rng.choice([0, 8, 4096, 2**40]) for _ in range(k)]
    hops = [rng.randrange(5) for _ in range(k)]
    departs = [s if rng.random() < 0.8 else -1.0 for s in starts]
    tag = labels[0][0]

    def event(time, src, dst, nb, hop, depart):
        ts = depart if depart >= 0.0 else time
        ev = interval_event(dst, "message", ts, max(time, ts), tag)
        ev["args"] = {"src": src, "nbytes": nb, "hops": hop}
        return ev

    events = [event(*c) for c in zip(ends, srcs, ranks, nbytes, hops, departs)]
    got = _message_lines(tmp_path, np.array(ends), np.array(srcs), np.array(ranks),
                         np.array(nbytes), np.array(hops), tag, np.array(departs))
    assert got == _oracle(events, jsonl=True)
    no_departs = _message_lines(tmp_path, ends, srcs, ranks, [nbytes[0]] * k, hops,
                                tag, None)
    assert no_departs == _oracle(
        [event(t, s, d, nbytes[0], h, -1.0)
         for t, s, d, h in zip(ends, srcs, ranks, hops)], jsonl=True)


@pytest.mark.parametrize("seed", range(10))
def test_idle_wait_gaps_equal_json_dumps(seed):
    _, ranks, starts, ends, _, _ = _wave(seed)
    a, b = np.array(starts), np.array(ends)
    keep = b > a
    a, b, r = a[keep], b[keep], ranks[0]
    events = [{"ph": "X", "name": "idle-wait", "cat": "idle-wait", "pid": 1,
               "tid": 1000 + r + 1, "ts": x * 1e6, "dur": (y - x) * 1e6,
               "args": {"seconds": y - x}} for x, y in zip(a.tolist(), b.tolist())]
    got = encode_complete(np.full(a.size, r), a, b, [("idle-wait", "idle-wait")],
                          tid_base=1001, args=(("seconds", b - a),))
    assert got == _oracle(events, jsonl=False)


def test_empty_wave_is_empty_text():
    assert encode_complete([], [], [], [("compute", "compute")]) == ""
