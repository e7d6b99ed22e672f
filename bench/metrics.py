"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the root of the repository is the one list; this module
reads it.  ``bench/README.md`` says which end-to-end metric each per-layer
metric should move, and on which workload.
"""

from __future__ import annotations

import json
import statistics

from bench import REPO_ROOT

_DECLARED = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())

#: seconds one run measures, unless ``--seconds`` says otherwise
RUN_SECONDS = _DECLARED["run_seconds"]

#: name -> why the workload exists
WORKLOADS = {w["name"]: w["why"] for w in _DECLARED["workloads"]}

#: name -> (unit, better, bound): what a user of the system sees.  The bound
#: is the share of the parent's value by which the metric may get worse.
END_TO_END = {m["name"]: (m["unit"], m["better"], m["bound"])
              for m in _DECLARED["end_to_end"]}

#: name -> (unit, better).  ``sim_s``, ``ops`` and every count repeat exactly
#: at equal seeds, so they are compared for equality, not against a bound.
PER_LAYER = {m["name"]: (m["unit"], m["better"]) for m in _DECLARED["per_layer"]}


def quartiles(samples: list[float]) -> dict:
    """Median, quartiles and count: a batch system with a few dozen
    samples per metric has no tail percentile worth the name."""
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "n": len(samples)}
