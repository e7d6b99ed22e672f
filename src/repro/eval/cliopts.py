"""Shared command-line options for the ``python -m repro.eval`` family.

Historically each subcommand grew its own flag set, and the
observability flags drifted: ``trace`` took ``--json`` and
``--metrics-out``, ``analyze`` took neither.  This module defines the
three flags every subcommand now accepts — as one argparse *parent* so
the definitions cannot drift again:

``--trace FILE``
    Write a Chrome trace-event JSON of the command's traced run (open
    in Perfetto).  ``trace``/``analyze`` trace the run they already
    perform; the artefact commands (``table1`` … ``all``) run their
    machines untraced, so for them the flag appends one standard traced
    run of the default trace app and writes *that*.
    In stream mode (``trace --stream``) the file becomes the JSONL
    event spill instead — the stream keeps no recording to export.

``--metrics-out FILE``
    Write the run's metrics registry in Prometheus text format (same
    representative-run rule as ``--trace``).

``--quiet``
    Suppress progress notes, heartbeats and "written to ..." chatter;
    the command's primary report still prints.

``--backend {sim,threads}``
    Execute skeleton kernels on a real backend (a thread pool) instead
    of the in-process simulator.  Simulated seconds are charged by the
    analytic :class:`~repro.machine.network.Network` either way, so
    every artefact is bit-identical across backends — the flag changes
    wall-clock behaviour only.  The removed ``mp`` backend and unknown
    names end in a :class:`~repro.errors.BackendError` (exit 2).

``--workers N``
    Worker count for the ``threads`` backend (the ``REPRO_WORKERS``
    default for this process).  Rejected with a clear usage error when
    nonpositive, as are ``--p``, ``--n``, ``--top`` and
    ``--heartbeat-every`` on the subcommands that take them.

An output flag (``--trace``, ``--metrics-out``, ``--json-out``)
naming a file in a directory that does not exist is a usage error too,
raised before anything runs (:func:`require_output_dir`).

The run-target flags (``--app`` / ``--p`` / ``--n`` / ``--seed``) that
``trace`` and ``analyze`` share live in :func:`run_target_parent` for
the same no-drift reason.
"""

from __future__ import annotations

import argparse
import os

from repro.errors import UsageError

__all__ = [
    "apply_backend",
    "obs_parent",
    "representative_obs_run",
    "require_output_dir",
    "require_positive",
    "require_square_grid",
    "run_target_parent",
    "write_obs_artifacts",
]


def obs_parent() -> argparse.ArgumentParser:
    """The shared ``--trace`` / ``--metrics-out`` / ``--quiet`` parent."""
    from repro.machine.backend import BACKENDS, check_backend_name

    parent = argparse.ArgumentParser(add_help=False)
    g = parent.add_argument_group("observability (common to all subcommands)")
    g.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a Chrome trace-event JSON of the traced run "
        "(JSONL event spill in stream mode)",
    )
    g.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write the metrics registry in Prometheus text format",
    )
    g.add_argument(
        "--quiet",
        action="store_true",
        help="suppress progress notes and 'written to ...' chatter",
    )
    g.add_argument(
        "--backend",
        # the type check runs first, so a removed or unknown name ends
        # in its BackendError rather than argparse's generic choice list
        type=check_backend_name,
        choices=BACKENDS,
        default=None,
        help="execute skeleton kernels on this backend (default: the "
        "REPRO_BACKEND env var, else sim); simulated seconds are "
        "identical either way",
    )
    g.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker count for the threads backend (default: the "
        "REPRO_WORKERS env var, else min(p, cores))",
    )
    return parent


def run_target_parent() -> argparse.ArgumentParser:
    """The shared run-target parent: which app to run, and how big.

    ``trace`` and ``analyze`` used to re-declare these four flags each;
    one parent keeps defaults and help text from drifting apart.
    """
    parent = argparse.ArgumentParser(add_help=False)
    g = parent.add_argument_group("run target (shared by trace/analyze)")
    g.add_argument(
        "--app",
        choices=["shpaths", "gauss", "gauss-full"],
        default="gauss-full",
        help="which application to run",
    )
    g.add_argument("--p", type=int, default=9, help="processor count")
    g.add_argument("--n", type=int, default=48, help="problem size")
    g.add_argument("--seed", type=int, default=0, help="input seed")
    return parent


def require_positive(flag: str, value: float | None) -> None:
    """Reject nonpositive count-like flag values with a clear message."""
    if value is not None and value <= 0:
        kind = "integer" if isinstance(value, int) else "number"
        raise UsageError(f"{flag} must be a positive {kind}, got {value}")


def require_square_grid(app: str, p: int) -> None:
    """Reject a processor count an application cannot lay out."""
    from repro.machine.topology import Mesh2D

    mesh = Mesh2D.for_processors(p)
    if app == "shpaths" and mesh.rows != mesh.cols:
        raise UsageError(
            f"--app shpaths needs a square processor grid (p = g*g: 4, 9, "
            f"16, ...); --p {p} makes a {mesh.rows}x{mesh.cols} mesh"
        )


def require_output_dir(flag: str, path: str | None) -> None:
    """Reject an output file that cannot be created, before the run
    that would fill it: its directory must exist and be writable."""
    if path is None:
        return
    directory = os.path.dirname(path) or "."
    if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
        raise UsageError(
            f"{flag} {path}: cannot write there (no writable directory "
            f"{directory})"
        )


def apply_backend(name: str | None, workers: int | None = None) -> None:
    """Make ``--backend``/``--workers`` the process-wide defaults.

    No-op for unset values.  Nonpositive *workers* is a usage error
    here (before any pool spins up) rather than a ``MachineError`` deep
    inside backend construction.
    """
    require_positive("--workers", workers)
    if workers is not None:
        os.environ["REPRO_WORKERS"] = str(workers)
    if name is not None:
        from repro.machine.backend import set_backend_default

        set_backend_default(name)


def write_obs_artifacts(
    machine,
    trace_path: str | None,
    metrics_path: str | None,
) -> list[str]:
    """Write the requested artefacts from *machine*; returns footer lines.

    In stream mode there is no recording to export — the Chrome JSON
    request is satisfied by the JSONL spill the stream wrote (the
    caller passes ``--trace`` as the spill path), so only the metrics
    dump happens here.
    """
    from repro.errors import SkilError

    lines: list[str] = []
    if trace_path is not None:
        if getattr(machine, "stream_obs", None) is not None:
            machine.close()
            lines.append(
                f"streaming JSONL event spill written to {trace_path} "
                "(rotated segments keep the tail of long runs)"
            )
        else:
            from repro.obs import write_chrome_trace

            write_chrome_trace(trace_path, machine)
            lines.append(
                f"Chrome trace written to {trace_path} (open in Perfetto)"
            )
    if metrics_path is not None:
        if machine.metrics is None:
            raise SkilError(
                "--metrics-out needs trace_level >= 1 (no metrics registry)"
            )
        with open(metrics_path, "w", encoding="utf-8") as fh:
            fh.write(machine.metrics.render_text())
        lines.append(f"Prometheus metrics written to {metrics_path}")
    return lines


def representative_obs_run(
    trace_path: str | None, metrics_path: str | None
) -> list[str]:
    """Satisfy ``--trace``/``--metrics-out`` for commands without a
    single traced run (``all``, the table commands): run the default
    trace app once, traced, and export from that."""
    if trace_path is None and metrics_path is None:
        return []
    from repro.eval.tracecmd import run_traced

    run = run_traced("gauss-full", p=9, n=48)
    lines = write_obs_artifacts(run.machine, trace_path, metrics_path)
    run.machine.close()
    return [
        "representative traced run: gauss-full p=9 n=48",
        *lines,
    ]
