"""Profile a benchmark leg under ``cProfile`` — ``repro bench profile``.

Answers "where does the time go" from the same artifacts CI already
ships: the leg runs exactly as ``repro bench`` would run it (pytest on
``benchmarks/bench_<leg>.py`` at the requested ``REPRO_BENCH_SCALE``),
wrapped in a :class:`cProfile.Profile`, and the result lands as a
deterministic text table next to the leg's ``BENCH_*.json``.

Deterministic here means the *shape* of the artifact: rows are sorted by
self time (``tottime``; cumulative time is a column) with a stable
``(path, line, function)`` tiebreak, paths
are rendered repo-relative (interpreter-install prefixes are stripped so
two hosts produce comparable rows), floats are fixed-width. The measured
times themselves naturally vary run to run — the artifact is for reading
hot spots, not for gating.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from pathlib import Path
from typing import Callable

__all__ = ["profile_bench", "render_profile"]

#: Rows emitted into the table by default.
DEFAULT_TOP = 30

#: Directory-name markers after which a non-repo path becomes readable and
#: host-independent (``.../site-packages/numpy/core/fromnumeric.py`` ->
#: ``numpy/core/fromnumeric.py``).
_PATH_MARKERS = ("site-packages", "dist-packages")


def _render_location(filename: str, line: int, func: str, repo_root: Path) -> str:
    """One profile row's code location, repo-relative and host-independent."""
    if filename in ("~", ""):  # built-ins carry the name in ``func``
        return func
    p = Path(filename)
    try:
        rel = p.resolve().relative_to(repo_root.resolve()).as_posix()
    except (ValueError, OSError):
        parts = p.parts
        rel = None
        for marker in _PATH_MARKERS:
            if marker in parts:
                idx = len(parts) - 1 - parts[::-1].index(marker)
                tail = parts[idx + 1 :]
                if tail:
                    rel = "/".join(tail)
                    break
        if rel is None:
            # Stdlib (or anything else outside the repo): keep the last two
            # components so ``python3.x/threading.py`` stays recognizable.
            rel = "/".join(p.parts[-2:]) if len(p.parts) >= 2 else p.name
    return f"{rel}:{line}({func})"


def render_profile(
    stats: pstats.Stats,
    *,
    repo_root: Path,
    top: int = DEFAULT_TOP,
    header: str = "",
) -> str:
    """Render a :class:`pstats.Stats` as the deterministic top-N table."""
    rows = []
    for (filename, line, func), (cc, nc, tt, ct, _callers) in stats.stats.items():
        location = _render_location(filename, line, func, repo_root)
        rows.append((tt, ct, nc, cc, location))
    # Primary order: self time, descending — cumulative order would list
    # only the harness frames that enclose everything. Ties (and
    # near-ties) are broken by the rendered location so reruns list
    # identical rows in an identical order.
    rows.sort(key=lambda r: (-r[0], r[4]))
    out = io.StringIO()
    if header:
        out.write(header.rstrip("\n") + "\n")
    out.write(f"top {min(top, len(rows))} of {len(rows)} functions by self time\n")
    out.write(f"{'ncalls':>12} {'tottime':>10} {'cumtime':>10}  location\n")
    for tt, ct, nc, cc, location in rows[:top]:
        ncalls = str(nc) if nc == cc else f"{nc}/{cc}"
        out.write(f"{ncalls:>12} {tt:>10.4f} {ct:>10.4f}  {location}\n")
    return out.getvalue()


def profile_bench(
    leg: str,
    bench_dir: Path,
    *,
    scale: str = "quick",
    top: int = DEFAULT_TOP,
    out_dir: Path | None = None,
    runner: Callable[[], None] | None = None,
) -> Path:
    """Run one bench leg under ``cProfile``; write ``PROFILE_<leg>.txt``.

    ``leg`` names the module the same way the bench files do:
    ``"headline"`` profiles ``benchmarks/bench_headline.py``. The table is
    written next to the leg's ``BENCH_*.json`` (``bench_dir/results`` by
    default; ``out_dir`` overrides) and the path is returned.

    ``runner`` substitutes the profiled workload — tests inject a cheap
    callable; the default runs the leg through pytest exactly like
    ``repro bench --filter`` would.
    """
    leg = leg.removeprefix("bench_").removesuffix(".py")
    if runner is None:
        leg_file = bench_dir / f"bench_{leg}.py"
        if not leg_file.is_file():
            available = sorted(
                p.stem.removeprefix("bench_") for p in bench_dir.glob("bench_*.py")
            )
            raise FileNotFoundError(
                f"no benchmark leg {leg!r} under {bench_dir} "
                f"(available: {', '.join(available)})"
            )

        def runner() -> None:
            import os

            import pytest

            os.environ["REPRO_BENCH_SCALE"] = scale
            # ``--benchmark-disable`` turns the benchmark fixture into a
            # passthrough. This matters twice over: pytest-benchmark's
            # PauseInstrumentation would otherwise hide the measured region
            # from the profiler entirely, and its pause/restore of an
            # active ``cProfile.Profile`` via ``sys.setprofile`` crashes
            # (the C profiler object is not a callable profilefunc).
            code = pytest.main(
                [
                    str(leg_file),
                    "-q",
                    "-p",
                    "no:cacheprovider",
                    "--benchmark-disable",
                ]
            )
            if code != 0:
                raise RuntimeError(f"bench leg {leg!r} failed under profile ({code})")

    profile = cProfile.Profile()
    profile.enable()
    try:
        runner()
    finally:
        profile.disable()
    stats = pstats.Stats(profile)

    repo_root = bench_dir.parent
    table = render_profile(
        stats,
        repo_root=repo_root,
        top=top,
        header=f"profile: bench leg {leg!r} at scale {scale!r}",
    )
    target_dir = out_dir if out_dir is not None else bench_dir / "results"
    target_dir.mkdir(parents=True, exist_ok=True)
    out_path = target_dir / f"PROFILE_{leg}.txt"
    out_path.write_text(table, encoding="utf-8")
    return out_path
