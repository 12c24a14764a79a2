"""Profiling hooks: opt-in cProfile capture around a whole run.

Tracing answers *which stage* took the time; profiling answers *which
function*. :func:`maybe_profile` wraps a block in ``cProfile`` when
given a path and is a transparent no-op otherwise, so call sites
(``python -m repro.api --profile``) thread one optional argument
instead of branching:

    with maybe_profile(args.profile):
        report = campaign.run()

The dump is a standard pstats file -- load it with ``python -m pstats
PATH`` or ``snakeviz``. A sibling ``PATH.txt`` with the top
cumulative-time rows is written alongside for a no-tooling first look.
"""

from __future__ import annotations

import pathlib
from contextlib import contextmanager
from typing import Iterator

__all__ = ["maybe_profile"]


@contextmanager
def maybe_profile(
    path=None, sort: str = "cumulative", limit: int = 40
) -> Iterator:
    """Profile the block into ``path`` (pstats); no-op when path is None."""
    if not path:
        yield None
        return
    import cProfile
    import io
    import pstats

    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield profiler
    finally:
        profiler.disable()
        profiler.dump_stats(str(path))
        text = io.StringIO()
        pstats.Stats(profiler, stream=text).sort_stats(sort).print_stats(limit)
        path.with_suffix(path.suffix + ".txt").write_text(text.getvalue())
