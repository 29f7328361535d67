"""Reference figures for the README, each measured once (best of three for
the short ones): the ROADMAP baselines that still apply, and the CLI's
check thread pool against a plain loop, alternated five times.

    python3 bench/reference.py          # about a minute on a 2-core machine
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import posetkit as pk  # noqa: E402
import posetkit.cli  # noqa: E402

import inputs as mk  # noqa: E402


def timed(fn, repeat=1) -> float:
    best = float("inf")
    for _ in range(repeat):
        began = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - began)
    return best


class SerialPool:
    """Stands in for ThreadPoolExecutor: the same map, on the caller's
    thread, one property after another."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return list(map(fn, items))


def check_all(path: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        posetkit.cli.cli_main(["check", path])


def main() -> None:
    rows = []
    for spec in (mk.boolean(8, "ref"), mk.chain(400, "ref")):
        poset = spec.build()
        rows.append((f"complete() on {spec.label}",
                     timed(lambda: pk.complete(poset), 1 if spec.n > 300 else 3)))
    for k, prop in ((6, "completion-distributive"), (8, "completion-modular"),
                    (10, "completion-orthomodular")):
        ctx = pk.CheckContext(mk.crown(k, "ref").build())
        ctx.dm.as_poset()
        rows.append((f"{prop} on crown S_{k} ({len(ctx.dm)} closed sets)",
                     timed(lambda: pk.PROPERTIES[prop](ctx))))
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "ba32.poset")
        Path(path).write_text(mk.boolean(5, "ref").document(), encoding="utf-8")
        pool = posetkit.cli.ThreadPoolExecutor
        best = {pool: float("inf"), SerialPool: float("inf")}
        try:
            for _ in range(5):  # alternate, so both see the same machine load
                for executor in best:
                    posetkit.cli.ThreadPoolExecutor = executor
                    best[executor] = min(best[executor], timed(lambda: check_all(path)))
        finally:
            posetkit.cli.ThreadPoolExecutor = pool
        rows.append(("check ba32, thread pool (as shipped), best of 5", best[pool]))
        rows.append(("check ba32, plain loop, best of 5", best[SerialPool]))
    for what, seconds in rows:
        print(f"{what:<58} {seconds:8.3f} s")


if __name__ == "__main__":
    main()
