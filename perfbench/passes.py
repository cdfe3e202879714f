"""One benchmark pass of each kind, and the checks run on its output."""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, ContextManager, List, Optional, Tuple

from check import CheckFailed, table_rows, verify

HERE = os.path.dirname(os.path.abspath(__file__))
NUM_CPUS = 4

_T0 = time.perf_counter()


def note(msg: str) -> None:
    """Progress line on stderr, stamped with seconds since start."""
    print(f"perfbench +{time.perf_counter() - _T0:6.1f}s {msg}",
          file=sys.stderr, flush=True)


@dataclass
class Pass:
    wall_s: float
    first_s: float
    rows: Optional[List[dict]]  # dropped once checked
    ds: Optional[object] = None  # the executed Dataset, for ds.stats()


def _untraced(name: str) -> ContextManager:
    return nullcontext()


def extraction_pass(corpus, span=_untraced) -> Pass:
    """One flagship pass: plan, execute, every output row back here.
    ``span(name)`` wraps the planning and the execution calls."""
    import pyarrow as pa

    from documentprocessor_ray.pipelines.extract import run_extraction

    t0 = time.perf_counter()
    with span("plan"):
        ds = run_extraction(corpus.docs_dir, corpus.media_dir)
    first = None
    blocks = []
    with span("execute"):
        for batch in ds.iter_batches(batch_format="pyarrow",
                                     batch_size=None):
            if first is None:
                first = time.perf_counter() - t0
            blocks.append(batch)
    wall = time.perf_counter() - t0
    return Pass(wall, first if first is not None else wall,
                table_rows(pa.concat_tables(blocks)), ds)


def out_dir(corpus) -> str:
    return os.path.join(HERE, "_cache", "out",
                        f"{corpus.workload}-{os.getpid()}")


def write_pass(corpus) -> Pass:
    """One checkpointed write pass into a fresh output directory; the first
    output is the first partition's manifest commit."""
    from documentprocessor_ray.state.checkpoint import run_partitioned

    out = out_dir(corpus)
    shutil.rmtree(out, ignore_errors=True)
    t_wall = time.time()
    t0 = time.perf_counter()
    summary = run_partitioned(corpus.docs_dir, corpus.media_dir, out)
    wall = time.perf_counter() - t0
    manifests = read_manifests(out)
    if set(summary["partitions"].values()) != {"done"}:
        raise CheckFailed(f"partitions not all written: {summary}")
    first = min(m["committed_at"] for m in manifests) - t_wall
    check_manifests(corpus, manifests)
    return Pass(wall, first, read_back(out))


def read_manifests(out: str) -> List[dict]:
    mdir = os.path.join(out, "_manifest")
    manifests = []
    for name in sorted(os.listdir(mdir)):
        with open(os.path.join(mdir, name)) as f:
            manifests.append(json.load(f))
    return manifests


def read_back(out: str) -> List[dict]:
    from documentprocessor_ray.sources.sinks import read_results

    return read_results(out).select_columns(
        ["doc_id", "status", "spans_out", "n_words"]).take_all()


def check_manifests(corpus, manifests: List[dict]) -> None:
    """The manifest counters add up to the docs written."""
    c = {k: sum(m["counters"][k] for m in manifests)
         for k in ("docs_in", "docs_ok", "docs_failed")}
    if c["docs_in"] != c["docs_ok"] + c["docs_failed"] or \
            c["docs_in"] != corpus.n_docs:
        raise CheckFailed(f"manifest counters do not add up: {c}")


def resume(corpus) -> None:
    """Run the writer again over its own output: every partition must be
    skipped."""
    from documentprocessor_ray.state.checkpoint import run_partitioned

    summary = run_partitioned(corpus.docs_dir, corpus.media_dir,
                              out_dir(corpus))
    if set(summary["partitions"].values()) != {"skipped"}:
        raise CheckFailed(f"resume recomputed partitions: {summary}")


class Tally:
    """Docs attempted and failed over every checked pass of a run."""

    def __init__(self, corpus):
        self.corpus = corpus
        self.attempted = 0
        self.failed = 0

    def check(self, p: Pass) -> Pass:
        """Verify ``p``'s output, then drop its rows and Dataset so that
        memory does not grow with the number of passes in a run."""
        self.attempted += self.corpus.n_docs
        self.failed += verify(p.rows, self.corpus)
        p.rows = p.ds = None
        return p


def timed_passes(run: Callable[[], Pass], seconds: float, at_least: int,
                 tally: Tally) -> List[Pass]:
    passes: List[Pass] = []
    deadline = time.perf_counter() + seconds
    while len(passes) < at_least or time.perf_counter() < deadline:
        passes.append(tally.check(run()))
    return passes


@contextmanager
def cpu_limit(cpus: int):
    """Let Ray Data plans built inside use at most ``cpus`` CPUs."""
    from ray.data import DataContext, ExecutionResources

    opts = DataContext.get_current().execution_options
    saved = opts.resource_limits
    opts.resource_limits = ExecutionResources(cpu=cpus)
    try:
        yield
    finally:
        opts.resource_limits = saved


def warm_rounds(run: Callable[[], Pass], seconds: float,
                tally: Tally) -> Tuple[List[Pass], List[Pass]]:
    """Rounds of three passes on all CPUs and one limited to 1 CPU, until
    ``seconds`` have passed and at least two rounds ran. Interleaving keeps
    drift within the run out of the 1-to-4 ratio; stopping on time keeps a
    run's length bounded when the host is slow."""
    warm: List[Pass] = []
    single: List[Pass] = []
    deadline = time.perf_counter() + seconds
    while len(single) < 2 or time.perf_counter() < deadline:
        warm.extend(tally.check(run()) for _ in range(3))
        with cpu_limit(1):
            single.append(tally.check(run()))
    return warm, single
