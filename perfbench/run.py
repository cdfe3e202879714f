"""Flagship benchmark of the documentprocessor_ray extraction engine.

    python3 perfbench/run.py --workload receipts --seed 1 --seconds 12 --trace 0

Workloads (corpora.WORKLOADS): ``receipts`` (the media path: OCR and
preprocess) and ``web_text`` (text, html and pdf spans, no images: per-row
overhead, the html and pdf kernels and the reassembly shuffle). Each run is a
closed loop of whole batch passes (``pipelines.extract.run_extraction``,
every output row collected by this process) over a local Ray session with
4 CPUs.

``--trace 0`` prints the end-to-end metrics. A run starts three fresh
sessions one after another, times the set-up of each and runs one cold pass
in each. In the last it then runs rounds of three passes on all CPUs and
one pass with Ray Data limited to 1 CPU, until ``--seconds`` have passed
and at least two rounds ran.

- ``setup_s``: median over the sessions of ``ray.init`` until all 4 workers
  have imported the package;
- ``cold_s``: median over the sessions of the first pass;
- ``docs_per_s``: docs / median wall time of the warm passes on all CPUs;
- ``first_batch_s``: median time until the first output batch reaches this
  process;
- ``peak_rss_mb``: sum of ``VmHWM`` over this process (reset when the last
  session starts) and every Ray process;
- ``ok_share``: 1 - failed docs / docs attempted (a missing doc fails the
  output check instead);
- ``scaling_eff_1to4``: ``docs_per_s`` / (4 x ``docs_per_s`` at 1 CPU).

``--trace 1`` prints the per-layer metrics of a separate traced run
(layers.py). Every pass's output is checked against the single-process
oracle (check.py); on a mismatch the run prints no metrics and exits 1.
The last stdout line is the result JSON; a line before it lists every
pass's wall time, so drift within a run shows.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import traceback
from typing import Dict

os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _p in (HERE, ROOT):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import corpora  # noqa: E402
from check import CheckFailed, prepare  # noqa: E402
from passes import (NUM_CPUS, Tally, extraction_pass, note,  # noqa: E402
                    warm_rounds)
from session import Session  # noqa: E402

SETUPS = 3

END_TO_END_UNITS = {
    "setup_s": "s", "cold_s": "s", "docs_per_s": "docs/s",
    "first_batch_s": "s", "peak_rss_mb": "MB", "ok_share": "ratio",
    "scaling_eff_1to4": "ratio",
}


def measure_end_to_end(corpus, seconds: float, tally: Tally,
                       log: Dict[str, list]) -> Dict[str, float]:
    run = lambda: extraction_pass(corpus)  # noqa: E731
    setups, colds = [], []
    for i in range(SETUPS):
        s = Session(NUM_CPUS)
        try:
            setups.append(s.setup_s)
            colds.append(tally.check(run()).wall_s)
            note(f"session {i + 1}/{SETUPS} set up in {s.setup_s:.2f}s, "
                 f"cold pass {colds[-1]:.2f}s")
            if i == SETUPS - 1:
                warm, single = warm_rounds(run, seconds, tally)
                note(f"{len(warm)} warm passes, {len(single)} at 1 CPU")
                rss = s.peak_rss_mb()
        finally:
            s.close()
    log.update(setup_s=setups, cold_s=colds,
               warm_s=[p.wall_s for p in warm],
               first_batch_s=[p.first_s for p in warm],
               warm_1cpu_s=[p.wall_s for p in single])
    wall = statistics.median(p.wall_s for p in warm)
    return {
        "setup_s": statistics.median(setups),
        "cold_s": statistics.median(colds),
        "docs_per_s": corpus.n_docs / wall,
        "first_batch_s": statistics.median(p.first_s for p in warm),
        "peak_rss_mb": rss,
        "ok_share": 1.0 - tally.failed / tally.attempted,
        "scaling_eff_1to4": statistics.median(p.wall_s for p in single)
        / (NUM_CPUS * wall),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=list(corpora.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--pin", action="store_true",
                    help="re-pin the canary corpus fingerprints and exit")
    args = ap.parse_args(argv)
    try:
        import documentprocessor_ray  # noqa: F401
    except ImportError as e:
        print(f"perfbench: engine package not importable from {ROOT}: {e}",
              file=sys.stderr)
        return 2
    if args.pin:
        print(json.dumps(corpora.pin_all(), indent=2))
        return 0
    if not args.workload:
        ap.error("--workload is required")
    corpus = prepare(args.workload, args.seed)
    note(f"corpus {corpus.root} ready")
    tally = Tally(corpus)
    log: Dict[str, list] = {}
    try:
        if args.trace:
            import layers  # noqa: E402

            metrics = layers.measure_layers(corpus, args.seconds, tally, log)
            units = layers.PER_LAYER_UNITS
        else:
            metrics = measure_end_to_end(corpus, args.seconds, tally, log)
            units = END_TO_END_UNITS
    except CheckFailed as e:
        print(f"perfbench: output check failed: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(1, tally.attempted),
                          "failed": tally.failed, "metrics": {}}))
        return 1
    print("passes " + json.dumps(
        {k: [round(v, 4) for v in vs] for k, vs in log.items()}))
    print(json.dumps({
        "correct": True,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    except Exception:
        traceback.print_exc()
        code = 1
    finally:
        if "ray" in sys.modules and sys.modules["ray"].is_initialized():
            sys.modules["ray"].shutdown()
    sys.stdout.flush()
    sys.exit(code)
