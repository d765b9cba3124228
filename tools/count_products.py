"""Count the A^T products a least-squares ``compare`` makes, seed by seed.

    python3 tools/count_products.py CONFIG [--seeds LO-HI]

runs ``avgfw.cli.main(["compare", ...])`` in this process for each seed
in LO..HI (default 0-19), with its outputs in a temporary directory, and
counts the calls of ``QuadraticLS.atom_image``: one A^T product each,
for an atom whose image the run has not kept (``solvers.ATOM_CACHE``).
The count covers the fw run, the avgfw run and, when ``reference_iters``
exceeds ``max_iters``, the resumed reference, each with its own store.
The exact image refreshes (every ``solvers.IMAGE_REFRESH`` steps) are
not counted. Per seed it prints the calls and the distinct vertices of
the fw and avgfw traces ("none" on the l2 ball, whose atoms have no
id), then the range and mean of the calls.

The benchmark's spans do not wrap ``atom_image``, so its products show
there only as solver self time; this count is how a change to the
store is checked. Run from the repository root, with ``src/`` on the
path (``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile

import numpy as np

import avgfw.cli as cli
from avgfw.objectives import QuadraticLS


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    if not seeds:
        raise ValueError(text)
    return seeds


def count(config: str, seed: int, out_dir: str):
    """The atom_image calls of one compare, and its traces keyed by variant."""
    calls, traces = 0, {}
    atom_image, compare = QuadraticLS.atom_image, cli.compare

    def counted_atom_image(self, domain, atom):
        nonlocal calls
        calls += 1
        return atom_image(self, domain, atom)

    def kept_compare(*args, **kwargs):
        result = compare(*args, **kwargs)
        traces.update(result[0])
        return result

    QuadraticLS.atom_image, cli.compare = counted_atom_image, kept_compare
    try:
        code = cli.main(["compare", "--config", config, "--out", out_dir, "--seed", str(seed), "--quiet"])
    finally:
        QuadraticLS.atom_image, cli.compare = atom_image, compare
    if code != 0:
        raise SystemExit(f"compare --seed {seed} exited {code}")
    return calls, traces


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("--seeds", type=seed_range, default=range(0, 20), help="LO-HI, inclusive (default 0-19)")
    args = parser.parse_args(argv)
    totals = []
    with tempfile.TemporaryDirectory() as out_dir:
        for seed in args.seeds:
            calls, traces = count(args.config, seed, out_dir)
            distinct = "  ".join(
                f"{v} {'none' if t.vertex_ids is None else np.unique(t.vertex_ids).size}" for v, t in traces.items()
            )
            print(f"seed {seed:3d}  atom_image calls {calls:6d}  distinct vertices: {distinct}")
            totals.append(calls)
    print(f"{args.config}: {len(totals)} seeds, calls {min(totals)}-{max(totals)}, mean {statistics.mean(totals):.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
