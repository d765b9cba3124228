"""Check that the working tree produces the same outputs as a git revision.

    python3 tools/diff_outputs.py REF

extracts ``git archive REF`` to a temporary directory and runs the same
command set on that tree and on the working tree, each in a fresh work
directory with its own copy of ``configs/`` and of ``bench/cs_large.ini``:
gen-data, solve on the 1-D probe, compare on the three shipped
comparison configs (whose references run past ``max_iters``) and on
``bench/cs_large.ini`` at seed 0 (whose reference is the averaged run
itself), sweep, both flows, and diag: on the six traces the shipped
compares write with the default window, on the fw trace of ``cs_compare``
with the explicit window 100..4999 (the benchmark's desk_small diag),
and on the box trace of the 1-D solve. Output files, stdout, stderr and exit codes are compared
byte for byte after the work directory's path is replaced by ``<work>``.
A differing text output is shown as the first DIFF_LINES lines of its
unified diff. Exits 1 on any difference, 0 when all match.
"""

from __future__ import annotations

import argparse
import difflib
import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, List, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LARGE_CONFIG = "bench/cs_large.ini"  # writes to out/cs_large
COMPARES = [("cs_compare", "out/cs_compare"), ("cs_manifold", "out/cs_manifold"), ("logistic_synthetic", "out/logistic")]
COMMANDS: List[List[str]] = [
    ["gen-data", "--out", "out/data"],
    ["solve", "--config", "configs/scalar1d_fw.ini", "--out", "out/scalar1d_fw"],
    *(["compare", "--config", f"configs/{name}.ini", "--out", out] for name, out in COMPARES),
    ["compare", "--config", LARGE_CONFIG, "--seed", "0"],
    ["sweep", "--config", "configs/logistic_synthetic.ini", "--out", "out/sweep"],
    ["flow", "--config", "configs/flow_accumulation.ini", "--out", "out/flow_accumulation"],
    ["flow", "--config", "configs/flow_scalar1d.ini", "--out", "out/flow_scalar1d"],
    *(["diag", f"{out}/{variant}_trace.csv"] for _, out in COMPARES for variant in ("fw", "avgfw")),
    ["diag", "out/cs_compare/fw_trace.csv", "--window-lo", "100", "--window-hi", "4999"],
    ["diag", "out/scalar1d_fw/trace.csv"],
]
RUN_CLI = "import sys; from avgfw.cli import main; sys.exit(main(sys.argv[1:]))"
DIFF_LINES = 20


def extract(ref: str, dest: str) -> str:
    """Write the tree of ``ref`` under ``dest`` and return its path."""
    tar = subprocess.run(["git", "-C", REPO, "archive", "--format=tar", ref], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest


def run_tree(tree: str, work: str) -> Dict[str, bytes]:
    """Run every command of the set on ``tree`` inside ``work``; return
    each output file and each command's streams and exit code, keyed by
    name, with the work directory's path normalized."""
    shutil.copytree(os.path.join(tree, "configs"), os.path.join(work, "configs"))
    os.mkdir(os.path.join(work, "bench"))
    shutil.copy(os.path.join(tree, LARGE_CONFIG), os.path.join(work, LARGE_CONFIG))
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    env.pop("AVGFW_OUT", None)
    results: Dict[str, bytes] = {}
    for i, argv in enumerate(COMMANDS):
        proc = subprocess.run([sys.executable, "-c", RUN_CLI, *argv], cwd=work, env=env, capture_output=True)
        name = f"[{i}] {' '.join(argv)}"
        results[f"{name}: stdout"] = proc.stdout
        results[f"{name}: stderr"] = proc.stderr
        results[f"{name}: exit code"] = str(proc.returncode).encode()
    for root, _, files in os.walk(os.path.join(work, "out")):
        for f in files:
            path = os.path.join(root, f)
            with open(path, "rb") as fh:
                results[os.path.relpath(path, work)] = fh.read()
    marker = os.path.realpath(work).encode()
    return {k: v.replace(marker, b"<work>").replace(work.encode(), b"<work>") for k, v in results.items()}


def text_diff(old: bytes, new: bytes) -> str:
    """The first DIFF_LINES lines of the unified diff of two text outputs,
    or "" when either is not UTF-8 text."""
    try:
        a, b = old.decode().splitlines(), new.decode().splitlines()
    except UnicodeDecodeError:
        return ""
    lines = list(difflib.unified_diff(a, b, "reference", "working tree", lineterm=""))
    return "".join(f"\n    {line}" for line in lines[:DIFF_LINES])


def differences(ref: Dict[str, bytes], new: Dict[str, bytes]) -> List[Tuple[str, str]]:
    out = []
    for key in sorted(set(ref) | set(new)):
        if key not in new:
            out.append((key, "only in the reference"))
        elif key not in ref:
            out.append((key, "only in the working tree"))
        elif ref[key] != new[key]:
            out.append((key, f"differs ({len(ref[key])} vs {len(new[key])} bytes){text_diff(ref[key], new[key])}"))
    return out


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git revision to compare the working tree against, e.g. HEAD~")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="avgfw-diff-") as tmp:
        trees = {"reference": extract(args.ref, os.path.join(tmp, "ref")), "working tree": REPO}
        outputs = {}
        for label, tree in trees.items():
            work = os.path.join(tmp, label.replace(" ", "_") + "_work")
            os.mkdir(work)
            print(f"running {len(COMMANDS)} commands on the {label} ({tree})", flush=True)
            outputs[label] = run_tree(tree, work)
    diffs = differences(outputs["reference"], outputs["working tree"])
    for key, what in diffs:
        print(f"DIFF {key}: {what}")
    for key, code in outputs["working tree"].items():
        if key.endswith(": exit code") and code != b"0":
            print(f"note: {key[: -len(': exit code')]} exits {code.decode()} on the working tree")
    n_files = sum(1 for k in outputs["working tree"] if not k.startswith("["))
    print(f"{len(diffs)} differences over {len(COMMANDS)} commands and {n_files} output files")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
