"""Check that this tree's reports are byte-identical to those of a git ref.

    python tests/same_reports.py --base REF [--seeds 1 2]

Exports REF with git archive into a temporary directory, builds the four
benchmark workloads' documents for each seed with perfbench/workloads.py,
and runs every distinct command (by argv; thread counts are not part of
a report) under ``python -m qnet`` against REF's src and this tree's,
then the fixed help and usage-error invocations of USAGE.  Both trees run
on this interpreter with COLUMNS=80, so argparse wraps its text alike.
Exit code, stdout and stderr must match.  Prints, for each group, the
number of commands that differ, then the first difference; exits 1 on any
difference, a timeout (TIMEOUT_S per command and tree) included.
Standard library only; pytest does not collect it.
"""
from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

# The slowest workload command takes a few seconds.
TIMEOUT_S = 120.0
# Help and usage errors: argparse answers each before any document is read.
_ROUTE = ["route", "network.json", "--target", "B", "--min-success", "0.5"]
USAGE = [
    ["--help"],
    *([command, "--help"] for command in ("reduce", "route", "simulate", "grid")),
    [],
    ["teleport"],
    _ROUTE,
    ["simulate", "network.json", "--samples", "x"],
    [*_ROUTE, "--source", "A", "--max-paths", "3"],
]


def _export(ref: str, dest: str) -> None:
    tar = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", ref],
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)


def _commands(seeds: list[int], docs_dir: str) -> list[list[str]]:
    """The distinct argvs of every workload at every seed, documents written."""
    seen, argvs = set(), []
    for seed in seeds:
        for name in workloads.WORKLOADS:
            w = workloads.build(name, seed)
            for cmd in w.commands:
                path = None
                if cmd.doc is not None:
                    path = os.path.join(docs_dir, f"{name}-{seed}-{cmd.doc}.json")
                    if not os.path.exists(path):
                        with open(path, "wb") as fh:
                            fh.write(w.doc_bytes(cmd.doc))
                argv = cmd.argv(path)
                if tuple(argv) not in seen:
                    seen.add(tuple(argv))
                    argvs.append(argv)
    return argvs


def _run(tree: str, argv: list[str], cwd: str):
    """(exit code, stdout, stderr) of qnet from tree's src, or None on timeout."""
    env = dict(
        os.environ,
        PYTHONPATH=os.path.join(tree, "src"),
        PYTHONDONTWRITEBYTECODE="1",
        COLUMNS="80",
    )
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qnet", *argv],
            cwd=cwd, env=env, capture_output=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None
    return proc.returncode, proc.stdout, proc.stderr


def _difference(base, head) -> str | None:
    if base is None or head is None:
        return "timed out"
    if base[0] != head[0]:
        return f"exit code {base[0]} != {head[0]}"
    for what, old, new in zip(("stdout", "stderr"), base[1:], head[1:]):
        if old != new:
            at = next(
                (i for i, (a, b) in enumerate(zip(old, new)) if a != b),
                min(len(old), len(new)),
            )
            window = slice(max(at - 60, 0), at + 60)
            return (f"{what} differs at byte {at}: "
                    f"{old[window]!r} != {new[window]!r}")
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git ref to compare with")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_reports-") as tmp:
        base_tree, docs_dir = os.path.join(tmp, "base"), os.path.join(tmp, "docs")
        os.mkdir(base_tree)
        os.mkdir(docs_dir)
        _export(args.base, base_tree)
        groups = [
            ("commands", _commands(args.seeds, docs_dir)),
            ("help and usage invocations", USAGE),
        ]
        differing, first = 0, None
        for what, commands in groups:
            before = differing
            for cmd in commands:
                diff = _difference(_run(base_tree, cmd, tmp), _run(ROOT, cmd, tmp))
                if diff is not None:
                    differing += 1
                    if first is None:
                        first = f"qnet {' '.join(cmd)}\n  {diff}"
            count = f"{differing - before} of {len(commands)} {what}"
            print(f"{count} differ from {args.base}")
    if first is not None:
        print(f"first difference: {first}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
