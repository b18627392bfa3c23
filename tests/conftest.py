"""Run the suite against this checkout's src, whether qnet is installed or not.

src goes first on sys.path for this process, and first on PYTHONPATH for
the `python -m qnet` subprocesses that the CLI and acceptance tests start.
"""
import os
import pathlib
import sys

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
)
