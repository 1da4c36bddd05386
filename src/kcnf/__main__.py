"""Run the command-line interface as `python -m kcnf ...`."""
# unreached: runs only as `python -m kcnf`, which tests start in a subprocess

import sys

from .cli import run

if __name__ == "__main__":
    sys.exit(run())
