"""``python -m gainchroma``: the command line of :mod:`gainchroma.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
