"""``python -m wicknls``: the command line front end (see ``wicknls.cli``)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
