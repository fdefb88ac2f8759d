"""Entry point for ``python -m latscreen``; the same as the ``latscreen`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
