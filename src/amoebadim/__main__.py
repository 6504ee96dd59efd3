"""`python -m amoebadim`: the command line, as the `amoebadim` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
