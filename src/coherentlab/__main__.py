"""``python -m coherentlab <experiment> --config ...``: the same entry point as
the ``coherentlab`` console script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
