"""``python -m ivstream``: the command-line front end, as the ``ivstream`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
