"""``python -m fedl``: the fedl command line."""

import sys

from .cli import main

sys.exit(main())
