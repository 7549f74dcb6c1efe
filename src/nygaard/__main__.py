"""`python -m nygaard ...` runs the command line of `nygaard.cli`."""

import sys

from .cli import main

sys.exit(main())
