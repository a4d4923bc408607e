"""`python -m latentid`: the command-line interface of `latentid.cli`."""

import sys

from .cli import main

sys.exit(main())
