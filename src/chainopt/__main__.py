"""Run the command-line interface: ``python -m chainopt <command> ...``."""

import sys

from .cli import main

sys.exit(main())
